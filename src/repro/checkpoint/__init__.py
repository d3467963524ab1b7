"""Durable checkpoint/restore of full simulated-system state.

``repro.checkpoint`` serializes a paused
:class:`~repro.system.SimulatedSystem` of any number of cores — pipelines,
memory hierarchy, MTE tags, predictors, RNG streams, telemetry — to a
versioned, checksummed file, and restores it to a byte-identical
continuation.

Layers:

- :mod:`repro.checkpoint.format` — the sectioned, hashed, atomically
  written file format and its fail-closed reader;
- :mod:`repro.checkpoint.manager` — save a paused system to one file
  and restore it;
- :mod:`repro.checkpoint.corrupt` — the damage primitives the tests aim
  at checkpoint files;
- :mod:`repro.checkpoint.stats` — the ``checkpoint.*`` counters of the
  campaign's shared warm-state file.

``python -m repro.checkpoint --smoke`` pauses, saves, discards, restores
and finishes a run end to end (see :mod:`repro.checkpoint.__main__`).
"""

from repro.checkpoint.format import (
    config_fingerprint,
    MAGIC,
    program_fingerprint,
    read_checkpoint,
    read_header,
    SCHEMA_VERSION,
    section_ranges,
    write_checkpoint,
)
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.stats import CheckpointStats

__all__ = [
    "CheckpointManager",
    "CheckpointStats",
    "config_fingerprint",
    "MAGIC",
    "program_fingerprint",
    "read_checkpoint",
    "read_header",
    "SCHEMA_VERSION",
    "section_ranges",
    "write_checkpoint",
]
