"""Durable checkpoint/restore of full simulated-system state.

``repro.checkpoint`` serializes a paused
:class:`~repro.system.SimulatedSystem` of any number of cores — pipelines,
memory hierarchy, MTE tags, predictors, RNG streams, telemetry — to a
versioned, checksummed file, and restores it to a byte-identical
continuation.

Layers:

- :mod:`repro.checkpoint.format` — the sectioned, hashed, atomically
  written file format and its fail-closed reader;
- :mod:`repro.checkpoint.manager` — generation rotation, newest→oldest
  corruption fallback, and the periodic in-run checkpoint hook;
- :mod:`repro.checkpoint.corrupt` — the damage primitives the tests and
  the fault injector aim at checkpoint files;
- :mod:`repro.checkpoint.stats` — the ``checkpoint.*`` telemetry counters.

``python -m repro.checkpoint --smoke`` exercises the full ladder
end-to-end (see :mod:`repro.checkpoint.__main__`).
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
from repro.checkpoint.manager import (
    CheckpointHook,
    CheckpointManager,
    RestoreResult,
)
from repro.checkpoint.stats import CheckpointStats

__all__ = [
    "CheckpointHook",
    "CheckpointManager",
    "CheckpointStats",
    "config_fingerprint",
    "MAGIC",
    "program_fingerprint",
    "read_checkpoint",
    "read_header",
    "RestoreResult",
    "SCHEMA_VERSION",
    "section_ranges",
    "write_checkpoint",
]
