"""Checkpoint telemetry counters.

A plain stats dataclass in the style of
:class:`~repro.pipeline.stats.CoreStats`: flat integer fields bumped
directly, registered under the ``checkpoint`` scope by
:func:`repro.telemetry.registry.system_registry` (pass the object as its
``checkpoint`` argument, or attach it to a system's ``checkpoint_stats``).
The campaign worker counts a cell's use of its warm group's shared
warm-state file here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CheckpointStats:
    """Counters for one cell's shared warm-state file."""

    #: Warm files written (this cell produced its group's warm state).
    saves: int = 0
    #: Simulated cycle at which the written warm state was taken.
    save_cycles: int = 0
    #: Total bytes written across all saves.
    bytes: int = 0
    #: Warm files read and shared (another cell produced them).
    restores: int = 0
    #: Warm files rejected as corrupt (the cell re-warmed locally).
    corrupt_rejected: int = 0
