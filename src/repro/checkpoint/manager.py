"""Generation-managed checkpointing of whole simulated systems.

A :class:`CheckpointManager` owns one *stem* (``<dir>/<name>``); each save
writes the next generation file ``<stem>.ckpt.<N>`` and prunes old ones,
keeping ``keep`` generations.  Restore walks the generations newest→oldest,
rejecting corrupt files (counted in
:class:`~repro.checkpoint.stats.CheckpointStats`) until one verifies — the
degradation ladder's middle rungs.  Only when *no* generation restores does
the manager raise, and the caller's last rung (a straight-through re-run)
takes over.

The system state has one shape for any number of cores
(:meth:`repro.system.SimulatedSystem.state_dict`): the hierarchy, the core
list and, when a profiler is attached, the occupancy histograms.  Each
becomes one file section, next to a ``meta`` section.

:class:`CheckpointHook` adapts a manager to the ``checkpoint_hook`` of a
:class:`~repro.system.SimulatedSystem` or a
:class:`~repro.pipeline.core.Core`, re-checkpointing every ``interval``
*simulated* cycles mid-run, the same cadence contract as the campaign
heartbeat.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import List, Optional

from repro.checkpoint.format import (
    config_fingerprint,
    program_fingerprint,
    read_checkpoint,
    write_checkpoint,
)
from repro.checkpoint.stats import CheckpointStats
from repro.errors import CheckpointError


@dataclass
class RestoreResult:
    """Outcome of one successful restore walk."""

    generation: int
    path: str
    cycle: int
    #: Newer generations that were rejected as corrupt on the way down.
    rejected: List[CheckpointError] = field(default_factory=list)


class CheckpointManager:
    """Versioned save/restore of one system's full state."""

    def __init__(self, stem: str, keep: int = 2,
                 stats: Optional[CheckpointStats] = None):
        if keep < 1:
            raise ValueError("must keep at least one generation")
        self.stem = stem
        self.keep = keep
        self.stats = stats if stats is not None else CheckpointStats()

    # -- generation bookkeeping ---------------------------------------------

    def path_for(self, generation: int) -> str:
        return f"{self.stem}.ckpt.{generation}"

    def generations(self) -> List[int]:
        """Existing generation numbers, newest first."""
        directory = os.path.dirname(self.stem) or "."
        prefix = os.path.basename(self.stem) + ".ckpt."
        pattern = re.compile(re.escape(prefix) + r"(\d+)$")
        found = []
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return []
        for name in names:
            match = pattern.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found, reverse=True)

    def _prune(self) -> None:
        for generation in self.generations()[self.keep:]:
            try:
                os.unlink(self.path_for(generation))
            except OSError:
                pass

    # -- save / restore ------------------------------------------------------

    def save(self, system, programs) -> str:
        """Checkpoint ``system`` (paused between cycles) as a new generation."""
        state = system.state_dict()
        cores = state["cores"]
        cycle = max(core["cycle"] for core in cores)
        # Restore reads the state sections only; ``meta`` keeps the layout
        # every file of this schema version has.
        sections = {"meta": {"multicore": len(cores) > 1, "cycle": cycle},
                    **state}
        generations = self.generations()
        generation = generations[0] + 1 if generations else 0
        path = self.path_for(generation)
        nbytes = write_checkpoint(
            path, sections,
            config_hash=config_fingerprint(system.config),
            program_hash=program_fingerprint(programs),
            cycle=cycle)
        self.stats.saves += 1
        self.stats.save_cycles = cycle
        self.stats.bytes += nbytes
        self._prune()
        return path

    def restore(self, system, programs) -> RestoreResult:
        """Restore the newest verifiable generation into ``system``.

        Corrupt generations are rejected (with their fault class counted
        and reported) and the walk falls back to the next-older one.
        Raises :class:`CheckpointError` only when no generation restores:
        the newest rejection when at least one file existed, else kind
        ``"missing"``.
        """
        expect_config = config_fingerprint(system.config)
        expect_program = program_fingerprint(programs)
        rejected: List[CheckpointError] = []
        for generation in self.generations():
            path = self.path_for(generation)
            try:
                header, sections = read_checkpoint(
                    path, expect_config=expect_config,
                    expect_program=expect_program)
                system.load_state_dict(self._assemble(sections), programs)
            except CheckpointError as err:
                rejected.append(err)
                self.stats.corrupt_rejected += 1
                continue
            self.stats.restores += 1
            return RestoreResult(generation=generation, path=path,
                                 cycle=header["cycle"], rejected=rejected)
        if rejected:
            raise rejected[0]
        raise CheckpointError("no checkpoint generations found",
                              path=self.stem, kind="missing")

    @staticmethod
    def _assemble(sections: dict) -> dict:
        try:
            state = {name: sections[name] for name in ("hierarchy", "cores")}
        except KeyError as err:
            raise CheckpointError(f"section {err} absent", section=str(err),
                                  kind="section-corrupt")
        if "occupancy" in sections:
            state["occupancy"] = sections["occupancy"]
        return state


class CheckpointHook:
    """Adapter for the ``checkpoint_hook`` of a system or a core.

    The run loop (:func:`repro.pipeline.core.run_cores`) calls :meth:`save`
    every ``interval`` simulated cycles; the hook re-checkpoints the whole
    owning system, so a long cell killed mid-run resumes from its latest
    periodic generation.
    """

    def __init__(self, manager: CheckpointManager, system, programs,
                 interval: int = 10_000):
        if interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.manager = manager
        self.system = system
        self.programs = programs
        self.interval = interval

    def save(self) -> None:
        self.manager.save(self.system, self.programs)
