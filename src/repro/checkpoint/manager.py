"""One-file checkpointing of whole simulated systems.

A :class:`CheckpointManager` owns one checkpoint file: :meth:`save`
writes a paused system's full state to it, replacing what was there, and
:meth:`restore` loads it back through the fail-closed reader of
:mod:`repro.checkpoint.format`.

The system state has one shape for any number of cores
(:meth:`repro.system.SimulatedSystem.state_dict`): the hierarchy, the core
list and, when a profiler is attached, the occupancy histograms.  Each
becomes one file section, next to a ``meta`` section.
"""

from __future__ import annotations

from repro.checkpoint.format import (
    config_fingerprint,
    program_fingerprint,
    read_checkpoint,
    write_checkpoint,
)
from repro.errors import CheckpointError


class CheckpointManager:
    """Save and restore one system's full state in one file."""

    def __init__(self, path: str):
        self.path = path

    def save(self, system, programs) -> str:
        """Checkpoint ``system`` (paused between cycles); returns the path."""
        state = system.state_dict()
        cores = state["cores"]
        cycle = max(core["cycle"] for core in cores)
        # Restore reads the state sections only; ``meta`` keeps the layout
        # every file of this schema version has.
        sections = {"meta": {"multicore": len(cores) > 1, "cycle": cycle},
                    **state}
        write_checkpoint(
            self.path, sections,
            config_hash=config_fingerprint(system.config),
            program_hash=program_fingerprint(programs),
            cycle=cycle)
        return self.path

    def restore(self, system, programs) -> int:
        """Restore the saved state into ``system``; returns its cycle.

        Raises the reader's typed :class:`CheckpointError` when the file
        does not verify, with kind ``"missing"`` when nothing was saved.
        """
        header, sections = read_checkpoint(
            self.path, expect_config=config_fingerprint(system.config),
            expect_program=program_fingerprint(programs))
        system.load_state_dict(self._assemble(sections), programs)
        return header["cycle"]

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
