"""Top-level façade: build and run a complete simulated system.

This is the main entry point downstream users touch::

    from repro import build_system, CORTEX_A76, DefenseKind
    from repro.isa import assemble

    program = assemble('''
        MOV X0, #41
        ADD X0, X0, #1
        HALT
    ''')
    system = build_system(CORTEX_A76.with_defense(DefenseKind.SPECASAN))
    result = system.run(program)
    assert result.register("X0") == 42

A :class:`SimulatedSystem` owns one memory hierarchy and up to
``config.num_cores`` out-of-order cores: one for the single-core
experiments, one per thread for the PARSEC experiments (Figure 7).  Each
core owns its private L1D/LFB/MinionCache inside the shared
:class:`~repro.memory.hierarchy.MemoryHierarchy`; the L2, memory controller,
DRAM tag storage, and coherence directory are shared, so one core's
committed stores (and STG tag updates) invalidate the other cores' copies.
The cores run in lockstep (:func:`~repro.pipeline.core.run_cores`) until
every one has halted; a run's cycles are the slowest core's, which is how
the paper's Figure 7 normalizes multi-threaded runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import SystemConfig
from repro.defenses import make_policy
from repro.errors import ConfigError, TagCheckFault
from repro.isa.program import Program
from repro.isa.registers import reg_index
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import Core, run_cores
from repro.pipeline.stats import CoreStats
from repro.telemetry.registry import ratio, system_registry


@dataclass
class RunResult:
    """Summary of one run: every core's counters, plus the architectural
    state of the first core (the only one of a single-core run)."""

    cycles: int
    per_core: List[CoreStats]
    faults: List[Optional[TagCheckFault]]
    #: Every core halted.
    halted: bool = False
    registers: Dict[int, int] = field(default_factory=dict)
    restricted: int = 0
    invalidations: int = 0
    #: Every core's leak log, in core order.
    leak_log: List[dict] = field(default_factory=list)

    @property
    def stats(self) -> CoreStats:
        """The first core's counters."""
        return self.per_core[0]

    @property
    def fault(self) -> Optional[TagCheckFault]:
        """The first tag fault in core order, or None."""
        return next((fault for fault in self.faults if fault is not None),
                    None)

    @property
    def instructions(self) -> int:
        return sum(stats.committed for stats in self.per_core)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return ratio(self.instructions, self.cycles)

    @property
    def restricted_fraction(self) -> float:
        """The Figure-8 restriction fraction, pooled over the cores."""
        return ratio(sum(stats.restricted_committed
                         for stats in self.per_core), self.instructions)

    @property
    def faulted(self) -> bool:
        return self.fault is not None

    def register(self, name: str) -> int:
        """Final architectural value of a register, by name (``"X5"``)."""
        return self.registers.get(reg_index(name), 0)


def load_program(hierarchy: MemoryHierarchy, program: Program) -> None:
    """Place a program's data segments (bytes + allocation tags) in memory."""
    program.link()
    for segment in program.data_segments:
        hierarchy.memory.load_image(segment.address, segment.data)
        if segment.tag is not None:
            hierarchy.memory.tag_range(segment.address, max(segment.size, 1),
                                       segment.tag)


class SimulatedSystem:
    """One hierarchy plus up to ``config.num_cores`` cores.

    ``policy_factory`` overrides the defense policy construction — used by
    the ablation studies to plug SpecASan variants that have no
    :class:`~repro.config.DefenseKind` of their own.
    """

    def __init__(self, config: SystemConfig, policy_factory=None):
        self.config = config
        self.policy_factory = policy_factory
        self.hierarchy = MemoryHierarchy(config)
        self.cores: List[Core] = []
        #: Telemetry hooks (:mod:`repro.telemetry`): assign a
        #: :class:`~repro.telemetry.trace.TraceSink` and/or an
        #: :class:`~repro.telemetry.occupancy.OccupancyProfiler` before
        #: :meth:`prepare`/:meth:`run` of one program; the fresh core is
        #: wired to them.
        self.tracer = None
        self.occupancy = None
        #: Campaign liveness probe and periodic re-checkpoint hook, pulsed
        #: by :meth:`run_prepared` (same contract as
        #: :attr:`~repro.pipeline.core.Core.heartbeat` and
        #: :attr:`~repro.pipeline.core.Core.checkpoint_hook`).
        self.heartbeat = None
        self.checkpoint_hook = None
        #: Checkpoint telemetry (:class:`repro.checkpoint.stats.CheckpointStats`),
        #: attached by a :class:`repro.checkpoint.manager.CheckpointManager`;
        #: registers under the ``checkpoint`` scope in :meth:`stats_registry`.
        self.checkpoint_stats = None

    @property
    def core(self) -> Optional[Core]:
        """The first core: the only one of a single-core run."""
        return self.cores[0] if self.cores else None

    def prepare(self, programs):
        """Load the program(s) and build a fresh core for each (not yet
        run).  Given one :class:`Program`, returns its core; given a list,
        the list of cores."""
        single = not isinstance(programs, (list, tuple))
        if single:
            programs = [programs]
        if len(programs) > self.config.num_cores:
            raise ConfigError(
                f"{len(programs)} programs for {self.config.num_cores} cores")
        if len(programs) > 1 and (self.tracer is not None
                                  or self.occupancy is not None):
            raise ConfigError("a tracer or occupancy profiler observes "
                              "one core; prepare one program")
        self.hierarchy.quiesce()
        self.cores = []
        for core_id, program in enumerate(programs):
            load_program(self.hierarchy, program)
            policy = (self.policy_factory() if self.policy_factory is not None
                      else make_policy(self.config.defense))
            core = Core(self.config, self.hierarchy, program, policy=policy,
                        core_id=core_id)
            if self.tracer is not None:
                core.trace = self.tracer
            if self.occupancy is not None:
                self.occupancy.attach(core)
            self.cores.append(core)
        return self.cores[0] if single else self.cores

    def run(self, programs, max_cycles: Optional[int] = None,
            warm_runs: int = 0) -> RunResult:
        """Load and run the program(s) to completion on fresh cores.

        ``max_cycles`` defaults to the configured
        :attr:`~repro.config.CoreConfig.max_cycles` budget.  ``warm_runs``
        first executes the programs that many times on the *same* memory
        hierarchy (caches and tag state stay warm) before the measured run —
        the analogue of the paper's 10-billion-instruction fast-forward
        before detailed simulation (§5.1).  Fewer programs than cores leave
        the extra cores idle, as PARSEC regions with fewer worker threads do.
        """
        for _ in range(warm_runs + 1):
            self.prepare(programs)
            self.run_prepared(max_cycles)
        return self.result()

    def run_prepared(self, max_cycles: Optional[int] = None,
                     until_cycle: Optional[int] = None) -> None:
        """Run the prepared cores until all halt, or pause at
        ``until_cycle`` (see :func:`~repro.pipeline.core.run_cores`)."""
        if not self.cores:
            raise RuntimeError("no program prepared; nothing to run")
        run_cores(self.cores, max_cycles, until_cycle, self.heartbeat,
                  self.checkpoint_hook)

    def result(self) -> RunResult:
        """Snapshot the outcome of the last (possibly in-progress) run."""
        cores = self.cores
        if not cores:
            raise RuntimeError("no program has been run on this system")
        return RunResult(
            cycles=max(core.cycle for core in cores),
            per_core=[core.stats for core in cores],
            faults=[core.fault for core in cores],
            halted=all(core.halted for core in cores),
            registers=dict(enumerate(cores[0].arf)),
            restricted=sum(len(core.policy.restricted_seqs)
                           for core in cores),
            invalidations=self.hierarchy.directory.invalidations,
            leak_log=[entry for core in cores for entry in core.leak_log],
        )

    def stats_registry(self):
        """One :class:`~repro.telemetry.registry.StatsRegistry` over the last
        run's core counters (scope ``core`` for one core, ``core0`` /
        ``core1`` / … for several), the hierarchy counters, and (when an
        :class:`~repro.telemetry.occupancy.OccupancyProfiler` is attached)
        the occupancy histograms."""
        per_core = [core.stats for core in self.cores]
        return system_registry(
            core_stats=per_core[0] if len(per_core) == 1 else None,
            per_core=per_core if len(per_core) > 1 else (),
            hierarchy_stats=self.hierarchy.stats,
            occupancy=self.occupancy,
            checkpoint=self.checkpoint_stats)

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete serializable system state (hierarchy + cores
        [+ occupancy]).

        Taken between cycles; pair with :meth:`run_prepared`'s (or
        :meth:`~repro.pipeline.core.Core.run`'s) ``until_cycle`` pause.
        """
        if not self.cores:
            raise RuntimeError("no program prepared; nothing to checkpoint")
        state = {
            "hierarchy": self.hierarchy.state_dict(),
            "cores": [core.state_dict() for core in self.cores],
        }
        if self.occupancy is not None:
            state["occupancy"] = self.occupancy.state_dict()
        return state

    def load_state_dict(self, state: dict, programs):
        """Restore a :meth:`state_dict` snapshot; returns what
        :meth:`prepare` returns for ``programs``.

        Builds fresh cores against ``programs`` (which must be the programs
        the snapshot was taken from — the checkpoint file format
        fingerprints them), then overwrites every stateful structure,
        leaving the system exactly mid-run: :meth:`run_prepared` continues
        from the paused cycle and produces the same continuation as an
        uninterrupted run.
        """
        from repro.errors import CheckpointError
        prepared = self.prepare(programs)
        if len(state["cores"]) != len(self.cores):
            raise CheckpointError(
                f"checkpoint has {len(state['cores'])} cores, system "
                f"prepared {len(self.cores)}", kind="state-mismatch")
        self.hierarchy.load_state_dict(state["hierarchy"])
        for core, core_state in zip(self.cores, state["cores"]):
            core.load_state_dict(core_state)
        if self.occupancy is not None and "occupancy" in state:
            self.occupancy.load_state_dict(state["occupancy"])
        return prepared


def build_system(config: Optional[SystemConfig] = None,
                 policy_factory=None) -> SimulatedSystem:
    """Construct a :class:`SimulatedSystem` (default: Table 2's CORTEX_A76)."""
    return SimulatedSystem(config or SystemConfig(),
                           policy_factory=policy_factory)
