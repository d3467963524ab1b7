"""Campaign cell model: the unit of crash-isolated work.

A *cell* is one (experiment kind, benchmark, defense) measurement — exactly
one bar of Figure 6/7/9.  Cells are independent by construction: every cell
regenerates its workload from the same deterministic seed and runs it on a
fresh system, so any subset can run in any order, in any process, and a
resumed campaign produces bit-identical rows to an uninterrupted one.

Normalization couples cells only at *assembly* time: the ``none`` (unsafe
baseline) cell of each benchmark supplies ``baseline_cycles`` for that
benchmark's defense rows, so :func:`rows_from_records` joins records into
:class:`~repro.eval.experiments.ExperimentRow` after the fact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.config import (CORTEX_A76, FIG6_DEFENSES, FIG9_DEFENSES,
                          DefenseKind, SystemConfig)
from repro.errors import CampaignError
from repro.workloads import parsec_names, spec_names

if TYPE_CHECKING:
    from repro.eval.experiments import ExperimentRow

#: Bump when the result-record layout changes; stale-schema records in a
#: resumed store are re-run, never trusted.
SCHEMA_VERSION = 1

#: Figure name -> (cell kind, defense list) for the sweep entry points.
FIGURES = {
    "figure6": ("spec", FIG6_DEFENSES),
    "figure7": ("parsec", FIG6_DEFENSES),
    "figure9": ("spec", FIG9_DEFENSES),
    # The spec-repair pipeline's overhead sweep: one cell per residual
    # witness, each self-normalizing (the cell runs the unrepaired program
    # itself), so no NONE baseline cells are scheduled.
    "repair-overhead": ("repair", [DefenseKind.SPECASAN]),
}


@dataclass(frozen=True)
class CellSpec:
    """One (kind, benchmark, defense) measurement, JSON-serializable.

    ``seed`` is the *workload* seed; the scheduler perturbs the MTE tag
    seed on retries (reseed-with-backoff), which never changes the workload
    itself — rows stay comparable across attempts.
    """

    kind: str                    # "spec" | "parsec"
    benchmark: str
    defense: str                 # DefenseKind value
    target_instructions: int = 4000
    warm_runs: int = 1
    num_threads: int = 1         # parsec only
    seed: int = 0
    #: Cycle budget per simulated run (None -> CoreConfig.max_cycles).
    max_cycles: Optional[int] = None
    #: Wall-clock budget for the whole cell (all warm + measured runs).
    timeout_s: float = 300.0

    def __post_init__(self) -> None:
        if self.kind not in ("spec", "parsec", "repair"):
            raise CampaignError(f"unknown cell kind {self.kind!r}")
        DefenseKind(self.defense)  # raises ValueError on a bad value
        if self.timeout_s <= 0:
            raise CampaignError("cell timeout_s must be positive")

    @property
    def cell_id(self) -> str:
        return f"{self.kind}:{self.benchmark}:{self.defense}"

    @property
    def defense_kind(self) -> DefenseKind:
        return DefenseKind(self.defense)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CellSpec":
        return cls(**data)


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs to (re)build its cell list.

    The config hash pins a run directory to one campaign: ``--resume``
    against a directory whose manifest hash differs is a
    :class:`~repro.errors.ManifestMismatch`, because mixing rows measured
    under different parameters would corrupt the figure silently.
    """

    figure: str = "figure6"
    benchmarks: tuple = ()       # empty -> the figure's full suite
    target_instructions: int = 4000
    warm_runs: int = 1
    num_threads: int = 4         # parsec campaigns
    seed: int = 0
    max_cycles: Optional[int] = None
    timeout_s: float = 300.0
    #: Process-level retries per cell after the first attempt.
    max_retries: int = 2
    #: Exponential-backoff base delay (seconds); attempt k waits
    #: ``backoff_base_s * 2**k`` plus jitter.
    backoff_base_s: float = 0.25
    backoff_jitter_s: float = 0.25
    #: A worker whose heartbeat file goes stale for this long is a straggler.
    stall_timeout_s: float = 60.0
    #: Simulated cycles between heartbeats.
    heartbeat_cycles: int = 2000
    max_workers: int = 2
    #: Unused by the campaign.  Kept in :meth:`to_dict` so that
    #: :meth:`config_hash`, and with it ``--resume`` of existing run
    #: directories, stays the same; benchmarks/perf/work.py::_replay reads
    #: both.
    checkpoint_interval: int = 10_000
    checkpoint_keep: int = 2
    #: Warm each (workload, seed) group once and fan every defense cell out
    #: from the shared warm-state checkpoint, instead of re-warming the
    #: hierarchy inside every cell.
    share_warm: bool = True

    def __post_init__(self) -> None:
        if self.figure not in FIGURES:
            raise CampaignError(
                f"unknown figure {self.figure!r}; have {sorted(FIGURES)}")
        if self.max_retries < 0:
            raise CampaignError("max_retries must be >= 0")
        if self.max_workers < 1:
            raise CampaignError("max_workers must be >= 1")
        if self.stall_timeout_s <= 0 or self.timeout_s <= 0:
            raise CampaignError("timeouts must be positive")

    def to_dict(self) -> dict:
        data = asdict(self)
        data["benchmarks"] = list(self.benchmarks)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        data = dict(data)
        data["benchmarks"] = tuple(data.get("benchmarks") or ())
        return cls(**data)

    def config_hash(self) -> str:
        """Deterministic digest of every parameter that affects results."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @property
    def defenses(self) -> List[DefenseKind]:
        return list(FIGURES[self.figure][1])

    @property
    def kind(self) -> str:
        return FIGURES[self.figure][0]

    def suite(self) -> List[str]:
        if self.benchmarks:
            return list(self.benchmarks)
        if self.kind == "repair":
            from repro.analysis.witness import variant_name, WITNESS_KINDS
            return [f"{kind.value}/{variant_name(kind, True)}"
                    for kind in WITNESS_KINDS]
        return spec_names() if self.kind == "spec" else parsec_names()

    def build_cells(self) -> List[CellSpec]:
        """The full cell list: per benchmark, a baseline cell + one per
        defense.  Order is the row order of the rendered figure.  Repair
        cells measure their own baseline (the unrepaired program), so they
        get no separate ``none`` cell."""
        cells: List[CellSpec] = []
        threads = self.num_threads if self.kind == "parsec" else 1
        baseline = [] if self.kind == "repair" else [DefenseKind.NONE]
        for benchmark in self.suite():
            for defense in baseline + self.defenses:
                cells.append(CellSpec(
                    kind=self.kind, benchmark=benchmark,
                    defense=defense.value,
                    target_instructions=self.target_instructions,
                    warm_runs=self.warm_runs, num_threads=threads,
                    seed=self.seed, max_cycles=self.max_cycles,
                    timeout_s=self.timeout_s))
        return cells


def system_config(cell: CellSpec, reseed: int = 0) -> SystemConfig:
    """The :class:`SystemConfig` a cell runs under.

    ``reseed`` perturbs the MTE tag-assignment seed (the scheduler's
    retry knob for typed failures); the cycle budget lands in
    :attr:`~repro.config.CoreConfig.max_cycles` so every ``run()`` under
    this config inherits it.
    """
    config = CORTEX_A76.with_defense(cell.defense_kind)
    if cell.kind == "parsec":
        config = config.with_cores(cell.num_threads)
    if reseed:
        config = replace(config,
                         mte=replace(config.mte,
                                     seed=config.mte.seed + reseed))
    if cell.max_cycles is not None:
        config = replace(config,
                         core=replace(config.core,
                                      max_cycles=cell.max_cycles))
    return config


def rows_from_records(cells: Sequence[CellSpec],
                      records: Dict[str, dict]) -> List[ExperimentRow]:
    """Join completed cell records into renderable experiment rows.

    ``records`` maps ``cell_id`` to the stored ``row`` payload.  A defense
    cell without a completed baseline for its benchmark cannot be
    normalized, so it is dropped here and surfaces as a missing cell in
    :func:`~repro.eval.experiments.render_rows` — partial figures degrade
    visibly, they never divide by a made-up baseline.
    """
    # Imported here: the campaign's start path never loads repro.eval.
    from repro.eval.experiments import ExperimentRow
    rows: List[ExperimentRow] = []
    baselines = {
        cell.benchmark: records[cell.cell_id]["row"]["cycles"]
        for cell in cells
        if cell.defense == DefenseKind.NONE.value and cell.cell_id in records
    }
    for cell in cells:
        record = records.get(cell.cell_id)
        if record is None:
            continue
        payload = record["row"]
        # Repair cells are self-normalizing: the unrepaired program's
        # cycles ride along in the payload instead of a separate cell.
        baseline_cycles = payload.get("baseline_cycles") \
            if cell.kind == "repair" else baselines.get(cell.benchmark)
        if baseline_cycles is None:
            continue
        rows.append(ExperimentRow(
            benchmark=cell.benchmark, defense=cell.defense_kind,
            cycles=payload["cycles"], baseline_cycles=baseline_cycles,
            restricted_fraction=payload["restricted_fraction"],
            ipc=payload["ipc"]))
    return rows
