"""The experiment harness: one entry point per table/figure of the paper.

Every function regenerates the corresponding result from scratch on the
simulator and returns structured rows; the ``render_*`` helpers format them
the way the paper presents them.  The benchmark suite under ``benchmarks/``
calls straight into this module.

Experiment ↔ paper mapping:

- :func:`figure1`  — delay-stage comparison of defense classes (Fig. 1);
- :func:`figure5_trace` — SpecASan's step-by-step Spectre-v1 block (Fig. 5);
- :func:`table1`   — the security matrix (Table 1);
- :func:`figure6`  — SPEC CPU2017 normalized execution time (Fig. 6);
- :func:`figure7`  — PARSEC normalized execution time, 4 cores (Fig. 7);
- :func:`figure8`  — % restricted speculative instructions (Fig. 8);
- :func:`figure9`  — SpecCFI / SpecASan / combined overheads (Fig. 9).

Scale note: ``target_instructions`` trades fidelity for wall-clock time; the
shipped defaults keep a full figure under a few minutes of simulation while
preserving the paper's qualitative shape (who wins, by roughly what factor).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.attacks import run_attack_program, spectre_v1
from repro.attacks.matrix import evaluate_matrix, MatrixCell, render_matrix
from repro.config import (CORTEX_A76, FIG6_DEFENSES, FIG8_DEFENSES,
                          FIG9_DEFENSES, DefenseKind, SystemConfig)
from repro.eval.metrics import geomean, normalized, percent
from repro.system import build_system
from repro.workloads import parsec_names, spec_names


@dataclass
class ExperimentRow:
    """One (benchmark, defense) measurement."""

    benchmark: str
    defense: DefenseKind
    cycles: int
    baseline_cycles: int
    restricted_fraction: float
    ipc: float

    @property
    def normalized_time(self) -> float:
        return normalized(self.cycles, self.baseline_cycles)

    @property
    def restricted_pct(self) -> float:
        return percent(self.restricted_fraction)


def _run_cells(kind: str, benchmarks: Sequence[str],
               defenses: Sequence[DefenseKind], **params
               ) -> List[ExperimentRow]:
    """The baseline plus ``defenses`` per benchmark, each measured by the
    campaign's cell function (:func:`repro.campaign.worker.run_cell`) with
    checkpointing off, joined into rows against the baseline."""
    # Imported here: the campaign modules import this one.
    from repro.campaign.cells import CellSpec, rows_from_records
    from repro.campaign.worker import run_cell
    cells = [CellSpec(kind=kind, benchmark=name, defense=defense.value,
                      **params)
             for name in benchmarks
             for defense in [DefenseKind.NONE] + list(defenses)]
    records = {cell.cell_id: {"row": run_cell(cell)} for cell in cells}
    return rows_from_records(cells, records)


def run_spec(benchmarks: Optional[Sequence[str]] = None,
             defenses: Optional[Sequence[DefenseKind]] = None,
             target_instructions: int = 4000,
             warm_runs: int = 1) -> List[ExperimentRow]:
    """Run SPEC-like workloads under the baseline plus ``defenses``.

    MTE-enabled defenses run the MTE-instrumented build of each benchmark
    (the toolchain analogue of §5.2); everything else runs the plain build.
    Normalization is always against the plain build on the unsafe baseline.
    """
    return _run_cells("spec", benchmarks or spec_names(),
                      defenses or FIG6_DEFENSES,
                      target_instructions=target_instructions,
                      warm_runs=warm_runs)


def run_parsec(benchmarks: Optional[Sequence[str]] = None,
               defenses: Optional[Sequence[DefenseKind]] = None,
               num_threads: int = 4,
               target_instructions: int = 1500,
               warm_runs: int = 1) -> List[ExperimentRow]:
    """Run PARSEC-like workloads, one thread per core (Figure 7)."""
    return _run_cells("parsec", benchmarks or parsec_names(),
                      defenses or FIG6_DEFENSES, num_threads=num_threads,
                      target_instructions=target_instructions,
                      warm_runs=warm_runs)


# ----------------------------------------------------------------------
# per-figure entry points
# ----------------------------------------------------------------------

def figure6(**kwargs) -> List[ExperimentRow]:
    """SPEC CPU2017 normalized execution time (Figure 6)."""
    return run_spec(defenses=FIG6_DEFENSES, **kwargs)


def figure7(**kwargs) -> List[ExperimentRow]:
    """PARSEC normalized execution time on 4 cores (Figure 7)."""
    return run_parsec(defenses=FIG6_DEFENSES, **kwargs)


def figure8(spec_kwargs: Optional[dict] = None,
            parsec_kwargs: Optional[dict] = None) -> Dict[str, List[ExperimentRow]]:
    """% restricted speculative instructions, SPEC and PARSEC (Figure 8)."""
    return {
        "spec": run_spec(defenses=FIG8_DEFENSES, **(spec_kwargs or {})),
        "parsec": run_parsec(defenses=FIG8_DEFENSES, **(parsec_kwargs or {})),
    }


def figure9(**kwargs) -> List[ExperimentRow]:
    """SpecCFI vs SpecASan vs SpecASan+CFI on SPEC (Figure 9)."""
    return run_spec(defenses=FIG9_DEFENSES, **kwargs)


def table1(attacks: Optional[List[str]] = None) -> Dict[str, Dict[DefenseKind, MatrixCell]]:
    """The security matrix (Table 1)."""
    return evaluate_matrix(attacks=attacks)


def table1_differential(attacks: Optional[List[str]] = None):
    """Table 1 twice — statically (spec-lint) and dynamically — plus the diff.

    Returns ``(static, dynamic, mismatches)``; an empty mismatch list means
    the analyzer reproduces every simulated cell.  See
    :mod:`repro.analysis.differential` and ``python -m repro.analysis
    --differential`` for the lint-style report.
    """
    from repro.analysis.differential import compare_matrices, static_matrix

    static = static_matrix(attacks)
    dynamic = evaluate_matrix(attacks=attacks)
    return static, dynamic, compare_matrices(static, dynamic)


@dataclass
class Figure1Row:
    """One defense class's behaviour on the Spectre-v1 gadget (Figure 1)."""

    defense: DefenseKind
    delay_class: str
    leaked: bool
    cycles: int
    access_happened: bool
    transmit_happened: bool


#: Which Figure-1 delay class each mechanism belongs to.
DELAY_CLASSES = {
    DefenseKind.NONE: "no defense",
    DefenseKind.FENCE: "delay ACCESS",
    DefenseKind.STT: "delay USE",
    DefenseKind.GHOSTMINION: "delay TRANSMIT",
    DefenseKind.SPECASAN: "selective delay (SpecASan)",
}


def figure1() -> List[Figure1Row]:
    """Reproduce Figure 1: where each defense class stops the v1 gadget.

    ``access_happened`` — the speculative secret read returned data;
    ``transmit_happened`` — a secret-dependent address reached the memory
    subsystem.  The unsafe baseline exhibits both; delay-ACCESS and SpecASan
    stop the first; delay-USE/TRANSMIT allow the access but block the leak.
    """
    rows: List[Figure1Row] = []
    for defense, delay_class in DELAY_CLASSES.items():
        attack = spectre_v1.build()
        outcome = run_attack_program(attack, defense)
        system = build_system(CORTEX_A76.with_defense(defense))
        core = system.prepare(attack.builder_program)
        core.secret_ranges = [(attack.secret_address,
                               attack.secret_address + attack.secret_size)]
        core.run(max_cycles=attack.max_cycles)
        access = any(e["kind"] == "secret-access" and e.get("speculative")
                     for e in core.leak_log)
        transmit = any(e["kind"] == "cache-transmit" for e in core.leak_log)
        rows.append(Figure1Row(defense, delay_class, outcome.leaked,
                               outcome.cycles, access, transmit))
    return rows


def figure5_trace() -> List[tuple]:
    """The TSH event trace of SpecASan blocking Spectre-v1 (Figure 5)."""
    attack = spectre_v1.build()
    system = build_system(CORTEX_A76.with_defense(DefenseKind.SPECASAN))
    core = system.prepare(attack.builder_program)
    core.secret_ranges = [(attack.secret_address,
                           attack.secret_address + attack.secret_size)]
    core.run(max_cycles=attack.max_cycles)
    return list(core.policy.tsh.trace)


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------

#: Marker rendered for a (benchmark, defense) cell with no surviving result.
MISSING_CELL = "MISSING"


def render_rows(rows: List[ExperimentRow], metric: str = "normalized", *,
                benchmarks: Optional[Sequence[str]] = None,
                defenses: Optional[Sequence[DefenseKind]] = None) -> str:
    """Format experiment rows as the paper's bar-chart data.

    ``metric`` is ``"normalized"`` (Figures 6/7/9) or ``"restricted"``
    (Figure 8).

    ``benchmarks``/``defenses`` optionally pin the *expected* grid: combos
    with no row (a campaign cell that exhausted its retries) render as an
    explicit :data:`MISSING_CELL` marker instead of raising, and the
    geomean/average line aggregates only the cells that exist (flagged with
    ``*`` when incomplete).  By default the grid is inferred from ``rows``
    themselves, which reproduces the strict historical behaviour for
    complete sweeps.
    """
    inferred_defenses: List[DefenseKind] = []
    inferred_benchmarks: List[str] = []
    for row in rows:
        if row.defense not in inferred_defenses:
            inferred_defenses.append(row.defense)
        if row.benchmark not in inferred_benchmarks:
            inferred_benchmarks.append(row.benchmark)
    defenses = list(defenses) if defenses is not None else inferred_defenses
    benchmarks = (list(benchmarks) if benchmarks is not None
                  else inferred_benchmarks)
    header = f"{'benchmark':18s}" + "".join(
        f"{d.value:>14s}" for d in defenses)
    lines = [header, "-" * len(header)]
    by_key = {(r.benchmark, r.defense): r for r in rows}
    columns: Dict[DefenseKind, List[float]] = {d: [] for d in defenses}
    incomplete = {d: False for d in defenses}
    for bench in benchmarks:
        cells = []
        for defense in defenses:
            row = by_key.get((bench, defense))
            if row is None:
                incomplete[defense] = True
                cells.append(f"{MISSING_CELL:>14s}")
                continue
            value = (row.normalized_time if metric == "normalized"
                     else row.restricted_pct)
            columns[defense].append(value)
            cells.append(f"{value:14.3f}")
        lines.append(f"{bench:18s}" + "".join(cells))
    summary = []
    for defense in defenses:
        values = columns[defense]
        if not values:
            summary.append(f"{MISSING_CELL:>14s}")
            continue
        if metric == "normalized":
            text = f"{geomean(values):.3f}"
        else:
            text = f"{sum(values) / len(values):.2f}"
        if incomplete[defense]:
            text += "*"
        summary.append(f"{text:>14s}")
    label = "geomean" if metric == "normalized" else "average"
    lines.append(f"{label:18s}" + "".join(summary))
    if any(incomplete.values()):
        lines.append("(* aggregate over available cells only; "
                     f"{MISSING_CELL} = cell exhausted its retries)")
    return "\n".join(lines)


# -- repair overhead (the spec-repair pipeline's performance half) ------------


@dataclass
class RepairRow:
    """One repaired-witness measurement under the target defense."""

    subject: str
    defense: DefenseKind
    fixes: tuple
    baseline_cycles: int
    repaired_cycles: int
    #: Static re-lint: nothing leaks under the target defense anymore.
    verified: bool
    #: Simulator re-run: the witness leak is gone.
    dynamic_blocked: bool

    @property
    def overhead(self) -> float:
        return normalized(self.repaired_cycles, self.baseline_cycles) - 1.0


def repair_overhead(subjects: Optional[Sequence[str]] = None,
                    defense: DefenseKind = DefenseKind.SPECASAN,
                    config: Optional[SystemConfig] = None) -> List[RepairRow]:
    """Repair each witness subject and measure the cycle cost of its fixes.

    ``subjects`` are witness names (``pht/same-key``); the default is every
    residual (repair-needing) variant.  Each row carries both verification
    verdicts — the static flip and the simulator confirmation — plus the
    repaired-over-baseline cycle overhead under ``defense``.
    """
    from repro.analysis import repair as repair_mod
    from repro.analysis.witness import (
        secret_ranges_of, synthesize, variant_name, witness_kind,
        WITNESS_KINDS)

    subjects = list(subjects) if subjects else [
        f"{kind.value}/{variant_name(kind, True)}" for kind in WITNESS_KINDS]
    rows: List[RepairRow] = []
    for subject in subjects:
        kind_name, _, variant = subject.partition("/")
        kind = witness_kind(kind_name)
        residual = variant != variant_name(kind, residual=False)
        witness = synthesize(kind, residual=residual)
        result = repair_mod.plan(witness.attack.builder_program,
                                 secret_ranges_of(witness.attack),
                                 defense=defense)
        registry = repair_mod.measure_overhead(result, subject=witness.subject,
                                               config=config)
        prefix = f"repair.{witness.subject.replace('/', '-')}"
        baseline = int(registry.get(f"{prefix}.baseline_cycles").value)
        repaired = (int(registry.get(f"{prefix}.repaired_cycles").value)
                    if result.fixes else baseline)
        after = run_attack_program(
            replace(witness.attack, builder_program=result.repaired),
            defense, config)
        rows.append(RepairRow(
            subject=witness.subject, defense=defense,
            fixes=tuple(fix.kind.value for fix in result.fixes),
            baseline_cycles=baseline, repaired_cycles=repaired,
            verified=result.verified, dynamic_blocked=not after.leaked))
    return rows


def render_repair_rows(rows: List[RepairRow]) -> str:
    """The per-fix overhead table of the repair pipeline."""
    header = (f"{'subject':16s}{'fixes':20s}{'baseline':>10s}"
              f"{'repaired':>10s}{'overhead':>10s}{'static':>12s}"
              f"{'simulator':>11s}")
    lines = [header, "-" * len(header)]
    for row in rows:
        fixes = "+".join(row.fixes) if row.fixes else "(none)"
        static = "sanitized" if row.verified else "LEAKS"
        dynamic = "blocked" if row.dynamic_blocked else "LEAKS"
        lines.append(
            f"{row.subject:16s}{fixes:20s}{row.baseline_cycles:>10d}"
            f"{row.repaired_cycles:>10d}{row.overhead:>9.1%}"
            f"{static:>12s}{dynamic:>11s}")
    return "\n".join(lines)


def render_figure1(rows: List[Figure1Row]) -> str:
    header = (f"{'defense':14s}{'class':28s}{'ACCESS ran':>12s}"
              f"{'TRANSMIT ran':>14s}{'leaked':>8s}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.defense.value:14s}{row.delay_class:28s}"
            f"{str(row.access_happened):>12s}{str(row.transmit_happened):>14s}"
            f"{str(row.leaked):>8s}")
    return "\n".join(lines)


__all__ = [
    "DELAY_CLASSES",
    "ExperimentRow",
    "FIG6_DEFENSES",
    "FIG8_DEFENSES",
    "FIG9_DEFENSES",
    "figure1",
    "Figure1Row",
    "figure5_trace",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "MISSING_CELL",
    "render_figure1",
    "render_matrix",
    "render_repair_rows",
    "render_rows",
    "repair_overhead",
    "RepairRow",
    "run_parsec",
    "run_spec",
    "table1",
    "table1_differential",
]
