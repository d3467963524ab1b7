"""Campaign worker: runs exactly one cell, in its own process.

The scheduler forks itself per cell attempt (:func:`repro.campaign.pool.fork`)
and the fork calls :func:`measure_cell`, so that a crash, OOM kill, or
runaway loop takes down *one cell's attempt*, never the campaign.  The
cell pulses its heartbeat from inside the simulation loop
(simulated-cycle progress, see :mod:`repro.campaign.heartbeat`); the pool
writes the outcome file from what :func:`measure_cell` returns or raises
(a :class:`~repro.errors.ReproError` is a typed, retryable failure).

:func:`run_cell` is the process-agnostic core, also used in-process by
tests and by the figure renderers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.campaign.cells import CellSpec, system_config
from repro.campaign.heartbeat import Heartbeat
# benchmarks/perf/seams.py times generate, read_checkpoint and
# write_checkpoint by patching these module-level names.
from repro.checkpoint import (CheckpointStats, config_fingerprint,
                              program_fingerprint, read_checkpoint,
                              write_checkpoint)
from repro.config import DefenseKind
from repro.errors import CheckpointError, ReproError
from repro.system import build_system
from repro.workloads import build_parsec, SPEC_BY_NAME
from repro.workloads.generator import generate


@dataclass
class CheckpointPlan:
    """Scheduler-provided warm-sharing knob for one cell.

    ``warm_dir`` is the campaign-wide directory holding shared warm-state
    checkpoints; empty (the default) disables warm sharing, and every cell
    then warms its own hierarchy.
    """

    # stem, interval and keep are read by nothing here;
    # benchmarks/perf/work.py::_replay passes them.
    stem: str = ""
    interval: int = 0
    keep: int = 2
    warm_dir: str = ""

    @property
    def share_warm(self) -> bool:
        return bool(self.warm_dir)


def _degradation(stage: str, err: CheckpointError) -> dict:
    """One graceful-degradation record for the row payload / report.json."""
    return {"stage": stage, "kind": err.kind,
            "path": os.path.basename(err.path) if err.path else "",
            "error": str(err)}


def _shared_warm_state(cell: CellSpec, reseed: int, programs,
                       plan: CheckpointPlan,
                       stats: Optional[CheckpointStats],
                       degradations: List[dict],
                       heartbeat: Optional[Heartbeat]):
    """The warm hierarchy state for this cell's warm group.

    Every defense cell of one (workload, seed) group shares a single
    warm-state checkpoint, keyed by the *canonical* warm config (the
    cell's config with the defense forced to ``none`` — warming measures
    nothing, so the group warms once under the baseline) plus the program
    fingerprint.  The first member to arrive produces the file; the rest
    fan out from the identical hierarchy state.  A member that finds the
    file corrupt re-warms locally — recording the degradation, never
    failing the cell — and its atomic rewrite heals the file for the rest
    of the group.  Returns ``(hierarchy state dict, origin label)``.
    """
    warm_cell = dataclasses.replace(cell, defense=DefenseKind.NONE.value)
    warm_fp = config_fingerprint(system_config(warm_cell, reseed))
    prog_fp = program_fingerprint(programs)
    key = hashlib.sha256(
        f"{warm_fp}:{prog_fp}:{cell.warm_runs}".encode("utf-8")
    ).hexdigest()[:12]
    path = os.path.join(plan.warm_dir, f"warm.{key}.ckpt")
    try:
        _, sections = read_checkpoint(path, expect_config=warm_fp,
                                      expect_program=prog_fp)
        if "hierarchy" not in sections:
            raise CheckpointError("warm checkpoint lacks a hierarchy "
                                  "section", path=path,
                                  kind="section-corrupt")
        if stats is not None:
            stats.restores += 1
        return sections["hierarchy"], "shared"
    except CheckpointError as err:
        if err.kind != "missing":
            degradations.append(_degradation("warm", err))
            if stats is not None:
                stats.corrupt_rejected += 1
    # The producer warms a fresh baseline system, beating the cell's
    # heartbeat as a local warm-up does.
    warm_system = build_system(system_config(warm_cell, reseed))
    warm_system.heartbeat = heartbeat
    cycle = warm_system.run(programs, warm_runs=cell.warm_runs - 1).cycles
    warm_system.hierarchy.quiesce()
    state = warm_system.hierarchy.state_dict()
    nbytes = write_checkpoint(path, {"hierarchy": state},
                              config_hash=warm_fp, program_hash=prog_fp,
                              cycle=cycle)
    if stats is not None:
        stats.saves += 1
        stats.bytes += nbytes
        stats.save_cycles = cycle
    return state, "produced"


def _cell_programs(cell: CellSpec):
    """The cell's workload: one SPEC program, or one program per PARSEC
    thread.  MTE-enabled defenses run the MTE-instrumented build."""
    instrumented = cell.defense_kind.uses_specasan
    if cell.kind == "spec":
        return generate(SPEC_BY_NAME[cell.benchmark], seed=cell.seed,
                        target_instructions=cell.target_instructions,
                        mte_instrumented=instrumented).program
    return [workload.program for workload in build_parsec(
        cell.benchmark, num_threads=cell.num_threads, seed=cell.seed,
        target_instructions=cell.target_instructions,
        mte_instrumented=instrumented)]


def _run_simulation_cell(cell: CellSpec, reseed: int,
                         heartbeat: Optional[Heartbeat],
                         plan: CheckpointPlan, timings: dict) -> dict:
    """Measure a SPEC or PARSEC cell: warm up, run, and dump the stats."""
    t_mark = time.monotonic()
    programs = _cell_programs(cell)
    generate_ms = (time.monotonic() - t_mark) * 1000.0
    stats = CheckpointStats() if plan.share_warm else None
    degradations: List[dict] = []
    system = build_system(system_config(cell, reseed))
    system.heartbeat = heartbeat
    system.checkpoint_stats = stats
    t_mark = time.monotonic()
    if plan.share_warm and cell.warm_runs > 0:
        system.prepare(programs)
        warm_state, origin = _shared_warm_state(
            cell, reseed, programs, plan, stats, degradations, heartbeat)
        system.hierarchy.load_state_dict(warm_state)
    else:
        for _ in range(cell.warm_runs):
            system.prepare(programs)
            system.run_prepared()
        system.prepare(programs)
        origin = "local" if cell.warm_runs else "cold"
    warm_ms = (time.monotonic() - t_mark) * 1000.0
    t_mark = time.monotonic()
    system.run_prepared()
    run_ms = (time.monotonic() - t_mark) * 1000.0
    result = system.result()
    if result.fault is not None:
        raise ReproError(
            f"{cell.benchmark} faulted under {cell.defense}: {result.fault}")
    row = {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "restricted_fraction": result.restricted_fraction,
        "ipc": result.ipc,
        "halted": result.halted,
        "stats": system.stats_registry().dump(),
    }
    timings.update(generate_ms=round(generate_ms, 3),
                   warm_ms=round(warm_ms, 3), run_ms=round(run_ms, 3))
    if plan.share_warm:
        row["warm"] = origin
        row["degradations"] = degradations
    return row


def _run_repair_cell(cell: CellSpec, reseed: int,
                     heartbeat: Optional[Heartbeat],
                     timings: dict) -> dict:
    """Synthesize the witness, repair it, and measure per-fix overhead.

    ``cell.benchmark`` is a witness subject (``pht/same-key``); the cell
    is self-normalizing — the payload carries both the unrepaired and the
    repaired cycle counts, so no separate baseline cell exists.
    """
    from repro.analysis import repair as repair_mod
    from repro.analysis.witness import (secret_ranges_of, synthesize,
                                        variant_name, witness_kind)
    from repro.attacks.common import run_attack_program
    from dataclasses import replace as dc_replace

    kind_name, _, variant = cell.benchmark.partition("/")
    kind = witness_kind(kind_name)
    residual = variant != variant_name(kind, residual=False)
    t_mark = time.monotonic()
    witness = synthesize(kind, residual=residual)
    synthesize_ms = (time.monotonic() - t_mark) * 1000.0
    if heartbeat is not None:
        heartbeat.beat(1)
    config = system_config(cell, reseed)
    t_mark = time.monotonic()
    result = repair_mod.plan(witness.attack.builder_program,
                             secret_ranges_of(witness.attack),
                             defense=cell.defense_kind)
    plan_ms = (time.monotonic() - t_mark) * 1000.0
    if heartbeat is not None:
        heartbeat.beat(2)
    t_mark = time.monotonic()
    registry = repair_mod.measure_overhead(result, subject=witness.subject,
                                           config=config)
    after = run_attack_program(
        dc_replace(witness.attack, builder_program=result.repaired),
        cell.defense_kind, config)
    measure_ms = (time.monotonic() - t_mark) * 1000.0
    if after.leaked:
        raise ReproError(
            f"{cell.benchmark} still leaks under {cell.defense} "
            f"after repair (fixes: {[f.kind.value for f in result.fixes]})")
    prefix = f"repair.{witness.subject.replace('/', '-')}"
    baseline = int(registry.get(f"{prefix}.baseline_cycles").value)
    repaired = (int(registry.get(f"{prefix}.repaired_cycles").value)
                if result.fixes else baseline)
    timings.update(synthesize_ms=round(synthesize_ms, 3),
                   plan_ms=round(plan_ms, 3),
                   measure_ms=round(measure_ms, 3))
    return {
        "cycles": repaired,
        "baseline_cycles": baseline,
        "instructions": 0,
        "restricted_fraction": 0.0,
        "ipc": 0.0,
        "halted": not after.faulted,
        "verified": result.verified,
        "fixes": [fix.kind.value for fix in result.fixes],
        "stats": registry.dump(),
    }


def run_cell(cell: CellSpec, reseed: int = 0,
             heartbeat: Optional[Heartbeat] = None,
             checkpointing: Optional[CheckpointPlan] = None,
             timings: Optional[dict] = None) -> dict:
    """Measure one cell; returns the row payload or raises ReproError.

    ``checkpointing`` (default: disabled) controls shared warm-state
    reuse; repair cells do not warm up and ignore it.  The parameter order
    stays as it is because ``benchmarks/perf/work.py::_replay`` passes the
    plan positionally.

    ``timings`` is an optional out-dict collecting wall-clock phase
    durations (``generate_ms`` / ``warm_ms`` / ``run_ms``, repair:
    ``synthesize_ms`` / ``plan_ms`` / ``measure_ms``).  They ride the
    outcome *envelope*, never the row — row payloads stay deterministic,
    the property resume byte-identity is built on.
    """
    plan = checkpointing if checkpointing is not None else CheckpointPlan()
    phases = timings if timings is not None else {}
    if cell.kind == "repair":
        return _run_repair_cell(cell, reseed, heartbeat, phases)
    return _run_simulation_cell(cell, reseed, heartbeat, plan, phases)


def measure_cell(job: Tuple[CellSpec, int, str],
                 heartbeat: Heartbeat) -> dict:
    """The scheduler's work function: ``job`` is ``(cell, reseed,
    warm_dir)``; returns the row and, beside it, the phase timings."""
    cell, reseed, warm_dir = job
    timings: dict = {}
    row = run_cell(cell, reseed, heartbeat,
                   CheckpointPlan(warm_dir=warm_dir), timings)
    return {"row": row, "timings": timings}
