"""Campaign worker: runs exactly one cell, in its own process.

The scheduler launches ``python -m repro.campaign.worker --spec … --out …
--heartbeat …`` so that a crash, OOM kill, or runaway loop takes down *one
cell's attempt*, never the campaign.  The contract with the scheduler:

- heartbeat file updated from inside the simulation loop (simulated-cycle
  progress, see :mod:`repro.campaign.heartbeat`);
- outcome written to ``--out`` atomically, then exit code 0 (measured ok),
  ``3`` (typed :class:`~repro.errors.ReproError` — retryable), or ``1``
  (unexpected exception — a harness bug, not retried silently).

:func:`run_cell` is the process-agnostic core, also used in-process by
tests.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import List, Optional

from repro.campaign.cells import CellSpec, system_config
from repro.campaign.heartbeat import Heartbeat
from repro.checkpoint import (CheckpointHook, CheckpointManager,
                              CheckpointStats, config_fingerprint,
                              program_fingerprint, read_checkpoint,
                              write_checkpoint)
from repro.config import DefenseKind
from repro.errors import CheckpointError, ReproError
from repro.store import atomic_write
from repro.system import build_system
from repro.workloads import build_parsec, SPEC_BY_NAME
from repro.workloads.generator import generate

#: Worker exit code for a typed, retryable simulation failure.
EXIT_TYPED_FAILURE = 3


@dataclass
class CheckpointPlan:
    """Scheduler-provided checkpointing knobs for one cell.

    ``stem`` is *attempt-independent* (no ``.a<N>`` suffix), so a retried
    attempt finds the generations its predecessor wrote and resumes
    mid-cell instead of restarting from cycle 0.  ``warm_dir`` is the
    campaign-wide directory holding shared warm-state checkpoints; empty
    disables warm sharing.  The default plan (both empty/zero) reproduces
    the pre-checkpoint worker behavior exactly.
    """

    stem: str = ""
    interval: int = 0
    keep: int = 2
    warm_dir: str = ""

    @property
    def periodic(self) -> bool:
        """Per-cell generation checkpoints enabled?"""
        return bool(self.stem) and self.interval > 0

    @property
    def share_warm(self) -> bool:
        return bool(self.warm_dir)

    @property
    def active(self) -> bool:
        return self.periodic or self.share_warm


def _degradation(stage: str, err: CheckpointError) -> dict:
    """One graceful-degradation record for the row payload / report.json."""
    return {"stage": stage, "kind": err.kind,
            "path": os.path.basename(err.path) if err.path else "",
            "error": str(err)}


def _clear_generations(manager: CheckpointManager) -> None:
    """Drop every generation (all unusable: corrupt, or config-skewed
    after a reseeding retry) so the fresh attempt starts a clean lineage."""
    for generation in manager.generations():
        try:
            os.unlink(manager.path_for(generation))
        except OSError:
            pass


def _resume(manager: Optional[CheckpointManager], system, programs,
            degradations: List[dict]):
    """Restore the newest valid per-cell generation, if one exists.

    Returns ``(result, dirty)``: the
    :class:`~repro.checkpoint.manager.RestoreResult` or None (fresh
    start), and whether the failed walk may have left ``system`` partially
    loaded (the caller rebuilds it then).  Generations rejected on the
    walk become ``resume`` degradation records; ``config-skew`` is silent
    because it is the *expected* outcome of finding a previous reseed's
    checkpoints after a typed failure bumped the MTE seed.  Corruption
    never propagates: the worst case is warming and running from cycle 0.
    """
    if manager is None:
        return None, False
    try:
        result = manager.restore(system, programs)
    except CheckpointError as err:
        if err.kind == "missing":
            return None, False
        if err.kind != "config-skew":
            degradations.append(_degradation("resume", err))
        _clear_generations(manager)
        return None, True
    for rejected in result.rejected:
        degradations.append(_degradation("resume", rejected))
    return result, False


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
    config = system_config(cell, reseed)
    stats = CheckpointStats() if plan.active else None
    manager = (CheckpointManager(plan.stem, keep=plan.keep, stats=stats)
               if plan.periodic else None)
    degradations: List[dict] = []

    def fresh_system():
        system = build_system(config)
        system.heartbeat = heartbeat
        system.checkpoint_stats = stats
        return system

    system = fresh_system()
    t_mark = time.monotonic()
    resumed, dirty = _resume(manager, system, programs, degradations)
    restore_ms = (time.monotonic() - t_mark) * 1000.0
    if dirty:
        system = fresh_system()
    origin = "checkpoint"
    t_mark = time.monotonic()
    if resumed is None:
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
    if manager is not None:
        system.checkpoint_hook = CheckpointHook(manager, system, programs,
                                                interval=plan.interval)
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
                   restore_ms=round(restore_ms, 3),
                   warm_ms=round(warm_ms, 3), run_ms=round(run_ms, 3))
    if plan.active:
        row["warm"] = origin
        row["degradations"] = degradations
        if resumed is not None:
            row["resumed_cycle"] = resumed.cycle
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

    ``checkpointing`` (default: fully disabled) controls mid-cell
    generation checkpoints and shared warm-state reuse; repair cells have
    no long simulation loop of the right shape and ignore it.

    ``timings`` is an optional out-dict collecting wall-clock phase
    durations (``generate_ms`` / ``warm_ms`` / ``run_ms`` /
    ``restore_ms``, repair: ``synthesize_ms`` / ``plan_ms`` /
    ``measure_ms``).  They ride the outcome *envelope*, never the row —
    row payloads stay deterministic, the property resume byte-identity
    is built on.
    """
    plan = checkpointing if checkpointing is not None else CheckpointPlan()
    phases = timings if timings is not None else {}
    if cell.kind == "repair":
        return _run_repair_cell(cell, reseed, heartbeat, phases)
    return _run_simulation_cell(cell, reseed, heartbeat, plan, phases)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign.worker",
        description="Run one campaign cell (scheduler-internal).")
    parser.add_argument("--spec", required=True,
                        help="path to the CellSpec JSON")
    parser.add_argument("--out", required=True,
                        help="where to write the outcome JSON (atomic)")
    parser.add_argument("--heartbeat", required=True,
                        help="heartbeat file pulsed from the run loop")
    parser.add_argument("--attempt", type=int, default=0)
    parser.add_argument("--reseed", type=int, default=0)
    parser.add_argument("--heartbeat-cycles", type=int, default=2000)
    parser.add_argument("--checkpoint-stem", default="",
                        help="attempt-independent per-cell checkpoint stem")
    parser.add_argument("--checkpoint-interval", type=int, default=0,
                        help="simulated cycles between generations "
                             "(0 disables)")
    parser.add_argument("--checkpoint-keep", type=int, default=2)
    parser.add_argument("--warm-dir", default="",
                        help="shared warm-checkpoint directory "
                             "(empty disables warm sharing)")
    parser.add_argument("--trace-id", default="",
                        help="campaign-minted trace ID echoed in the "
                             "outcome (cell-scoped span correlation)")
    args = parser.parse_args(argv)

    with open(args.spec, encoding="utf-8") as handle:
        cell = CellSpec.from_dict(json.load(handle))
    heartbeat = Heartbeat(args.heartbeat, interval=args.heartbeat_cycles)
    heartbeat.beat(0)  # prove liveness before the (long) first interval
    plan = CheckpointPlan(stem=args.checkpoint_stem,
                          interval=args.checkpoint_interval,
                          keep=args.checkpoint_keep,
                          warm_dir=args.warm_dir)

    base = {"cell_id": cell.cell_id, "attempt": args.attempt,
            "reseed": args.reseed}
    if args.trace_id:
        base["trace"] = args.trace_id
    timings: dict = {}
    try:
        row = run_cell(cell, reseed=args.reseed, heartbeat=heartbeat,
                       checkpointing=plan, timings=timings)
    except ReproError as exc:
        atomic_write(args.out, json.dumps({
            **base, "status": "failed",
            "error_type": type(exc).__name__, "error": str(exc)}))
        return EXIT_TYPED_FAILURE
    except Exception as exc:  # harness bug: report, don't mask as retryable
        atomic_write(args.out, json.dumps({
            **base, "status": "crashed",
            "error_type": type(exc).__name__, "error": str(exc),
            "traceback": traceback.format_exc()}))
        return 1
    atomic_write(args.out, json.dumps(
        {**base, "status": "ok", "row": row, "timings": timings}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
