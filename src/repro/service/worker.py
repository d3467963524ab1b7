"""Service worker: runs exactly one lint job, in its own process.

The supervisor launches ``python -m repro.service.worker --spec … --out …
--heartbeat …`` so a poison program — one that crashes, wedges, or OOMs
the analyzer or simulator — takes down *one request's attempt*, never the
service.  The contract is the campaign worker's, byte for byte:

- heartbeat pulsed at every job stage (and from inside the simulation
  loop during dynamic confirmation, via the ``core.heartbeat`` hook);
- outcome written to ``--out`` atomically, then exit 0 (ok),
  :data:`~repro.campaign.pool.EXIT_TYPED_FAILURE` (typed
  :class:`~repro.errors.ReproError` — e.g. the submitted program does not
  assemble), or 1 (unexpected exception).

:func:`run_job` is the process-agnostic core, also used in-process by
tests.  Chaos modes (``die`` / ``hang``) are honoured only when the
supervisor passes ``--allow-chaos`` — the fault-injection lever of the CI
smoke drill, dead code in production.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import traceback
from typing import List, Optional

from repro.analysis.cfg import build_cfg
from repro.analysis.gadgets import find_gadgets, leaks_under
from repro.analysis.modular import SummaryCache, modular_analysis
from repro.analysis.options import AnalysisOptions
from repro.campaign.heartbeat import Heartbeat
from repro.campaign.pool import EXIT_TYPED_FAILURE
from repro.config import CORTEX_A76, DefenseKind
from repro.errors import ReproError
from repro.isa.assembler import assemble
from repro.store import atomic_write


def _chaos(mode: str) -> None:
    """Injected worker faults for the smoke drill (supervisor-gated)."""
    if mode == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "hang":
        while True:         # never heartbeats: the stall reaper's target
            time.sleep(1)


def _subject_program(job: dict):
    """(program, secret ranges, attack-or-None) for the job's subject."""
    witness_subject = job.get("witness", "")
    if witness_subject:
        from repro.analysis.witness import (secret_ranges_of, synthesize,
                                            variant_name, witness_kind)
        kind_name, _, variant = witness_subject.partition("/")
        kind = witness_kind(kind_name)
        residual = variant != variant_name(kind, residual=False)
        witness = synthesize(kind, residual=residual)
        return (witness.attack.builder_program,
                list(secret_ranges_of(witness.attack)), witness.attack)
    program = assemble(job["source"])
    ranges = [tuple(r) for r in job.get("secret_ranges", [])]
    return program, ranges, None


def _dynamic_confirm(program, attack, defense: DefenseKind,
                     max_cycles: Optional[int],
                     heartbeat: Optional[Heartbeat]) -> dict:
    """Execute the subject under ``defense`` on the cycle-level simulator.

    Witness subjects carry full attack metadata, so the §4.3 leak decision
    applies verbatim; raw ``.s`` submissions are executed for behavioural
    evidence (cycles, faults, secret-dependent speculative activity from
    the core's leak log).
    """
    if attack is not None:
        from dataclasses import replace as dc_replace

        from repro.attacks.common import run_attack_program
        config = CORTEX_A76.with_defense(defense)
        if max_cycles is not None:
            attack = dc_replace(attack,
                                max_cycles=min(attack.max_cycles, max_cycles))
        outcome = run_attack_program(attack, defense, config)
        return {"kind": "attack", "defense": defense.value,
                "leaked": outcome.leaked,
                "recovered": list(outcome.recovered),
                "cycles": outcome.cycles, "faulted": outcome.faulted,
                "restricted": outcome.restricted}

    from dataclasses import replace

    from repro.system import build_system
    config = CORTEX_A76.with_defense(defense)
    if max_cycles is not None:
        config = replace(config,
                         core=replace(config.core, max_cycles=max_cycles))
    system = build_system(config)
    core = system.prepare(program)
    core.heartbeat = heartbeat
    core.run()
    result = system.result()
    return {"kind": "execution", "defense": defense.value,
            "cycles": result.cycles, "instructions": result.instructions,
            "halted": result.halted,
            "faulted": result.fault is not None,
            "fault": str(result.fault) if result.fault is not None else "",
            "leak_events": len(result.leak_log)}


def run_job(job: dict, heartbeat: Optional[Heartbeat] = None,
            allow_chaos: bool = False) -> dict:
    """Lint (and optionally dynamically confirm) one submitted program.

    Returns the row payload served to the client, or raises a typed
    :class:`~repro.errors.ReproError` (bad program, analysis failure).
    """
    if job.get("chaos") and allow_chaos:
        _chaos(job["chaos"])

    def beat(stage: int) -> None:
        if heartbeat is not None:
            heartbeat.beat(stage)

    beat(0)
    t_start = time.monotonic()
    program, secret_ranges, attack = _subject_program(job)
    beat(1)
    cfg = build_cfg(program)
    problems = cfg.check_well_formed()
    # Function-granular reuse beneath the server's whole-program verdict
    # cache: a job carrying ``summary_dir`` lints against the persistent
    # summary cache, so a resubmission that edited one function
    # re-analyzes only it and its transitive callers.  The cache is the
    # job's environment's own file, the only records it can hit.
    cache = (SummaryCache.for_program(job["summary_dir"], program,
                                      secret_ranges)
             if job.get("summary_dir") else None)
    options = AnalysisOptions(cache=cache)
    run = modular_analysis(program, secret_ranges, cfg=cfg, options=options)
    gadgets = find_gadgets(program, secret_ranges, taint=run.result,
                           options=options)
    summary: Optional[dict] = None
    if cache is not None:
        cache.flush()
        # Cache totals cover both taint passes (the MDS stale re-run
        # included); the worker process is fresh per job, so they are
        # exactly this job's traffic.
        summary = {"hits": cache.hits, "misses": cache.misses,
                   "reanalyzed": list(run.reanalyzed),
                   "cached_regions": len(cache)}
    beat(2)
    verdicts = {defense.value: any(leaks_under(g, defense) for g in gadgets)
                for defense in DefenseKind}
    analysis_ms = (time.monotonic() - t_start) * 1000.0
    row: dict = {
        "verdicts": verdicts,
        "gadgets": [{"kind": g.kind.value, "source": g.source,
                     "entry": g.entry,
                     "transmitters": list(g.transmitters),
                     "channels": [c.value for c in g.channels],
                     "sanitized": g.sanitized, "report": g.render()}
                    for g in gadgets],
        "gadget_count": len(gadgets),
        "sanitized": all(g.sanitized for g in gadgets),
        "cfg_problems": [f"{p.kind} @ {p.address:#x}" for p in problems],
    }
    if summary is not None:
        row["summary"] = summary
    confirm_ms = 0.0
    if job.get("confirm"):
        defense = DefenseKind(job.get("defense", "specasan"))
        t_confirm = time.monotonic()
        row["dynamic"] = _dynamic_confirm(program, attack, defense,
                                          job.get("max_cycles"), heartbeat)
        confirm_ms = (time.monotonic() - t_confirm) * 1000.0
    row["timings"] = {"analysis_ms": round(analysis_ms, 3),
                      "confirm_ms": round(confirm_ms, 3)}
    if job.get("trace"):
        row["trace"] = job["trace"]
    beat(3)
    return row


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.worker",
        description="Run one spec-lint service job (supervisor-internal).")
    parser.add_argument("--spec", required=True,
                        help="path to the job JSON")
    parser.add_argument("--out", required=True,
                        help="where to write the outcome JSON (atomic)")
    parser.add_argument("--heartbeat", required=True,
                        help="heartbeat file pulsed at each job stage")
    parser.add_argument("--heartbeat-cycles", type=int, default=2000)
    parser.add_argument("--allow-chaos", action="store_true",
                        help="honour chaos modes in the job spec "
                             "(smoke-drill fault injection)")
    args = parser.parse_args(argv)

    with open(args.spec, encoding="utf-8") as handle:
        job = json.load(handle)
    heartbeat = Heartbeat(args.heartbeat, interval=args.heartbeat_cycles)
    heartbeat.beat(0)   # prove liveness before any (possibly slow) stage

    try:
        row = run_job(job, heartbeat=heartbeat,
                      allow_chaos=args.allow_chaos)
    except ReproError as exc:
        atomic_write(args.out, json.dumps({
            "status": "failed",
            "error_type": type(exc).__name__, "error": str(exc)}))
        return EXIT_TYPED_FAILURE
    except Exception as exc:   # worker bug: report, don't mask as typed
        atomic_write(args.out, json.dumps({
            "status": "crashed",
            "error_type": type(exc).__name__, "error": str(exc),
            "traceback": traceback.format_exc()}))
        return 1
    atomic_write(args.out, json.dumps({"status": "ok", "row": row}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
