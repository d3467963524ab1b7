"""Service worker: runs exactly one lint job, in its own process.

The supervisor forks a template per job attempt
(:func:`repro.campaign.pool.fork`) and the fork calls the pool's work
function, :func:`repro.service.supervisor.lint_job`, which runs
:func:`run_job`, so a poison program — one that crashes, wedges, or OOMs
the analyzer or simulator — takes down *one request's attempt*, never the
service.  The heartbeat is pulsed at every job stage (and from inside the
simulation loop during dynamic confirmation, via the ``core.heartbeat``
hook); the pool writes the outcome file from what the work function
returns or raises (a :class:`~repro.errors.ReproError`, e.g. a submitted
program that does not assemble, is a typed failure).

:func:`run_job` is the process-agnostic core, also used in-process by
tests.  Chaos modes (``die`` / ``hang``) are honoured only when the pool
allows them (``ServiceConfig.allow_chaos``) — the fault-injection lever of
the CI smoke drill, dead code in production.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Optional

from repro.analysis.cfg import build_cfg
from repro.analysis.gadgets import find_gadgets, leaks_under
from repro.analysis.modular import SummaryCache, modular_analysis
from repro.analysis.options import AnalysisOptions
from repro.campaign.heartbeat import Heartbeat
from repro.config import CORTEX_A76, DefenseKind
from repro.isa.assembler import assemble


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
