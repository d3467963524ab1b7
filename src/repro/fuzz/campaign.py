"""Scale-out: a pool of fuzzing shards under the shared worker machinery.

A fuzz campaign splits one budget across N worker processes, each a
``python -m repro.fuzz --worker`` invocation (forked from the campaign
process, which only schedules) running an independent,
*deterministically derived* slice: shard *i* fuzzes under
``derive_seed(root_seed, "fuzz", "shard", i)``, so the campaign's total
behavior is a pure function of the root seed and the shard count —
workers share nothing at runtime and their results merge exactly.

Supervision reuses :mod:`repro.campaign.pool` wholesale: forked launch,
heartbeat files pulsed from inside the executor loop, wall/stall liveness
reaping, sleeping on the shards' exit sentinels, atomic outcome JSON, and
the ``ok | failed | crashed`` exit contract.
A reaped or crashed shard is retried once under the *same* seed (its
work is deterministic, so a flaky-environment retry cannot change the
result it was going to produce); a shard that fails twice is recorded
and excluded from the merge rather than failing the campaign — partial
coverage is still coverage.

``--resume`` re-runs only the shards whose run directories are missing
or unloadable, then re-merges; finished shards are never re-fuzzed.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.campaign.heartbeat import Heartbeat
from repro.campaign.pool import fork, sleep_until_exit, WorkerProcess
from repro.errors import FuzzError
from repro.fuzz import corpus
from repro.fuzz.executor import FuzzConfig, FuzzExecutor
from repro.rng import derive_seed
from repro.store import atomic_write
from repro.telemetry.registry import StatsRegistry

MERGED_DIR = "merged"
CAMPAIGN_FILE = "campaign.json"

#: Per-shard supervision budgets (seconds).  Generous: a shard is pure
#: CPU work, and the heartbeat pulses every candidate.
WALL_TIMEOUT_S = 1800.0
STALL_TIMEOUT_S = 120.0


def shard_dir(root: str, index: int) -> str:
    return os.path.join(root, f"shard-{index:03d}")


def shard_config(config: FuzzConfig, shards: int, index: int) -> FuzzConfig:
    """Shard ``index``'s deterministic slice of ``config``."""
    per_shard = max(1, config.budget // shards)
    return replace(config,
                   seed=derive_seed(config.seed, "fuzz", "shard", index),
                   budget=per_shard,
                   repair_budget=max(1, config.repair_budget // shards))


@dataclass
class ShardOutcome:
    """One shard's terminal state as the campaign saw it."""

    index: int
    ok: bool
    attempts: int
    detail: str = ""


# -- worker side --------------------------------------------------------------


def run_worker(out_dir: str, config: FuzzConfig,
               heartbeat_path: str, outcome_path: str) -> int:
    """The ``--worker`` entry: one shard, heartbeats, atomic outcome."""
    heartbeat = Heartbeat(heartbeat_path, interval=1)
    try:
        executor = FuzzExecutor(config, StatsRegistry())
        result = executor.run(on_step=heartbeat.beat)
        corpus.save_run(out_dir, result)
        outcome = {"status": "ok", "executed": result.executed,
                   "frontier": result.coverage.frontier,
                   "disagreements": len(result.disagreements)}
    except Exception as err:  # the outcome file is the error channel
        outcome = {"status": "crashed", "error": str(err),
                   "error_type": type(err).__name__}
    atomic_write(outcome_path, json.dumps(outcome, sort_keys=True) + "\n")
    return 0 if outcome["status"] == "ok" else 1


# -- scheduler side -----------------------------------------------------------


def _launch_shard(root: str, config: FuzzConfig, shards: int,
                  index: int) -> WorkerProcess:
    directory = shard_dir(root, index)
    os.makedirs(directory, exist_ok=True)
    cfg = shard_config(config, shards, index)
    cfg_path = os.path.join(directory, "config.json")
    atomic_write(cfg_path, json.dumps(cfg.to_dict(), sort_keys=True) + "\n")
    argv = [sys.executable, "-m", "repro.fuzz", "--worker", cfg_path,
            "--out", directory]
    return fork(argv,
                out_path=os.path.join(directory, "outcome.json"),
                heartbeat_path=os.path.join(directory, "heartbeat"),
                log_path=os.path.join(directory, "worker.log"),
                timeout_s=WALL_TIMEOUT_S, stall_timeout_s=STALL_TIMEOUT_S)


def _shard_done(root: str, index: int) -> bool:
    """Is this shard's run directory complete and loadable?"""
    try:
        corpus.load_run(shard_dir(root, index))
        return True
    except FuzzError:
        return False


def run_campaign(root: str, config: FuzzConfig, shards: int,
                 resume: bool = False,
                 max_retries: int = 1) -> List[ShardOutcome]:
    """Fuzz ``shards`` deterministic slices and merge the survivors.

    Returns per-shard outcomes; the merged artifact lands in
    ``<root>/merged``.  Raises :class:`FuzzError` only for harness-level
    problems (an unusable campaign directory), never for shard failures.
    """
    if shards < 1:
        raise FuzzError(f"campaign needs at least one shard, got {shards}")
    os.makedirs(root, exist_ok=True)
    atomic_write(os.path.join(root, CAMPAIGN_FILE),
                 json.dumps({"schema": corpus.FUZZ_SCHEMA,
                             "config": config.to_dict(), "shards": shards},
                            sort_keys=True) + "\n")

    outcomes: Dict[int, ShardOutcome] = {}
    pending: List[int] = []
    for index in range(shards):
        if resume and _shard_done(root, index):
            outcomes[index] = ShardOutcome(index, ok=True, attempts=0,
                                           detail="resumed: already done")
        else:
            pending.append(index)

    attempts = {index: 0 for index in pending}
    active: Dict[int, WorkerProcess] = {}
    slots = max(1, min(shards, os.cpu_count() or 1))
    while pending or active:
        while pending and len(active) < slots:
            index = pending.pop(0)
            attempts[index] += 1
            active[index] = _launch_shard(root, config, shards, index)
        for index, worker in list(active.items()):
            exit_ = worker.exit() or worker.liveness_failure()
            if exit_ is None:
                continue
            if exit_.kind not in ("ok",):
                worker.reap()
            del active[index]
            if exit_.kind == "ok" and _shard_done(root, index):
                outcomes[index] = ShardOutcome(index, ok=True,
                                               attempts=attempts[index])
            elif attempts[index] <= max_retries:
                pending.append(index)
            else:
                outcomes[index] = ShardOutcome(
                    index, ok=False, attempts=attempts[index],
                    detail=f"{exit_.kind}: {exit_.error}")
        if active and not (pending and len(active) < slots):
            sleep_until_exit(list(active.values()),
                             min(w.next_check_s() for w in active.values()))

    good = [shard_dir(root, i) for i in sorted(outcomes)
            if outcomes[i].ok]
    if good:
        corpus.merge_runs(os.path.join(root, MERGED_DIR), good, config)
    return [outcomes[i] for i in sorted(outcomes)]


def render_outcomes(outcomes: List[ShardOutcome],
                    merged: Optional[corpus.LoadedRun]) -> str:
    lines = []
    for outcome in outcomes:
        status = "ok" if outcome.ok else "FAILED"
        detail = f"  ({outcome.detail})" if outcome.detail else ""
        lines.append(f"shard {outcome.index:3d}: {status} "
                     f"after {outcome.attempts} attempt(s){detail}")
    if merged is not None:
        lines.append(f"merged: {len(merged.specs)} corpus entries, "
                     f"{merged.coverage.frontier} features, "
                     f"{len(merged.regressions)} regression(s)")
    return "\n".join(lines)
