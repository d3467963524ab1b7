"""Supervised async worker pool for the spec-lint service.

Wraps the shared :mod:`repro.campaign.pool` primitives (launch, heartbeat
liveness, exit classification, reap) in an asyncio supervision loop:

- **bounded concurrency** — at most ``size`` worker subprocesses per pool;
- **deadlines** — each job runs under the request's remaining budget as
  its wall limit; overruns are reaped and surface as typed ``deadline``
  errors, refunding the slot;
- **cooperative cancellation** — cancelling :meth:`WorkerPool.submit`
  reaps the subprocess before propagating, so a dropped client or a drain
  cut never leaks a worker;
- **heartbeat liveness** — a worker that stops pulsing (wedged analyzer,
  livelocked simulation) is reaped as ``stalled`` and treated as a death;
- **automatic restart with exponential backoff** — environmental deaths
  (crash, signal, stall) are retried up to ``max_restarts`` times with
  ``backoff_base_s * 2**k`` waits, clipped to the remaining budget;
- **circuit breaker + quarantine** — every death feeds the pool's
  :class:`~repro.service.breaker.CircuitBreaker` (consecutive deaths trip
  it; the ladder then routes around the pool) and the per-content-hash
  :class:`~repro.service.breaker.Quarantine` (a hash that keeps killing
  workers is poison and gets typed ``quarantined`` rejections).

The pool is job-per-process, so "restart" means relaunching the job in a
fresh subprocess — there is no long-lived worker state to resurrect, which
is exactly what makes the restarts safe.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import sys
import time
from typing import Callable, List, Optional

from repro.campaign import pool
from repro.campaign.pool import AdaptiveWait, WorkerExit
from repro.errors import ServiceError
from repro.service.breaker import CircuitBreaker, Quarantine
from repro.store import atomic_write
from repro.telemetry.obs import FlightRecorder
from repro.telemetry.service import ServiceStats

#: Worker-exit kinds that count as deaths (environmental, retryable).
DEATH_KINDS = frozenset({"crashed", "killed", pool.STALLED})


def default_worker_argv(paths: dict, allow_chaos: bool) -> List[str]:
    argv = [sys.executable, "-m", "repro.service.worker",
            "--spec", paths["spec"], "--out", paths["out"],
            "--heartbeat", paths["heartbeat"]]
    if allow_chaos:
        argv.append("--allow-chaos")
    return argv


class WorkerPool:
    """One supervised pool (the service runs two: static and dynamic)."""

    def __init__(self, name: str, work_dir: str, *, size: int = 2,
                 stats: Optional[ServiceStats] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 quarantine: Optional[Quarantine] = None,
                 max_restarts: int = 1, backoff_base_s: float = 0.05,
                 stall_timeout_s: float = 20.0, allow_chaos: bool = False,
                 worker_argv: Optional[Callable[..., List[str]]] = None,
                 flight: Optional[FlightRecorder] = None):
        self.name = name
        self.work_dir = work_dir
        self.stats = stats
        self.flight = flight
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.quarantine = quarantine
        self.max_restarts = max_restarts
        self.backoff_base_s = backoff_base_s
        self.stall_timeout_s = stall_timeout_s
        self.allow_chaos = allow_chaos
        self.worker_argv = worker_argv or default_worker_argv
        self._slots = asyncio.Semaphore(size)
        self._seq = itertools.count()
        self.size = size
        #: Live WorkerProcess handles, for drain-time reaping.
        self._active: set = set()
        os.makedirs(work_dir, exist_ok=True)

    # -- health --------------------------------------------------------------

    @property
    def healthy(self) -> bool:
        """False while the breaker is hard-open (the ladder routes away)."""
        return self.breaker.healthy

    def snapshot(self) -> dict:
        return {"name": self.name, "size": self.size,
                "active": len(self._active),
                "breaker": self.breaker.snapshot()}

    # -- the one entry point -------------------------------------------------

    async def submit(self, job: dict, *, key: str,
                     deadline: float) -> dict:
        """Run one job to a row payload, or raise a typed ServiceError.

        ``deadline`` is absolute (``time.monotonic`` scale) and bounds
        slot wait + every attempt + every backoff together.
        """
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ServiceError("budget exhausted before dispatch",
                               kind="deadline")
        try:
            await asyncio.wait_for(self._slots.acquire(), timeout=remaining)
        except asyncio.TimeoutError:
            raise ServiceError(
                f"no {self.name} worker slot within the budget",
                kind="deadline")
        try:
            return await self._run_with_retries(job, key, deadline)
        finally:
            self._slots.release()

    async def _run_with_retries(self, job: dict, key: str,
                                deadline: float) -> dict:
        deaths = 0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError("request budget expired", kind="deadline")
            exit = await self._run_once(job, remaining)
            if exit.kind == "ok":
                self.breaker.record_success()
                if self.quarantine is not None:
                    self.quarantine.record_success(key)
                return exit.outcome["row"]
            if exit.kind == "typed":
                # The *pool* is fine; the program is bad.  AssemblerError
                # and friends become invalid-program protocol errors.
                self.breaker.record_success()
                raise ServiceError(
                    f"{exit.error_type or 'ReproError'}: {exit.error}",
                    kind="invalid-program")
            if exit.kind == pool.WALL_TIMEOUT:
                raise ServiceError(
                    f"{self.name} worker exceeded the request budget",
                    kind="deadline")
            # Death: crashed / killed / stalled.
            deaths += 1
            self.breaker.record_failure()
            if self.stats is not None:
                self.stats.worker_deaths.inc()
            if self.flight is not None:
                self.flight.record(
                    "worker-death", pool=self.name, kind=exit.kind,
                    key=key, trace=job.get("trace", ""),
                    attempt=deaths)
            if self.quarantine is not None \
                    and self.quarantine.record_death(key):
                if self.stats is not None:
                    self.stats.quarantined_hashes.inc()
                raise ServiceError(
                    f"content hash {key} killed {self.name} workers "
                    f"{self.quarantine.death_threshold}x: quarantined",
                    kind="quarantined")
            if deaths > self.max_restarts:
                raise ServiceError(
                    f"{self.name} worker died {deaths}x "
                    f"({exit.kind}: {exit.error}); retries exhausted",
                    kind="worker-lost")
            if self.stats is not None:
                self.stats.worker_restarts.inc()
            backoff = min(self.backoff_base_s * (2 ** (deaths - 1)),
                          max(0.0, deadline - time.monotonic()))
            await asyncio.sleep(backoff)

    async def _run_once(self, job: dict, budget_s: float) -> WorkerExit:
        """One worker attempt under ``budget_s``; reaps on cancellation."""
        stem = os.path.join(self.work_dir,
                            f"{self.name}.j{next(self._seq)}")
        paths = {"spec": stem + ".job.json", "out": stem + ".out.json",
                 "heartbeat": stem + ".hb", "log": stem + ".log"}
        atomic_write(paths["spec"], json.dumps(job))
        for stale in ("out", "heartbeat"):
            try:
                os.unlink(paths[stale])
            except OSError:
                pass
        worker = pool.launch(
            self.worker_argv(paths, self.allow_chaos),
            out_path=paths["out"], heartbeat_path=paths["heartbeat"],
            log_path=paths["log"], timeout_s=budget_s,
            stall_timeout_s=min(self.stall_timeout_s, budget_s))
        self._active.add(worker)
        wait = AdaptiveWait(base=0.005, cap=0.1)
        try:
            while True:
                exit = worker.exit()
                if exit is None:
                    exit = worker.liveness_failure()
                    if exit is not None:
                        worker.reap()
                        if self.stats is not None \
                                and exit.kind == pool.WALL_TIMEOUT:
                            self.stats.worker_reaped.inc()
                        if self.flight is not None:
                            self.flight.record(
                                "worker-reap", pool=self.name,
                                kind=exit.kind,
                                trace=job.get("trace", ""))
                if exit is not None:
                    return exit
                await asyncio.sleep(wait.interval(active=False))
        except asyncio.CancelledError:
            worker.reap()
            if self.stats is not None:
                self.stats.worker_reaped.inc()
            raise
        finally:
            self._active.discard(worker)

    # -- lifecycle -----------------------------------------------------------

    def reap_all(self) -> int:
        """Kill every live worker (drain-timeout hammer); returns count."""
        reaped = 0
        for worker in list(self._active):
            worker.reap()
            reaped += 1
        return reaped
