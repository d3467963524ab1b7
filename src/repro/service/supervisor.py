"""Supervised async worker pool for the spec-lint service.

Wraps the shared :mod:`repro.campaign.pool` primitives (forked launch,
heartbeat liveness, exit classification, reap) in an asyncio supervision
loop:

- **forked launch** — every attempt is a fresh ``fork()`` of the service,
  which imported the worker's modules once (:func:`start_preload`), so a
  job pays for a fork, not for an interpreter start and its imports; the
  fork calls the pool's work function (:func:`lint_job`) on the job, and
  the supervisor sleeps on the worker's exit sentinel, waking when it
  exits or when a liveness check falls due;
- **bounded concurrency** — at most ``size`` worker processes per pool;
- **deadlines** — each job runs under the request's remaining budget as
  its wall limit; overruns are reaped and surface as typed ``deadline``
  errors, refunding the slot;
- **cooperative cancellation** — cancelling :meth:`WorkerPool.submit`
  reaps the worker before propagating, so a dropped client or a drain
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

The pool is job-per-process: each attempt runs in its own fork of the
service, whose memory is a copy of a supervisor that never runs a job,
and never of an earlier job's.  So "restart" means relaunching the job in a
fresh fork — there is no long-lived worker state to resurrect, which is
exactly what makes the restarts safe.  An attempt's files in the work
directory go once its exit is classified; a failed attempt keeps its log
as evidence, also past a service restart.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import importlib
import itertools
import os
import sys
import threading
import time
from typing import Any, Callable, Optional

from repro.campaign import pool
from repro.campaign.heartbeat import Heartbeat
from repro.campaign.pool import WorkerExit, WorkerProcess
from repro.errors import ServiceError
from repro.service.breaker import CircuitBreaker, Quarantine
from repro.telemetry.obs import FlightRecorder
from repro.telemetry.service import ServiceStats

#: Worker-exit kinds that count as deaths (environmental, retryable).
DEATH_KINDS = frozenset({"crashed", "killed", pool.STALLED})

#: What a job imports: the worker, and what ``run_job`` imports lazily
#: (``taint.analyze`` imports the summary engine on its first call).
WORKER_MODULES = ("repro.service.worker", "repro.analysis.modular",
                  "repro.analysis.witness", "repro.attacks.common",
                  "repro.system")

#: Past a liveness deadline before re-checking (the checks are strict).
_CHECK_SLACK_S = 0.001

#: The thread of this process's one import of :data:`WORKER_MODULES`.
_preload: Optional[threading.Thread] = None


def lint_job(job: dict, heartbeat: Heartbeat,
             allow_chaos: bool = False) -> dict:
    """The pools' default work function: the job's row.

    The worker is imported here, in the fork, which finds it preloaded:
    the service's start-up, which binds the listener and answers
    ``ping``, never waits for the analyzer's import.
    """
    from repro.service.worker import run_job
    return {"row": run_job(job, heartbeat, allow_chaos)}


def _import_worker() -> None:
    # A failed import fails again, with its traceback, in a job.
    for name in WORKER_MODULES:
        importlib.import_module(name)


def start_preload() -> None:
    """Import :data:`WORKER_MODULES` on a plain thread, off the event
    loop: once per process, so a later service finds them imported (or
    the thread still running) and starts none."""
    global _preload
    if _preload is None \
            and not all(name in sys.modules for name in WORKER_MODULES):
        _preload = threading.Thread(target=_import_worker, name="preload",
                                    daemon=True)
        _preload.start()


async def preloaded() -> None:
    """Return once the preload's thread has ended and is joined, so the
    next fork copies a one-thread process."""
    start_preload()
    if _preload is not None:
        while _preload.is_alive():
            await asyncio.sleep(0.01)
        _preload.join()


async def _sleep_until_exit(worker: WorkerProcess, timeout: float) -> None:
    """Sleep until ``worker`` exits or ``timeout`` seconds pass."""
    loop = asyncio.get_running_loop()
    exited = loop.create_future()
    sentinel = worker.proc.sentinel
    loop.add_reader(sentinel,
                    lambda: exited.done() or exited.set_result(None))
    try:
        await asyncio.wait((exited,), timeout=timeout)
    finally:
        loop.remove_reader(sentinel)


class WorkerPool:
    """One supervised pool (the service runs two: static and dynamic).

    ``work`` is what each forked attempt calls on the job (default:
    :func:`lint_job`, with chaos modes as ``allow_chaos`` says).
    """

    def __init__(self, name: str, work_dir: str, *, size: int = 2,
                 stats: Optional[ServiceStats] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 quarantine: Optional[Quarantine] = None,
                 max_restarts: int = 1, backoff_base_s: float = 0.05,
                 stall_timeout_s: float = 20.0, allow_chaos: bool = False,
                 work: Optional[Callable[[Any, Heartbeat], dict]] = None,
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
        self.work = work or functools.partial(lint_job,
                                              allow_chaos=allow_chaos)
        self._slots = asyncio.Semaphore(size)
        # Attempt n writes <pool>.<token>.j<n>.*: a token of its own keeps
        # a restarted service from reusing, and so deleting, the names of
        # an earlier process's failed-attempt logs.
        self._stem = os.path.join(work_dir, f"{name}.{os.urandom(4).hex()}")
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
            await preloaded()
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
        stem = f"{self._stem}.j{next(self._seq)}"
        paths = {"out": stem + ".out.json", "heartbeat": stem + ".hb",
                 "log": stem + ".log"}
        worker = pool.fork(
            self.work, job, out_path=paths["out"],
            heartbeat_path=paths["heartbeat"], log_path=paths["log"],
            timeout_s=budget_s,
            stall_timeout_s=min(self.stall_timeout_s, budget_s))
        self._active.add(worker)
        exit: Optional[WorkerExit] = None
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
                await _sleep_until_exit(
                    worker, worker.next_check_s() + _CHECK_SLACK_S)
        except asyncio.CancelledError:
            worker.reap()
            if self.stats is not None:
                self.stats.worker_reaped.inc()
            raise
        finally:
            self._active.discard(worker)
            # The attempt is over (exited, reaped or cancelled): its
            # files go, except a failed attempt's log, kept as evidence.
            done = ("out", "heartbeat", "log") \
                if exit is not None and exit.kind == "ok" \
                else ("out", "heartbeat")
            for name in done:
                with contextlib.suppress(OSError):
                    os.unlink(paths[name])

    # -- lifecycle -----------------------------------------------------------

    def reap_all(self) -> int:
        """Kill every live worker (drain-timeout hammer); returns count."""
        reaped = 0
        for worker in list(self._active):
            worker.reap()
            reaped += 1
        return reaped
