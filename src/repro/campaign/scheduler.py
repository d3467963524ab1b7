"""Fault-tolerant campaign scheduler.

Drives a sweep's cells through isolated worker subprocesses with:

- **crash isolation** — a worker dying (segfault, OOM kill, SIGKILL) costs
  one attempt of one cell;
- **wall-clock timeouts** — a cell that overruns its ``timeout_s`` is
  killed and retried;
- **straggler recovery** — workers heartbeat from inside the simulation
  loop (simulated-cycle progress); a heartbeat stale past
  ``stall_timeout_s`` marks the worker hung, and it is reaped and
  rescheduled — the campaign-level analogue of the per-run
  :class:`repro.resilience.watchdog.Watchdog`;
- **retry with exponential backoff + jitter and reseeding** — attempt *k*
  waits ``backoff_base_s * 2**(k-1)`` (+ seeded jitter) and perturbs the
  MTE tag seed, generalizing ``run_resilient`` across process boundaries;
- **durable progress** — every completed cell is appended to the
  :class:`~repro.campaign.store.ResultStore` before anything else happens,
  so ``--resume`` skips exactly the work that already landed;
- **graceful degradation** — a cell that exhausts its retries becomes an
  explicit missing-cell marker in the rendered figure plus an entry in the
  structured failure report; it never aborts the campaign;
- **graceful interrupt** — SIGTERM/SIGINT mid-campaign reaps the active
  workers, writes ``report.json`` with an ``"interrupted"`` status, and
  leaves the run directory resumable (``--resume`` finishes it).

Each worker is a fork of the scheduler itself that calls
:func:`repro.campaign.worker.measure_cell` on its cell; the scheduler
only schedules and never runs a cell, and the run loop sleeps on the
workers' exit sentinels and a wakeup pipe (signals and
:meth:`CampaignScheduler.interrupt` write to it) until a worker exits or
the next liveness check, retry or metrics dump falls due.  The
process-launch / liveness / exit-classification primitives live in
:mod:`repro.campaign.pool`, shared with the :mod:`repro.service` worker
supervisor — "campaign" and "service queue" are one pool abstraction.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.campaign import pool
from repro.campaign.cells import (CampaignConfig, CellSpec, rows_from_records)
from repro.campaign.heartbeat import Heartbeat
from repro.campaign.pool import WorkerExit, WorkerProcess
from repro.campaign.store import ResultStore
from repro.campaign.worker import measure_cell
from repro.config import DefenseKind
from repro.store import Reject, atomic_write
from repro.telemetry.obs import FlightRecorder, SpanRecorder, new_trace_id
from repro.telemetry.prometheus import render_prometheus
from repro.telemetry.registry import StatsRegistry

if TYPE_CHECKING:
    from repro.eval.experiments import ExperimentRow

#: Span log + flight-recorder dump + metrics snapshots in the run dir.
SPANS_LOG = "spans.jsonl"
FLIGHT_DUMP = "flight-recorder.json"
METRICS_JSON = "metrics.json"
METRICS_PROM = "metrics.prom"

#: Worker-reported phase -> span name for cell-attempt child spans.
_PHASE_SPANS = (("generate_ms", "workload-generate"),
                ("warm_ms", "warm-up"),
                ("run_ms", "simulate"),
                ("synthesize_ms", "witness-synthesize"),
                ("plan_ms", "repair-plan"),
                ("measure_ms", "repair-measure"))


@dataclass
class AttemptFailure:
    """One failed attempt of one cell."""

    attempt: int
    #: "typed" (retryable ReproError), "crashed" (worker bug/exception),
    #: "killed" (died to a signal), "wall-timeout", "stalled".
    kind: str
    error: str = ""
    error_type: str = ""

    def to_dict(self) -> dict:
        return {"attempt": self.attempt, "kind": self.kind,
                "error": self.error, "error_type": self.error_type}


@dataclass
class _PendingCell:
    cell: CellSpec
    attempts: int = 0
    #: MTE tag-seed perturbation for the next attempt.  Bumped only on
    #: *typed* simulation failures (the deterministic kind reseeding can
    #: dodge); environmental deaths — kill, OOM, wall-timeout, stall —
    #: retry under the same seed, so the retried cell measures the same
    #: row an uninterrupted attempt would have.
    reseed: int = 0
    eligible_at: float = 0.0
    failures: List[AttemptFailure] = field(default_factory=list)


@dataclass
class _ActiveWorker:
    cell: CellSpec
    state: _PendingCell
    worker: WorkerProcess
    started_at: float = field(default_factory=time.monotonic)


@dataclass
class CampaignOutcome:
    """Everything a caller needs after a campaign finishes."""

    config: CampaignConfig
    cells: List[CellSpec]
    completed: Dict[str, dict]
    failed: Dict[str, List[AttemptFailure]]
    corrupt: List[Reject]
    #: Cells found already done in the store (the resume fast path).
    skipped: int = 0
    #: The campaign was stopped by SIGTERM/SIGINT before finishing; the
    #: run directory stays resumable (completed cells are durable, active
    #: workers were reaped, nothing was marked failed).
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failed and not self.corrupt and not self.interrupted

    @property
    def rows(self) -> List[ExperimentRow]:
        return rows_from_records(self.cells, self.completed)

    def render(self, metric: str = "normalized") -> str:
        """The figure, with explicit markers for any missing cells."""
        # Imported here: the campaign's start path never loads repro.eval.
        from repro.eval.experiments import render_rows
        # Repair cells are self-normalizing (the unrepaired program is the
        # baseline), so there is no NONE column to expect.
        baseline = [] if self.config.kind == "repair" \
            else [DefenseKind.NONE]
        return render_rows(self.rows, metric,
                           benchmarks=self.config.suite(),
                           defenses=baseline + self.config.defenses)

    @property
    def degradations(self) -> Dict[str, List[dict]]:
        """Checkpoint corruptions each completed cell degraded past.

        Keyed by cell id; each entry names the stage (``warm`` — the
        shared warm checkpoint) and the
        :class:`~repro.errors.CheckpointError` fault class.  Degradations
        cost re-simulation time, never results, so they are reported but
        do not affect :attr:`ok`.
        """
        return {
            cell_id: record["row"]["degradations"]
            for cell_id, record in sorted(self.completed.items())
            if record.get("row", {}).get("degradations")
        }

    def report(self) -> dict:
        """Structured failure report (persisted as ``report.json``)."""
        return {
            "figure": self.config.figure,
            "config_hash": self.config.config_hash(),
            "status": "interrupted" if self.interrupted else "finished",
            "total_cells": len(self.cells),
            "completed": len(self.completed),
            "skipped_already_done": self.skipped,
            "failed": {cell_id: [f.to_dict() for f in failures]
                       for cell_id, failures in self.failed.items()},
            "corrupt_records": [
                {"line_no": c.line_no, "reason": c.reason,
                 "cell_id": str((c.record or {}).get("cell_id", ""))}
                for c in self.corrupt],
            "degradations": self.degradations,
            "resumable": self.interrupted,
            "ok": self.ok,
        }


class CampaignScheduler:
    """Runs one campaign's cells to completion (or explicit failure).

    ``work`` replaces :func:`~repro.campaign.worker.measure_cell` as the
    function each forked attempt calls on its ``(cell, reseed,
    warm_dir)`` job — the test hook for simulating hung or crashing
    workers without patching the real simulator.  The scheduler forks
    itself, so any callable (a closure too) will do.
    """

    def __init__(self, config: CampaignConfig, run_dir: str, *,
                 progress: Optional[Callable[[str], None]] = None,
                 work: Optional[Callable[[Any, Heartbeat], dict]] = None,
                 metrics_interval_s: float = 5.0):
        self.config = config
        self.run_dir = run_dir
        self.store = ResultStore(run_dir)
        self.progress = progress or (lambda message: None)
        self.work = work or measure_cell
        self.metrics_interval_s = metrics_interval_s
        self._interrupted = False
        # The run loop's wakeup pipe: signals (through the wakeup fd) and
        # interrupt() write to it.  It lives as long as the scheduler, so
        # interrupt() from another thread never writes to a closed fd.
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        weakref.finalize(self, os.close, self._wake_r)
        weakref.finalize(self, os.close, self._wake_w)
        # Jitter must be deterministic per campaign seed so two runs of the
        # same config retry on the same schedule (results never depend on
        # jitter, only latency does).
        self._rng = random.Random(config.seed ^ 0x5EED_CA3B)
        # Observability: one trace ID per cell (stable across attempts),
        # cell-attempt spans in the run dir, a flight recorder mirrored
        # into the campaign.* metrics scope dumped periodically.
        self.flight = FlightRecorder()
        self.spans = SpanRecorder(os.path.join(run_dir, SPANS_LOG),
                                  flight=self.flight)
        self._traces: Dict[str, str] = {}
        self.registry = StatsRegistry()
        scope = self.registry.scope("campaign")
        self._m_launched = scope.scalar(
            "attempts_launched", "worker attempts started")
        self._m_completed = scope.scalar(
            "cells_completed", "cells measured to a durable row")
        self._m_retried = scope.scalar(
            "attempts_retried", "failed attempts that were rescheduled")
        self._m_failed = scope.scalar(
            "cells_failed", "cells failed permanently (retries exhausted)")
        self._m_cell_ms = scope.latency(
            "cell_latency_ms", "wall latency of successful cell attempts")
        self._metrics_dumped_at = 0.0

    # ------------------------------------------------------------------
    # launch plumbing
    # ------------------------------------------------------------------

    def _paths(self, cell: CellSpec, attempt: int) -> dict:
        # Repair-cell benchmarks are witness subjects ("pht/same-key"):
        # flatten the separator too, or the stem nests a directory.
        safe = cell.cell_id.replace(":", "_").replace("+", "") \
            .replace("/", "-")
        stem = os.path.join(self.store.work_dir, f"{safe}.a{attempt}")
        return {"out": stem + ".out.json", "heartbeat": stem + ".hb",
                "log": stem + ".log"}

    def _job(self, state: _PendingCell) -> tuple:
        """The ``(cell, reseed, warm_dir)`` job of the cell's next
        attempt; an empty ``warm_dir`` disables warm sharing."""
        warm_dir = self.store.work_dir if self.config.share_warm else ""
        return state.cell, state.reseed, warm_dir

    def _trace_of(self, cell: CellSpec) -> str:
        """The cell's trace ID — minted once, stable across retries."""
        return self._traces.setdefault(cell.cell_id, new_trace_id())

    def _launch(self, state: _PendingCell) -> _ActiveWorker:
        cell, attempt = state.cell, state.attempts
        reseed = state.reseed  # bumped per *typed* failure, not per attempt
        trace = self._trace_of(cell)
        paths = self._paths(cell, attempt)
        for stale in ("out", "heartbeat"):
            try:
                os.unlink(paths[stale])
            except OSError:
                pass
        worker = pool.fork(self.work, self._job(state),
                           out_path=paths["out"],
                           heartbeat_path=paths["heartbeat"],
                           log_path=paths["log"],
                           heartbeat_interval=self.config.heartbeat_cycles,
                           timeout_s=cell.timeout_s,
                           stall_timeout_s=self.config.stall_timeout_s)
        self._m_launched.inc()
        self.flight.record("cell-launch", trace=trace, cell=cell.cell_id,
                           attempt=attempt, pid=worker.pid)
        self.progress(f"cell {cell.cell_id}: attempt {attempt} started "
                      f"(pid {worker.pid}, reseed {reseed})")
        return _ActiveWorker(cell=cell, state=state, worker=worker)

    # ------------------------------------------------------------------
    # outcome handling
    # ------------------------------------------------------------------

    def _record_success(self, worker: _ActiveWorker, outcome: dict) -> None:
        trace = self._trace_of(worker.cell)
        self.store.append({
            "cell_id": worker.cell.cell_id,
            "status": "ok",
            "attempt": worker.state.attempts,
            "reseed": worker.state.reseed,
            "trace": trace,
            "cell": worker.cell.to_dict(),
            "row": outcome["row"],
        })
        self._m_completed.inc()
        self._m_cell_ms.observe(
            (time.monotonic() - worker.started_at) * 1000.0)
        row = outcome["row"]
        timings = outcome.get("timings", {})
        t0 = self.spans.at(worker.started_at)
        root = self.spans.record(
            trace, "cell-attempt", t0_ms=t0,
            dur_ms=self.spans.now() - t0, cell=worker.cell.cell_id,
            attempt=worker.state.attempts)
        cursor = t0
        for key, name in _PHASE_SPANS:
            phase_ms = float(timings.get(key, 0.0))
            if phase_ms <= 0.0:
                continue
            self.spans.record(trace, name, parent_id=root.span_id,
                              t0_ms=cursor, dur_ms=phase_ms)
            cursor += phase_ms
        notes = ""
        if row.get("degradations"):
            kinds = sorted({d["kind"] for d in row["degradations"]})
            notes += f", degraded past {'/'.join(kinds)}"
        self.progress(f"cell {worker.cell.cell_id}: ok "
                      f"({row['cycles']} cycles, "
                      f"attempt {worker.state.attempts}{notes})")

    @staticmethod
    def _as_failure(worker: _ActiveWorker, exit: WorkerExit) -> AttemptFailure:
        return AttemptFailure(worker.state.attempts, exit.kind,
                              exit.error, exit.error_type)

    def _handle_failure(self, worker: _ActiveWorker,
                        failure: AttemptFailure,
                        pending: List[_PendingCell],
                        failed: Dict[str, List[AttemptFailure]]) -> None:
        state = worker.state
        state.failures.append(failure)
        state.attempts += 1
        trace = self._trace_of(worker.cell)
        t0 = self.spans.at(worker.started_at)
        self.spans.record(
            trace, "cell-attempt", t0_ms=t0, dur_ms=self.spans.now() - t0,
            status="error", cell=worker.cell.cell_id,
            attempt=failure.attempt, kind=failure.kind)
        self.flight.record("cell-failure", trace=trace,
                           cell=worker.cell.cell_id, kind=failure.kind,
                           attempt=failure.attempt)
        if failure.kind == "typed":
            # Deterministic simulation failure: perturb the MTE seed (the
            # run_resilient convention).  Every other failure kind keeps
            # the seed (see _PendingCell.reseed).
            state.reseed += 1
        cell_id = worker.cell.cell_id
        if state.attempts > self.config.max_retries:
            failed[cell_id] = state.failures
            self._m_failed.inc()
            # Durable trace of the exhausted cell: resume retries it, and
            # the retry history survives for the failure report.
            self.store.append({
                "cell_id": cell_id, "status": "failed", "trace": trace,
                "cell": worker.cell.to_dict(),
                "failures": [f.to_dict() for f in state.failures],
            })
            self.progress(
                f"cell {cell_id}: FAILED permanently after "
                f"{state.attempts} attempts ({failure.kind}: "
                f"{failure.error})")
            return
        self._m_retried.inc()
        delay = (self.config.backoff_base_s * (2 ** (state.attempts - 1))
                 + self._rng.uniform(0, self.config.backoff_jitter_s))
        state.eligible_at = time.monotonic() + delay
        pending.append(state)
        self.progress(f"cell {cell_id}: attempt {failure.attempt} "
                      f"{failure.kind} ({failure.error}); retrying in "
                      f"{delay:.2f}s with reseed {state.reseed}")

    # ------------------------------------------------------------------
    # the main loop
    # ------------------------------------------------------------------

    def run(self, resume: bool = False) -> CampaignOutcome:
        cells = self.config.build_cells()
        if os.path.exists(self.store.manifest_path):
            # An existing manifest must belong to this campaign; matching
            # hash makes a plain re-run naturally resume-shaped.
            self.store.resume_config(expected=self.config)
            resume = True
        elif resume:
            self.store.load_manifest()  # raises the not-a-run-dir error
        else:
            self.store.initialize(self.config, cells)
        os.makedirs(self.store.work_dir, exist_ok=True)

        completed, corrupt = self.store.completed(
            [cell.cell_id for cell in cells])
        for record in corrupt:
            self.progress(f"store: corrupt record ignored, cell re-queued "
                          f"({record})")
        skipped = len(completed)
        if resume and skipped:
            self.progress(f"resume: {skipped}/{len(cells)} cells already "
                          "done, skipping")

        pending = [_PendingCell(cell) for cell in cells
                   if cell.cell_id not in completed]
        active: List[_ActiveWorker] = []
        failed: Dict[str, List[AttemptFailure]] = {}

        with self._signal_scope():
            while (pending or active) and not self._interrupted:
                now = time.monotonic()
                # Launch every eligible cell while worker slots are free.
                launchable = [s for s in pending if s.eligible_at <= now]
                while launchable and len(active) < self.config.max_workers:
                    state = launchable.pop(0)
                    pending.remove(state)
                    active.append(self._launch(state))

                still_active: List[_ActiveWorker] = []
                for worker in active:
                    exit = worker.worker.exit()
                    if exit is None:
                        exit = worker.worker.liveness_failure(now)
                        if exit is not None:
                            worker.worker.reap()
                    if exit is None:
                        still_active.append(worker)
                    elif exit.kind == "ok":
                        self._record_success(worker, exit.outcome)
                        completed[worker.cell.cell_id] = {
                            "cell_id": worker.cell.cell_id,
                            "row": exit.outcome["row"]}
                    else:
                        self._handle_failure(worker,
                                             self._as_failure(worker, exit),
                                             pending, failed)
                active = still_active
                if now - self._metrics_dumped_at >= self.metrics_interval_s:
                    self.dump_metrics()
                    self._metrics_dumped_at = now
                if (pending or active) and not self._interrupted:
                    self._sleep(active, pending)

        if self._interrupted and active:
            # Reap, don't strand: the workers die now, their cells stay
            # unrecorded (= pending), and --resume re-runs them whole.
            self.progress(f"interrupt: reaping {len(active)} active "
                          "worker(s); run directory stays resumable")
            for worker in active:
                worker.worker.reap()

        outcome = CampaignOutcome(config=self.config, cells=cells,
                                  completed=completed, failed=failed,
                                  corrupt=corrupt, skipped=skipped,
                                  interrupted=self._interrupted)
        self.store.write_report(outcome.report())
        self.dump_metrics()
        atomic_write(os.path.join(self.run_dir, FLIGHT_DUMP),
                     json.dumps(self.flight.dump(), indent=2,
                                sort_keys=True))
        self.spans.close()
        return outcome

    def _sleep(self, active: List[_ActiveWorker],
               pending: List[_PendingCell]) -> None:
        """Sleep until a worker exits, a signal or :meth:`interrupt`
        arrives, or the earliest liveness check, retry eligibility (while
        a worker slot is free) or metrics dump falls due."""
        now = time.monotonic()
        due = [self._metrics_dumped_at + self.metrics_interval_s - now]
        due += [worker.worker.next_check_s(now) for worker in active]
        if len(active) < self.config.max_workers:
            due += [state.eligible_at - now for state in pending]
        pool.sleep_until_exit([worker.worker for worker in active],
                              min(due), wake_fd=self._wake_r)
        try:
            while os.read(self._wake_r, 512):
                pass
        except BlockingIOError:
            pass

    def dump_metrics(self) -> None:
        """Snapshot the ``campaign.*`` registry into the run dir, both as
        a JSON dump and as Prometheus text exposition."""
        atomic_write(os.path.join(self.run_dir, METRICS_JSON),
                     json.dumps(self.registry.dump(), indent=2,
                                sort_keys=True))
        atomic_write(os.path.join(self.run_dir, METRICS_PROM),
                     render_prometheus(self.registry))

    # ------------------------------------------------------------------
    # graceful interrupt
    # ------------------------------------------------------------------

    def interrupt(self) -> None:
        """Request a graceful stop (signal-handler and test entry point);
        safe from any thread, it wakes the run loop."""
        self._interrupted = True
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass   # the pipe is full, so the loop is already woken

    def _signal_scope(self):
        """Install SIGTERM/SIGINT -> :meth:`interrupt` around the run loop,
        with the wakeup pipe as the signal wakeup fd: a signal delivered
        to another thread still wakes the loop's sleep.

        Only the main thread may install signal handlers; elsewhere (tests
        driving the scheduler from a thread, embedding services) the scope
        is a no-op and :meth:`interrupt` is called directly.
        """
        import contextlib

        @contextlib.contextmanager
        def scope():
            if threading.current_thread() is not threading.main_thread():
                yield
                return
            previous = {}
            handled = (signal.SIGTERM, signal.SIGINT)

            def handler(signum, frame):
                self.progress(f"received signal {signum}; stopping "
                              "gracefully")
                self.interrupt()

            for sig in handled:
                previous[sig] = signal.signal(sig, handler)
            previous_fd = signal.set_wakeup_fd(self._wake_w)
            try:
                yield
            finally:
                signal.set_wakeup_fd(previous_fd)
                for sig, old in previous.items():
                    signal.signal(sig, old)

        return scope()
