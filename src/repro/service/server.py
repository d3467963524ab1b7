"""The resilient spec-lint service: asyncio front end over the pools.

:class:`SpecLintService` wires every robustness mechanism of the package
into one always-on front end (TCP and stdio share the same stream
handler):

1. **Admission** — each ``lint`` line is parsed (typed rejections for
   malformed/oversize/unsupported input) and offered to the
   :class:`~repro.service.admission.AdmissionController`; past the queue
   or per-client bound the client hears ``overloaded`` /
   ``client-over-limit`` immediately instead of waiting forever.
2. **Dispatch** — a fixed set of dispatcher tasks drains the queue in
   round-robin client order.  Every accepted request resolves: to a
   verdict, a degraded-tier verdict, or a typed error — the invariant the
   chaos drill checks.
3. **Degradation ladder** — ``static+dynamic`` → ``static`` → ``cache``
   → shed (``degraded-unavailable``), stepping down when the relevant
   pool's circuit breaker is open or its workers are lost.  The served
   tier, and whether it is below the requested one, is recorded in every
   response and in the ``service.tier.*`` stats.
4. **Single-flight + durable cache** — identical in-flight requests
   coalesce onto one computation; completed verdicts persist to
   ``verdicts.jsonl`` so a drained restart answers repeat content from
   cache without touching a worker.
5. **Drain** — SIGTERM/SIGINT stops admission, lets in-flight work
   finish inside ``drain_timeout_s``, then cuts stragglers with typed
   ``cancelled`` responses, reaps every worker, writes
   ``shutdown-report.json``, and hangs up the connections still open once
   every accepted request has its answer.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, List, Optional, Tuple

from repro.campaign.heartbeat import Heartbeat
from repro.errors import ServiceError
from repro.service.admission import AdmissionController
from repro.service.breaker import CircuitBreaker, Quarantine
from repro.service.cache import SingleFlight, VerdictCache
from repro.service.protocol import (MAX_REQUEST_BYTES, Request, content_key,
                                    encode, error_response, ok_response,
                                    parse_request, pong_response,
                                    stats_response, timing_breakdown)
from repro.service.supervisor import Template, WorkerPool
from repro.store import atomic_write
from repro.telemetry.obs import (SPAN_CACHE_LOOKUP, SPAN_CONFIRM,
                                 SPAN_POOL_DISPATCH, SPAN_QUEUE_WAIT,
                                 SPAN_STATIC_LINT, FlightRecorder, Span,
                                 SpanRecorder, new_trace_id)
from repro.telemetry.prometheus import render_prometheus
from repro.telemetry.service import (TIER_CACHE, TIER_FULL, TIER_STATIC,
                                     ServiceStats)

SHUTDOWN_REPORT = "shutdown-report.json"
#: Request-scoped span log, appended to in the state dir.
SPANS_LOG = "spans.jsonl"
#: Flight-recorder dump written next to the shutdown report at drain.
FLIGHT_DUMP = "flight-recorder.json"


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance (tests shrink the timeouts)."""

    state_dir: str
    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral; resolved at start()
    max_queue: int = 16
    max_per_client: int = 4
    static_workers: int = 2
    dynamic_workers: int = 2
    default_deadline_s: float = 20.0
    max_deadline_s: float = 60.0
    drain_timeout_s: float = 8.0
    max_request_bytes: int = MAX_REQUEST_BYTES
    allow_chaos: bool = False          # honour chaos modes (smoke drill)
    max_restarts: int = 1
    stall_timeout_s: float = 15.0
    breaker_threshold: int = 3
    breaker_reset_s: float = 5.0
    quarantine_deaths: int = 2
    max_confirm_cycles: int = 200_000
    #: Flight-recorder ring capacity (events kept per process).
    flight_capacity: int = 256
    #: Write the request span log (spans.jsonl in the state dir).
    span_log: bool = True


@dataclass
class _Work:
    """One admitted lint request awaiting dispatch."""

    client_id: str
    request: Request
    future: "asyncio.Future[dict]"
    deadline: float                     # absolute, time.monotonic scale
    trace: str = ""                     # request-scoped trace ID
    admitted_at: float = field(default_factory=time.monotonic)


@dataclass
class _TraceCtx:
    """Span-recording context threaded through one request's ladder."""

    trace: str
    root: str                           # span id of the request root span


def _peek_id(text: str) -> str:
    """Best-effort request id from a line that failed validation."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, ValueError):
        return ""
    if isinstance(data, dict) and isinstance(data.get("id"), (str, int)):
        return str(data["id"])
    return ""


class SpecLintService:
    """One service instance: pools, cache, admission, dispatchers."""

    def __init__(self, config: ServiceConfig, *,
                 stats: Optional[ServiceStats] = None,
                 work: Optional[Callable[[Any, Heartbeat], dict]] = None):
        self.config = config
        self.stats = stats if stats is not None else ServiceStats()
        os.makedirs(config.state_dir, exist_ok=True)
        self.flight = FlightRecorder(capacity=config.flight_capacity)
        self.spans = SpanRecorder(
            os.path.join(config.state_dir, SPANS_LOG)
            if config.span_log else None,
            flight=self.flight)
        self.cache = VerdictCache(config.state_dir)
        self.flights = SingleFlight()
        self.admission = AdmissionController(
            max_queue=config.max_queue,
            max_per_client=config.max_per_client)
        self.quarantine = Quarantine(
            death_threshold=config.quarantine_deaths,
            on_quarantine=lambda key: self.flight.record(
                "quarantine", key=key))
        work_dir = os.path.join(config.state_dir, "work")
        #: The fork-server template both pools launch workers from.
        self.template = Template()
        pool_kwargs = dict(
            stats=self.stats, quarantine=self.quarantine,
            max_restarts=config.max_restarts,
            stall_timeout_s=config.stall_timeout_s,
            allow_chaos=config.allow_chaos, work=work,
            flight=self.flight, template=self.template)
        self.static_pool = WorkerPool(
            "static", work_dir, size=config.static_workers,
            breaker=self._breaker("static"), **pool_kwargs)
        self.dynamic_pool = WorkerPool(
            "dynamic", work_dir, size=config.dynamic_workers,
            breaker=self._breaker("dynamic"), **pool_kwargs)
        self.draining = False
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatchers: List[asyncio.Task] = []
        self._drain_task: Optional[asyncio.Task] = None
        self._drained = asyncio.Event()
        self._conn_seq = itertools.count()
        #: (reader, writer) of each open TCP connection, for the hang-up
        #: at the end of a drain.
        self._connections: set = set()
        self.shutdown_report: Optional[dict] = None

    def _breaker(self, pool_name: str) -> CircuitBreaker:
        def on_open() -> None:
            self.stats.breaker_opens.inc()
            self.flight.record("breaker-open", pool=pool_name)

        return CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            reset_timeout_s=self.config.breaker_reset_s,
            on_open=on_open)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the TCP listener, start the worker template's preload off
        the event loop, and start the dispatcher tasks."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=max(self.config.max_request_bytes * 2, 64 * 1024))
        self.port = self._server.sockets[0].getsockname()[1]
        self.template.start()
        count = self.config.static_workers + self.config.dynamic_workers
        self._dispatchers = [
            asyncio.create_task(self._dispatcher(), name=f"dispatch-{i}")
            for i in range(max(2, count))]

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger a graceful drain (main thread only)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_drain)
            except (NotImplementedError, ValueError):
                return   # non-main thread or unsupported platform

    def request_drain(self) -> None:
        """Idempotent drain trigger (signal handler / tests)."""
        if self._drain_task is None:
            self._drain_task = asyncio.create_task(
                self._drain(), name="drain")

    async def wait_drained(self) -> None:
        await self._drained.wait()

    async def _drain(self) -> dict:
        """Stop admission, settle in-flight work, cut stragglers, report."""
        self.draining = True
        self.admission.close()   # new work is rejected with "draining"
        cutoff = time.monotonic() + self.config.drain_timeout_s
        while self.admission.outstanding > 0 and time.monotonic() < cutoff:
            await asyncio.sleep(0.02)

        # Cut whatever is still queued: each accepted request still gets
        # a typed response — the no-lost-requests invariant.
        queued_cut = 0
        for client_id, work in self.admission.flush():
            self._finish(work, error_response(
                work.request.id,
                ServiceError("server drained before this request ran",
                             kind="cancelled")))
            self.stats.cancelled_at_drain.inc()
            self.stats.errored.inc()
            queued_cut += 1

        # Idle dispatchers notice the closed queue and exit on their own;
        # only those still computing past the timeout get cancelled (their
        # CancelledError paths answer the work future and reap the worker).
        _, busy = await asyncio.wait(
            self._dispatchers, timeout=0.25) if self._dispatchers \
            else (set(), set())
        running_cut = sum(1 for task in busy if task.cancel())
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        abandoned = self.flights.abandon_all(
            ServiceError("server drained mid-computation",
                         kind="cancelled"))
        reaped = self.static_pool.reap_all() + self.dynamic_pool.reap_all()

        status = "drained" if not (queued_cut or running_cut) else "cut"
        report = {
            "status": status,
            "queued_cut": queued_cut,
            "running_cut": running_cut,
            "flights_abandoned": abandoned,
            "workers_reaped_at_drain": reaped,
            "cache_entries": len(self.cache),
            "cache_rejected_at_load": self.cache.rejected,
            "admission": self.admission.snapshot(),
            "pools": [self.static_pool.snapshot(),
                      self.dynamic_pool.snapshot()],
            "quarantine": self.quarantine.snapshot(),
            "stats": self.stats.dump(),
            "flight": {"recorded": self.flight.recorded,
                       "dropped": self.flight.dropped,
                       "dump": FLIGHT_DUMP},
        }
        atomic_write(os.path.join(self.config.state_dir, FLIGHT_DUMP),
                     json.dumps(self.flight.dump(), indent=2,
                                sort_keys=True))
        atomic_write(os.path.join(self.config.state_dir, SHUTDOWN_REPORT),
                     json.dumps(report, indent=2, sort_keys=True))
        self.spans.close()
        self.shutdown_report = report
        if self._server is not None:
            # Every accepted request has its answer.  End each open
            # connection's input, so serve_stream writes its last answers
            # and hangs up: from Python 3.12.1, wait_closed() also waits
            # for every connection.  Reading stops first, since a stream
            # takes no data after its EOF.
            self._server.close()
            for reader, writer in list(self._connections):
                writer.transport.pause_reading()
                reader.feed_eof()
            await self._server.wait_closed()
        self._drained.set()
        return report

    # -- connections ---------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        client_id = (f"{peer[0]}:{peer[1]}" if peer
                     else f"conn-{next(self._conn_seq)}")
        connection = (reader, writer)
        self._connections.add(connection)
        try:
            await self.serve_stream(reader, writer, client_id)
        finally:
            self._connections.discard(connection)

    async def serve_stream(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           client_id: str) -> None:
        """Request/response loop over one line stream (TCP or stdio).

        Each line gets its own response task so a client may pipeline —
        responses interleave by completion order and carry the request id.
        """
        lock = asyncio.Lock()

        async def send(response: dict) -> None:
            async with lock:
                writer.write(encode(response).encode("utf-8"))
                await writer.drain()

        tasks: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except asyncio.CancelledError:
                    # Event-loop teardown cancelling a connection task is
                    # a normal hang-up, not an error to propagate.
                    break
                except (asyncio.LimitOverrunError, ValueError):
                    # The line never fit in the stream buffer; the only
                    # safe recovery is to answer typed and hang up.
                    err = ServiceError(
                        "request line exceeds the stream limit",
                        kind="oversize")
                    self.stats.reject("oversize")
                    await send(error_response("", err))
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                task = asyncio.create_task(
                    self._respond(client_id, text, send))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, client_id: str, text: str,
                       send: Callable[[dict], Awaitable[None]]) -> None:
        """Parse, admit, await, and write the response for one line."""
        try:
            request = parse_request(text, self.config.max_request_bytes)
        except ServiceError as exc:
            self.stats.reject(exc.kind)
            await send(error_response(_peek_id(text), exc))
            return
        if request.op == "ping":
            await send(pong_response(request.id, self.health()))
            return
        if request.op == "stats":
            if request.fmt == "prometheus":
                await send(stats_response(
                    request.id, render_prometheus(self.stats.registry),
                    fmt="prometheus"))
            else:
                await send(stats_response(request.id, self.stats.dump()))
            return

        trace = request.trace or new_trace_id()
        budget = min(request.deadline_s
                     if request.deadline_s is not None
                     else self.config.default_deadline_s,
                     self.config.max_deadline_s)
        work = _Work(client_id=client_id, request=request,
                     future=asyncio.get_running_loop().create_future(),
                     deadline=time.monotonic() + budget, trace=trace)
        try:
            self.admission.admit(client_id, work)
        except ServiceError as exc:
            self.stats.reject(exc.kind)
            self.flight.record("shed", kind=exc.kind, trace=trace,
                               client=client_id)
            exc.flight = tuple(self.flight.tail())
            await send(error_response(request.id, exc, trace=trace))
            return
        self.stats.accepted.inc()
        await send(await work.future)

    # -- dispatch ------------------------------------------------------------

    def _finish(self, work: _Work, response: dict) -> None:
        if not work.future.done():
            work.future.set_result(response)
        self.admission.done(work.client_id)

    async def _dispatcher(self) -> None:
        while True:
            entry = await self.admission.next()
            if entry is None:
                return   # drained and empty
            _, work = entry
            try:
                response = await self._serve(work)
            except asyncio.CancelledError:
                self._finish(work, error_response(
                    work.request.id,
                    ServiceError("request cut by drain timeout",
                                 kind="cancelled"), trace=work.trace))
                self.stats.cancelled_at_drain.inc()
                self.stats.errored.inc()
                raise
            except Exception as exc:   # bulkhead: dispatcher never dies
                response = error_response(
                    work.request.id,
                    ServiceError(f"internal dispatch failure: {exc}",
                                 kind="worker-lost"), trace=work.trace)
                self.stats.errored.inc()
            self._finish(work, response)

    async def _serve(self, work: _Work) -> dict:
        request = work.request
        start = time.monotonic()
        queue_wait_ms = max(0.0, (start - work.admitted_at) * 1000.0)
        key = content_key(request)
        ctx = _TraceCtx(trace=work.trace, root=new_trace_id())
        self.spans.record(
            work.trace, SPAN_QUEUE_WAIT, parent_id=ctx.root,
            t0_ms=self.spans.at(work.admitted_at), dur_ms=queue_wait_ms,
            client=work.client_id)
        try:
            result = await self._lint(request, key, work.deadline, ctx)
        except ServiceError as exc:
            self.stats.errored.inc()
            self.flight.record("request-error", trace=work.trace,
                               kind=exc.kind, key=key)
            exc.flight = tuple(self.flight.tail())
            self._emit_root(ctx, work, status="error", error=exc.kind)
            return error_response(request.id, exc, trace=work.trace)
        row = result["row"]
        end = time.monotonic()
        worker_timings = row.get("timings", {}) if not result["cached"] \
            else {}
        timings = timing_breakdown(
            queue_wait_ms=queue_wait_ms,
            analysis_ms=float(worker_timings.get("analysis_ms", 0.0)),
            confirm_ms=float(worker_timings.get("confirm_ms", 0.0)),
            total_ms=(end - work.admitted_at) * 1000.0)
        self.stats.observe_timings(timings)
        self._emit_root(ctx, work, tier=result["tier"],
                        cached=result["cached"])
        self.stats.completed.inc()
        self.stats.serve(result["tier"], degraded=result["degraded"])
        return ok_response(
            request.id, tier=result["tier"],
            verdicts=row.get("verdicts", {}),
            gadgets=row.get("gadgets", []),
            degraded=result["degraded"],
            degraded_reason=result["degraded_reason"],
            cached=result["cached"],
            coalesced=result.get("coalesced", False),
            dynamic=row.get("dynamic"),
            elapsed_s=end - start, trace=work.trace, timings=timings)

    def _emit_root(self, ctx: _TraceCtx, work: _Work,
                   status: str = "ok", **attrs) -> None:
        """Close the request root span (its id was pre-minted so child
        spans recorded during the ladder already link to it)."""
        attrs.setdefault("op", work.request.op)
        t0 = self.spans.at(work.admitted_at)
        self.spans.emit(Span(
            trace_id=work.trace, span_id=ctx.root, parent_id="",
            name="request", t0_ms=t0, dur_ms=self.spans.now() - t0,
            status=status, attrs=attrs))

    # -- the ladder ----------------------------------------------------------

    async def _lint(self, request: Request, key: str, deadline: float,
                    ctx: _TraceCtx) -> dict:
        """Cache → single-flight → compute; returns the serve record."""
        with self.spans.span(ctx.trace, SPAN_CACHE_LOOKUP,
                             parent_id=ctx.root, key=key) as lookup:
            row = self.cache.get(key)
            lookup.annotate(hit=row is not None)
        if row is not None:
            self.stats.cache_hits.inc()
            return {"row": row, "tier": row.get("tier", TIER_STATIC),
                    "degraded": False, "degraded_reason": "",
                    "cached": True}
        self.stats.cache_misses.inc()
        future, leader = self.flights.begin(key)
        if not leader:
            self.stats.coalesced.inc()
            result = await future   # leader's ServiceError propagates
            return {**result, "coalesced": True}
        try:
            result = await self._compute(request, key, deadline, ctx)
        except BaseException as exc:
            self.flights.resolve(key, error=exc)
            raise
        self.flights.resolve(key, result=result)
        return result

    async def _submit(self, pool: WorkerPool, job: dict, key: str,
                      deadline: float, ctx: _TraceCtx) -> dict:
        """One pool submission wrapped in a ``pool-dispatch`` span, with
        the worker-reported phase durations re-based as child spans."""
        with self.spans.span(ctx.trace, SPAN_POOL_DISPATCH,
                             parent_id=ctx.root, pool=pool.name,
                             key=key) as dispatch:
            row = dict(await pool.submit(job, key=key, deadline=deadline))
        self.stats.observe_summary(row.get("summary"))
        timings = row.get("timings", {})
        now = self.spans.now()
        analysis_ms = float(timings.get("analysis_ms", 0.0))
        confirm_ms = float(timings.get("confirm_ms", 0.0))
        if analysis_ms > 0.0:
            self.spans.record(
                ctx.trace, SPAN_STATIC_LINT,
                parent_id=dispatch.span_id,
                t0_ms=now - analysis_ms - confirm_ms,
                dur_ms=analysis_ms, pool=pool.name)
        if confirm_ms > 0.0:
            self.spans.record(
                ctx.trace, SPAN_CONFIRM, parent_id=dispatch.span_id,
                t0_ms=now - confirm_ms, dur_ms=confirm_ms,
                pool=pool.name)
        return row

    async def _compute(self, request: Request, key: str, deadline: float,
                       ctx: _TraceCtx) -> dict:
        if self.quarantine.blocked(key):
            raise ServiceError(
                f"content hash {key} is quarantined as a poison program",
                kind="quarantined")
        job = self._job_of(request, ctx.trace)
        reasons: List[str] = []

        # Rung 1: full static+dynamic.
        if request.confirm:
            if self.dynamic_pool.healthy:
                try:
                    row = await self._submit(
                        self.dynamic_pool, job, key, deadline, ctx)
                    row["tier"] = TIER_FULL
                    self.cache.put(key, row)
                    return {"row": row, "tier": TIER_FULL,
                            "degraded": False, "degraded_reason": "",
                            "cached": False}
                except ServiceError as exc:
                    if exc.kind != "worker-lost":
                        raise
                    reasons.append(f"dynamic confirmation lost: {exc}")
            else:
                reasons.append("dynamic pool circuit breaker is open")

        # Rung 2: static-only.
        static_key = key
        if request.confirm:
            static_key = content_key(
                dataclasses.replace(request, confirm=False))
        static_job = dict(job)
        static_job["confirm"] = False
        if self.static_pool.healthy:
            try:
                row = await self._submit(
                    self.static_pool, static_job, key, deadline, ctx)
                row["tier"] = TIER_STATIC
                self.cache.put(static_key, row)
                if request.confirm:
                    self.flight.record(
                        "degrade", trace=ctx.trace, to=TIER_STATIC,
                        reason="; ".join(reasons))
                return {"row": row, "tier": TIER_STATIC,
                        "degraded": bool(request.confirm),
                        "degraded_reason": "; ".join(reasons),
                        "cached": False}
            except ServiceError as exc:
                if exc.kind != "worker-lost":
                    raise
                reasons.append(f"static analysis lost: {exc}")
        else:
            reasons.append("static pool circuit breaker is open")

        # Rung 3: cache-only — any completed verdict for this content.
        for candidate in (key, static_key):
            row = self.cache.get(candidate)
            if row is not None:
                self.flight.record(
                    "degrade", trace=ctx.trace, to=TIER_CACHE,
                    reason="; ".join(reasons))
                return {"row": row, "tier": TIER_CACHE, "degraded": True,
                        "degraded_reason": "; ".join(reasons),
                        "cached": True}

        # Rung 4: shed, typed.
        raise ServiceError(
            "all tiers unavailable: "
            + ("; ".join(reasons) or "no pool, no cached verdict"),
            kind="degraded-unavailable")

    def _job_of(self, request: Request, trace: str = "") -> dict:
        # ``summary_dir`` points workers at the persistent summary cache,
        # one file per analysis environment: function-granular reuse
        # beneath the whole-program verdict cache (a resubmission editing
        # one function only re-analyzes it and its transitive callers).
        return {"source": request.source, "witness": request.witness,
                "secret_ranges": [list(r) for r in request.secret_ranges],
                "defense": request.defense.value,
                "confirm": request.confirm, "chaos": request.chaos,
                "max_cycles": self.config.max_confirm_cycles,
                "summary_dir": os.path.join(self.config.state_dir,
                                            "summaries"),
                "trace": trace}

    # -- observability -------------------------------------------------------

    def health(self) -> dict:
        return {"draining": self.draining,
                "admission": self.admission.snapshot(),
                "pools": [self.static_pool.snapshot(),
                          self.dynamic_pool.snapshot()],
                "cache": {"entries": len(self.cache),
                          "rejected_at_load": self.cache.rejected,
                          "in_flight": self.flights.in_flight},
                "quarantine": self.quarantine.snapshot()}


async def open_stdio_stream(
        limit: int) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Asyncio reader/writer over this process's stdin/stdout."""
    import sys
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=limit)
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    # A stream protocol, not the bare FlowControlMixin: only the former
    # implements the close waiter that StreamWriter.wait_closed() awaits.
    transport, proto = await loop.connect_write_pipe(
        lambda: asyncio.StreamReaderProtocol(asyncio.StreamReader()),
        sys.stdout)
    writer = asyncio.StreamWriter(transport, proto, reader, loop)
    return reader, writer
