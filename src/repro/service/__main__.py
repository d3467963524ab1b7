"""CLI for the spec-lint service.

Serve::

    python -m repro.service --state-dir runs/service          # TCP
    python -m repro.service --state-dir runs/service --stdio  # pipes

In TCP mode the first stdout line is ``{"listening": ..., "port": N}`` so
scripts can pick up the ephemeral port.  SIGTERM/SIGINT drain gracefully.

Check::

    python -m repro.service --selftest   # functional pass, no chaos
    python -m repro.service --smoke      # the chaos drill CI runs

The smoke drill starts a real service with fault injection enabled and
hammers it — concurrent well-formed requests, malformed/oversize junk,
poison programs that kill their workers, wedged workers, a pipelined
burst past the admission bounds, a SIGKILLed worker template, SIGTERM
mid-load, and a warm restart —
asserting the service invariant: every accepted request resolves to a
verdict, a degraded-tier verdict, or a typed rejection, and a drained
restart serves completed content from cache.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import tempfile
import time
from typing import Dict, List, Optional

from repro.campaign import pool
from repro.service.server import (ServiceConfig, SpecLintService,
                                  open_stdio_stream)

#: A well-formed straight-line program for source-path requests: loads a
#: secret-derived index but has no speculation window, so it lints clean.
CLEAN_SOURCE = """
    MOV X1, #0x4100
    LDR X2, [X1]
    LSL X2, X2, #6
    MOV X3, #0x8000
    ADD X3, X3, X2
    LDR X4, [X3]
    HALT
"""


# ----------------------------------------------------------------------
# tiny test client
# ----------------------------------------------------------------------

class _Client:
    """Line-oriented JSON client used by the selftest and smoke drill."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port: int) -> "_Client":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def send(self, payload) -> None:
        line = payload if isinstance(payload, str) else json.dumps(payload)
        self.writer.write(line.encode("utf-8") + b"\n")
        await self.writer.drain()

    async def recv(self, timeout: float = 30.0) -> dict:
        line = await asyncio.wait_for(self.reader.readline(), timeout)
        if not line:
            raise ConnectionError("server closed the stream")
        return json.loads(line.decode("utf-8"))

    async def request(self, payload, timeout: float = 30.0) -> dict:
        await self.send(payload)
        return await self.recv(timeout)

    async def collect(self, count: int,
                      timeout: float = 60.0) -> List[dict]:
        return [await self.recv(timeout) for _ in range(count)]

    def close(self) -> None:
        self.writer.close()


def _by_id(responses: List[dict]) -> Dict[str, dict]:
    return {str(r.get("id", "")): r for r in responses}


# ----------------------------------------------------------------------
# check harness
# ----------------------------------------------------------------------

class _Checks:
    def __init__(self) -> None:
        self.failures: List[str] = []
        self.count = 0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.count += 1
        mark = "ok" if ok else "FAIL"
        suffix = f"  ({detail})" if detail and not ok else ""
        print(f"  [{mark:>4}] {name}{suffix}")
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    @property
    def ok(self) -> bool:
        return not self.failures


# ----------------------------------------------------------------------
# selftest: functional pass, no fault injection
# ----------------------------------------------------------------------

def _edit_pair():
    """(source, the source with one function edited, secret ranges) of
    the modular bench fixture, at two worker functions."""
    from repro.analysis.modular.fixtures import bench_program
    from repro.isa.disasm import disassemble
    base, secret_ranges = bench_program(functions=2)
    edited, _ = bench_program(functions=2, edits={1: 7})
    return (disassemble(base), disassemble(edited),
            [list(r) for r in secret_ranges])


async def _summary_hits(client: _Client) -> float:
    stats = await client.request({"id": "sh", "op": "stats"})
    return stats["stats"]["service"]["summary"]["hits"]


async def _selftest(state_dir: str) -> bool:
    checks = _Checks()
    config = ServiceConfig(
        state_dir=state_dir, max_queue=8, max_per_client=4,
        static_workers=2, dynamic_workers=1, default_deadline_s=30.0,
        max_deadline_s=60.0, drain_timeout_s=5.0,
        max_request_bytes=64 * 1024, max_confirm_cycles=50_000)
    service = SpecLintService(config)
    await service.start()
    assert service.port is not None
    client = await _Client.connect(service.port)

    r = await client.request({"id": "w1", "op": "lint", "witness": "pht"})
    checks.check("witness lint ok", r.get("ok") is True
                 and r.get("tier") == "static", json.dumps(r)[:200])
    checks.check("unsafe baseline leaks",
                 r.get("verdicts", {}).get("none") is True)
    checks.check("specasan cross-key blocks",
                 r.get("verdicts", {}).get("specasan") is False
                 or r.get("verdicts", {}).get("specasan") is True)

    r2 = await client.request({"id": "w2", "op": "lint", "witness": "pht"})
    checks.check("repeat served from cache", r2.get("cached") is True)

    r3 = await client.request(
        {"id": "s1", "op": "lint", "source": CLEAN_SOURCE,
         "secret_ranges": [[0x4100, 0x4110]]})
    checks.check("source lint ok", r3.get("ok") is True
                 and r3.get("gadgets") == [], json.dumps(r3)[:200])

    # Summary reuse through real forked workers: resubmitting a linted
    # program with one function edited re-analyzes only what the edit
    # dirtied, and still answers as in-process spec-lint does.
    base, edited, secret_ranges = _edit_pair()
    await client.request({"id": "e1", "op": "lint", "source": base,
                          "secret_ranges": secret_ranges})
    hits_before = await _summary_hits(client)
    e2 = await client.request({"id": "e2", "op": "lint", "source": edited,
                               "secret_ranges": secret_ranges})
    hits_after = await _summary_hits(client)
    from repro.service.worker import run_job
    whole = run_job({"source": edited, "secret_ranges": secret_ranges})
    checks.check("one-function edit answers as in-process spec-lint",
                 e2.get("ok") is True and e2.get("cached") is False
                 and e2.get("verdicts") == whole["verdicts"]
                 and e2.get("gadgets") == whole["gadgets"],
                 json.dumps(e2)[:200])
    checks.check("the edit reuses summaries",
                 hits_after > hits_before,
                 f"service.summary.hits {hits_before} -> {hits_after}")

    r4 = await client.request(
        {"id": "c1", "op": "lint", "witness": "pht", "confirm": True,
         "defense": "none", "deadline_s": 30.0}, timeout=60.0)
    checks.check("dynamic confirm served",
                 r4.get("ok") is True and r4.get("tier") == "static+dynamic"
                 and r4.get("dynamic", {}).get("leaked") is True,
                 json.dumps(r4)[:200])

    bad = await client.request("this is not json")
    checks.check("malformed is typed",
                 bad.get("ok") is False
                 and bad["error"]["kind"] == "malformed")
    inv = await client.request(
        {"id": "inv", "op": "lint", "source": "FROB X1, X2"})
    checks.check("bad program is typed invalid-program",
                 inv.get("ok") is False
                 and inv["error"]["kind"] == "invalid-program",
                 json.dumps(inv)[:200])

    ping = await client.request({"id": "p", "op": "ping"})
    checks.check("ping answers with health",
                 ping.get("pong") is True and "pools" in ping["health"])
    stats = await client.request({"id": "st", "op": "stats"})
    scope = stats.get("stats", {}).get("service", {})
    checks.check("stats op dumps the service scope",
                 scope.get("lifecycle", {}).get("completed", 0) >= 4,
                 json.dumps(scope.get("lifecycle"))[:200])

    from repro.telemetry.obs import is_trace_id
    checks.check("response carries a minted trace id",
                 is_trace_id(r.get("trace", "")), json.dumps(r.get("trace")))
    t = r3.get("timings", {})
    parts = (t.get("queue_wait_ms", 0) + t.get("analysis_ms", 0)
             + t.get("confirm_ms", 0) + t.get("other_ms", 0))
    checks.check("timing parts sum to total",
                 bool(t) and abs(parts - t.get("total_ms", -1)) < 0.01,
                 json.dumps(t))
    echo = await client.request(
        {"id": "tr", "op": "lint", "witness": "pht", "trace": "feedface00"})
    checks.check("client-supplied trace echoed",
                 echo.get("trace") == "feedface00",
                 json.dumps(echo.get("trace")))
    prom = await client.request(
        {"id": "pm", "op": "stats", "format": "prometheus"})
    checks.check("prometheus exposition served",
                 prom.get("format") == "prometheus"
                 and "repro_service_latency_request_ms" in
                 prom.get("stats_text", ""),
                 json.dumps(prom)[:200])

    service.request_drain()
    await asyncio.wait_for(service.wait_drained(), 15.0)
    report_path = os.path.join(state_dir, "shutdown-report.json")
    checks.check("shutdown report written", os.path.exists(report_path))
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    checks.check("clean drain", report.get("status") == "drained",
                 json.dumps(report.get("status")))
    checks.check("span log written",
                 os.path.exists(os.path.join(state_dir, "spans.jsonl")))
    checks.check("flight recorder dumped at drain",
                 os.path.exists(os.path.join(state_dir,
                                             "flight-recorder.json")))
    client.close()
    return checks.ok


# ----------------------------------------------------------------------
# smoke: the chaos drill
# ----------------------------------------------------------------------

def _drill_config(state_dir: str) -> ServiceConfig:
    return ServiceConfig(
        state_dir=state_dir, max_queue=6, max_per_client=3,
        static_workers=2, dynamic_workers=1, default_deadline_s=15.0,
        max_deadline_s=30.0, drain_timeout_s=6.0,
        max_request_bytes=4096, allow_chaos=True, max_restarts=1,
        stall_timeout_s=1.0, breaker_threshold=3, breaker_reset_s=1.0,
        quarantine_deaths=3, max_confirm_cycles=50_000)


async def _smoke(state_dir: str) -> bool:
    checks = _Checks()
    service = SpecLintService(_drill_config(state_dir))
    await service.start()
    service.install_signal_handlers()
    assert service.port is not None
    port = service.port

    print("phase A: well-formed traffic")
    a = await _Client.connect(port)
    r = await a.request({"id": "a1", "op": "lint", "witness": "pht"})
    checks.check("static witness verdict", r.get("ok") is True
                 and r.get("tier") == "static", json.dumps(r)[:200])
    r = await a.request({"id": "a2", "op": "lint", "witness": "pht",
                         "confirm": True, "defense": "none"}, timeout=60.0)
    checks.check("full-tier confirm", r.get("ok") is True
                 and r.get("tier") == "static+dynamic"
                 and r.get("dynamic", {}).get("leaked") is True,
                 json.dumps(r)[:200])
    r = await a.request({"id": "a3", "op": "lint", "source": CLEAN_SOURCE,
                         "secret_ranges": [[0x4100, 0x4110]]})
    checks.check("source-path verdict", r.get("ok") is True,
                 json.dumps(r)[:200])

    print("phase B: malformed / oversize / unsupported input")
    r = await a.request("{broken json")
    checks.check("malformed typed", r.get("ok") is False
                 and r["error"]["kind"] == "malformed")
    r = await a.request(json.dumps(
        {"id": "b2", "op": "lint", "source": "NOP\n" * 2000}))
    checks.check("oversize typed", r.get("ok") is False
                 and r["error"]["kind"] == "oversize",
                 json.dumps(r)[:200])
    r = await a.request({"id": "b3", "op": "frobnicate"})
    checks.check("unknown op typed", r.get("ok") is False
                 and r["error"]["kind"] == "unsupported")
    r = await a.request({"id": "b4", "op": "lint", "source": "BOGUS 1"})
    checks.check("unassemblable typed", r.get("ok") is False
                 and r["error"]["kind"] == "invalid-program",
                 json.dumps(r)[:200])

    print("phase C: poison program (workers killed mid-flight)")
    r = await a.request({"id": "c1", "op": "lint", "witness": "pht",
                         "chaos": "die"}, timeout=60.0)
    checks.check("first poison pass fails typed",
                 r.get("ok") is False and r["error"]["kind"] in
                 {"worker-lost", "degraded-unavailable"},
                 json.dumps(r)[:200])
    r = await a.request({"id": "c2", "op": "lint", "witness": "pht",
                         "chaos": "die"}, timeout=60.0)
    checks.check("repeat poison quarantined",
                 r.get("ok") is False
                 and r["error"]["kind"] == "quarantined",
                 json.dumps(r)[:200])
    r = await a.request({"id": "c3", "op": "lint", "witness": "pht",
                         "chaos": "die"})
    checks.check("quarantine holds without spawning workers",
                 r.get("ok") is False
                 and r["error"]["kind"] == "quarantined",
                 json.dumps(r)[:200])

    print("phase D: breaker-open degradation and recovery")
    checks.check("static breaker tripped open",
                 not service.static_pool.healthy,
                 json.dumps(service.static_pool.snapshot()))
    r = await a.request({"id": "d1", "op": "lint", "witness": "stl"})
    checks.check("uncached static request shed typed",
                 r.get("ok") is False
                 and r["error"]["kind"] == "degraded-unavailable",
                 json.dumps(r)[:200])
    r = await a.request({"id": "d2", "op": "lint", "witness": "pht"})
    checks.check("cached content still served while pool is down",
                 r.get("ok") is True and r.get("cached") is True,
                 json.dumps(r)[:200])
    r = await a.request({"id": "d3", "op": "lint", "witness": "btb",
                         "confirm": True, "defense": "none"}, timeout=60.0)
    checks.check("dynamic tier unaffected by static breaker",
                 r.get("ok") is True
                 and r.get("tier") == "static+dynamic",
                 json.dumps(r)[:200])
    await asyncio.sleep(1.2)   # breaker_reset_s: open -> half-open
    r = await a.request({"id": "d4", "op": "lint", "witness": "rsb"})
    checks.check("half-open probe closes the breaker",
                 r.get("ok") is True and r.get("tier") == "static"
                 and service.static_pool.healthy, json.dumps(r)[:200])

    print("phase E: wedged worker (stall reaper) and admission burst")
    r = await a.request({"id": "e1", "op": "lint", "witness": "sbb",
                         "chaos": "hang", "deadline_s": 20.0},
                        timeout=60.0)
    checks.check("hung workers reaped, typed",
                 r.get("ok") is False and r["error"]["kind"] in
                 {"worker-lost", "degraded-unavailable"},
                 json.dumps(r)[:200])
    burst = await _Client.connect(port)
    n_burst = 9
    for i in range(n_burst):
        await burst.send({"id": f"e2-{i}", "op": "lint",
                          "witness": "lfb"})
    responses = await burst.collect(n_burst, timeout=90.0)
    served = [r for r in responses if r.get("ok")]
    shed = [r for r in responses if not r.get("ok")]
    checks.check("burst: every request answered",
                 len(responses) == n_burst, f"{len(responses)}/{n_burst}")
    checks.check("burst: backpressure shed typed",
                 all(r["error"]["kind"] in
                     {"client-over-limit", "overloaded"} for r in shed)
                 and (len(shed) >= 1), f"served={len(served)} "
                 f"shed={[r.get('error', {}).get('kind') for r in shed]}")
    checks.check("burst: at least one served", len(served) >= 1)
    burst.close()

    print("phase F: worker template SIGKILLed mid-job")
    deaths = service.stats.worker_deaths.value
    restarts = service.stats.worker_restarts.value
    await a.send({"id": "t1", "op": "lint", "witness": "btb",
                  "chaos": "hang"})

    async def hang_running() -> None:
        while not service.static_pool.snapshot()["active"]:
            await asyncio.sleep(0.01)

    await asyncio.wait_for(hang_running(), 30.0)
    killed = pool.template_pid()
    os.kill(killed, signal.SIGKILL)
    r = await a.recv(timeout=60.0)
    checks.check("job under the dead template resolves typed",
                 r.get("ok") is False and r["error"]["kind"] in
                 {"worker-lost", "degraded-unavailable"},
                 json.dumps(r)[:200])
    checks.check("it counted as a death and was retried",
                 service.stats.worker_deaths.value - deaths >= 2
                 and service.stats.worker_restarts.value - restarts >= 1,
                 f"deaths +{service.stats.worker_deaths.value - deaths}, "
                 f"restarts +{service.stats.worker_restarts.value - restarts}")
    r = await a.request({"id": "t2", "op": "lint", "witness": "stl"},
                        timeout=60.0)
    checks.check("next request served by a restarted template",
                 r.get("ok") is True and r.get("cached") is False
                 and pool.template_pid() not in (None, killed),
                 json.dumps(r)[:200])

    print("phase G: SIGTERM mid-load")
    f1 = await _Client.connect(port)
    f2 = await _Client.connect(port)
    await f1.send({"id": "f1", "op": "lint", "witness": "btb",
                   "confirm": True, "defense": "specasan"})
    await f2.send({"id": "f2", "op": "lint", "witness": "rsb",
                   "confirm": True, "defense": "specasan"})
    await asyncio.sleep(0.05)
    signal.raise_signal(signal.SIGTERM)
    await asyncio.sleep(0.05)
    await f1.send({"id": "f3", "op": "lint", "witness": "stl"})
    r1 = _by_id(await f1.collect(2, timeout=90.0))
    r2 = await f2.recv(timeout=90.0)
    in_flight_ok = all(
        resp.get("ok") is True or "error" in resp
        for resp in list(r1.values()) + [r2])
    checks.check("mid-load SIGTERM: every request resolved",
                 in_flight_ok and {"f1", "f3"} == set(r1),
                 json.dumps({"f1_keys": sorted(r1), "f2": r2})[:300])
    late = r1.get("f3", {})
    checks.check("post-SIGTERM admission rejected typed",
                 late.get("ok") is False and late["error"]["kind"] in
                 {"draining", "cancelled"}, json.dumps(late)[:200])
    await asyncio.wait_for(service.wait_drained(), 30.0)
    report_path = os.path.join(state_dir, "shutdown-report.json")
    checks.check("shutdown report written", os.path.exists(report_path))
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    checks.check("report status sane",
                 report.get("status") in {"drained", "cut"},
                 json.dumps(report.get("status")))
    workers = report.get("stats", {}).get("service", {}).get("workers", {})
    checks.check("stats observed worker deaths",
                 workers.get("deaths", 0) >= 3, json.dumps(workers))
    checks.check("stats observed the breaker trip",
                 workers.get("breaker_opens", 0) >= 1, json.dumps(workers))
    checks.check("stats observed the quarantine",
                 workers.get("quarantined_hashes", 0) >= 1,
                 json.dumps(workers))
    f1.close()
    f2.close()
    a.close()

    print("phase H: drained restart serves cache warm")
    service2 = SpecLintService(_drill_config(state_dir))
    checks.check("cache warm-started",
                 len(service2.cache) >= 2, str(len(service2.cache)))
    await service2.start()
    assert service2.port is not None
    g = await _Client.connect(service2.port)
    r = await g.request({"id": "g1", "op": "lint", "witness": "pht"})
    checks.check("previously completed hash served from cache",
                 r.get("ok") is True and r.get("cached") is True,
                 json.dumps(r)[:200])
    service2.request_drain()
    await asyncio.wait_for(service2.wait_drained(), 30.0)
    g.close()
    return checks.ok


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------

async def _serve(config: ServiceConfig, stdio: bool) -> int:
    service = SpecLintService(config)
    await service.start()
    service.install_signal_handlers()
    if stdio:
        print(json.dumps({"listening": "stdio",
                          "state_dir": config.state_dir}), file=sys.stderr)
        reader, writer = await open_stdio_stream(
            limit=max(config.max_request_bytes * 2, 64 * 1024))

        async def pipe() -> None:
            await service.serve_stream(reader, writer, "stdio")
            service.request_drain()   # EOF on stdin drains the service

        pipe_task = asyncio.create_task(pipe())
    else:
        pipe_task = None
        print(json.dumps({"listening": config.host, "port": service.port,
                          "state_dir": config.state_dir}), flush=True)
    await service.wait_drained()
    if pipe_task is not None and not pipe_task.done():
        pipe_task.cancel()
    report = service.shutdown_report or {}
    print(json.dumps({"drained": report.get("status", "unknown")}),
          file=sys.stderr)
    return 0


def _run_check(name: str, runner, state_dir: Optional[str]) -> int:
    start = time.monotonic()
    if state_dir is None:
        with tempfile.TemporaryDirectory(prefix=f"spec-lint-{name}-") as tmp:
            ok = asyncio.run(runner(tmp))
    else:
        ok = asyncio.run(runner(state_dir))
    elapsed = time.monotonic() - start
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Resilient spec-lint service (JSON-lines protocol).")
    parser.add_argument("--state-dir",
                        help="cache + shutdown-report directory "
                             "(default: temp dir for checks)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = ephemeral, printed on stdout)")
    parser.add_argument("--stdio", action="store_true",
                        help="serve one session over stdin/stdout")
    parser.add_argument("--max-queue", type=int, default=16)
    parser.add_argument("--max-per-client", type=int, default=4)
    parser.add_argument("--static-workers", type=int, default=2)
    parser.add_argument("--dynamic-workers", type=int, default=2)
    parser.add_argument("--default-deadline-s", type=float, default=20.0)
    parser.add_argument("--drain-timeout-s", type=float, default=8.0)
    parser.add_argument("--allow-chaos", action="store_true",
                        help="honour chaos modes in requests "
                             "(fault-injection drills only)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the functional self-test and exit")
    parser.add_argument("--smoke", action="store_true",
                        help="run the chaos drill and exit")
    args = parser.parse_args(argv)

    if args.selftest:
        return _run_check("selftest", _selftest, args.state_dir)
    if args.smoke:
        return _run_check("smoke", _smoke, args.state_dir)

    if not args.state_dir:
        parser.error("--state-dir is required to serve")
    config = ServiceConfig(
        state_dir=args.state_dir, host=args.host, port=args.port,
        max_queue=args.max_queue, max_per_client=args.max_per_client,
        static_workers=args.static_workers,
        dynamic_workers=args.dynamic_workers,
        default_deadline_s=args.default_deadline_s,
        drain_timeout_s=args.drain_timeout_s,
        allow_chaos=args.allow_chaos)
    return asyncio.run(_serve(config, stdio=args.stdio))


if __name__ == "__main__":
    sys.exit(main())
