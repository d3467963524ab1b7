"""Request-scoped tracing end to end: trace IDs in responses, the span
log on disk, the timing-breakdown envelope, and the flight-recorder dump
on induced failure."""

import asyncio
import json
import os

import pytest

from repro.service.__main__ import _Client
from repro.service.server import FLIGHT_DUMP, SPANS_LOG
from repro.telemetry.obs import (SPAN_CACHE_LOOKUP, SPAN_POOL_DISPATCH,
                                 SPAN_QUEUE_WAIT, SPAN_STATIC_LINT,
                                 is_trace_id, load_spans, render_span_tree,
                                 span_forest)

from tests.service.test_server import (config_for, crashing_work,
                                       start_service, stop_service)

#: Every worker fork must happen in a one-thread process.
pytestmark = pytest.mark.filterwarnings(
    "error:forking a worker:DeprecationWarning")


class TestTracingEndToEnd:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        """One scripted run: a fresh lint, a cache hit, a client-supplied
        trace, and an induced worker-loss failure; then drain."""
        tmp_path = tmp_path_factory.mktemp("svc-tracing")

        async def scenario():
            config = config_for(tmp_path, breaker_threshold=1,
                                max_restarts=0)
            service = await start_service(config)
            client = await _Client.connect(service.port)
            fresh = await client.request(
                {"id": "r1", "op": "lint", "witness": "pht"}, timeout=60.0)
            hit = await client.request(
                {"id": "r2", "op": "lint", "witness": "pht"})
            tagged = await client.request(
                {"id": "r3", "op": "lint", "witness": "pht",
                 "trace": "cafe1234cafe1234"})
            # Induced failure: both pools die for never-seen content, so
            # the ladder runs dry and the request errors with the flight
            # tail attached server-side.
            service.static_pool.work = crashing_work
            service.dynamic_pool.work = crashing_work
            failed = await client.request(
                {"id": "r4", "op": "lint", "witness": "stl",
                 "trace": "deadbeefdeadbeef"}, timeout=60.0)
            client.close()
            await stop_service(service)
            return fresh, hit, tagged, failed, config.state_dir

        return asyncio.run(scenario())

    def test_response_carries_minted_trace(self, traced):
        fresh, hit, _, _, _ = traced
        assert is_trace_id(fresh["trace"]) and len(fresh["trace"]) == 16
        assert is_trace_id(hit["trace"])
        assert fresh["trace"] != hit["trace"]

    def test_client_supplied_trace_is_echoed(self, traced):
        _, _, tagged, failed, _ = traced
        assert tagged["trace"] == "cafe1234cafe1234"
        assert failed["trace"] == "deadbeefdeadbeef"

    def test_timing_parts_sum_to_total(self, traced):
        fresh, hit, tagged, _, _ = traced
        for response in (fresh, hit, tagged):
            timings = response["timings"]
            parts = (timings["queue_wait_ms"] + timings["analysis_ms"]
                     + timings["confirm_ms"] + timings["other_ms"])
            assert parts == pytest.approx(timings["total_ms"], abs=0.01)
        assert fresh["timings"]["analysis_ms"] > 0.0
        assert hit["timings"]["analysis_ms"] == 0.0   # cache tier: no worker

    def test_span_log_reconstructs_the_request(self, traced):
        fresh, _, _, failed, state_dir = traced
        spans = load_spans(os.path.join(state_dir, SPANS_LOG))
        forest = span_forest(spans)
        assert fresh["trace"] in forest
        root, kids = forest[fresh["trace"]][0]
        assert root.name == "request"
        assert root.status == "ok"
        names = [kid.name for kid, _ in kids]
        assert SPAN_QUEUE_WAIT in names
        assert SPAN_CACHE_LOOKUP in names
        assert SPAN_POOL_DISPATCH in names
        dispatch_kids = next(grand for kid, grand in kids
                             if kid.name == SPAN_POOL_DISPATCH)
        assert SPAN_STATIC_LINT in [kid.name for kid, _ in dispatch_kids]
        # The failed request's root span records the error status.
        failed_root = forest[failed["trace"]][0][0]
        assert failed_root.status == "error"

    def test_span_tree_renders_the_trace(self, traced):
        fresh, _, _, _, state_dir = traced
        spans = load_spans(os.path.join(state_dir, SPANS_LOG))
        text = render_span_tree(spans, trace_id=fresh["trace"])
        assert f"trace {fresh['trace']}" in text
        assert "request" in text and SPAN_POOL_DISPATCH in text

    def test_flight_dump_holds_the_failed_trace(self, traced):
        _, _, _, failed, state_dir = traced
        with open(os.path.join(state_dir, FLIGHT_DUMP),
                  encoding="utf-8") as handle:
            dump = json.load(handle)
        assert dump["recorded"] >= 1
        traces = {event.get("trace") for event in dump["events"]}
        assert failed["trace"] in traces
        events = {event["event"] for event in dump["events"]}
        assert "request-error" in events

    def test_shutdown_report_references_flight_dump(self, traced):
        *_, state_dir = traced
        with open(os.path.join(state_dir, "shutdown-report.json"),
                  encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["flight"]["dump"] == FLIGHT_DUMP
        assert report["flight"]["recorded"] >= 1
