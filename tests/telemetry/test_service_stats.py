"""The ``service.*`` stats scope: unit semantics + one scripted e2e run.

The e2e scenario drives a real service through the events the counters
exist for — admission, cache hit, a dying dynamic pool (worker deaths,
breaker trip, degraded serve), and a shed at drain — then asserts the
shutdown report's ``service.*`` numbers tell that exact story.
"""

import asyncio

import pytest

from repro.service.__main__ import _Client
from repro.telemetry.service import (ServiceStats, TIER_CACHE, TIER_FULL,
                                     TIER_STATIC)

from tests.service.test_server import (config_for, crashing_work,
                                       start_service)


class TestServiceStatsUnit:
    def test_reject_books_by_kind(self):
        stats = ServiceStats()
        stats.reject("overloaded")
        stats.reject("overloaded")
        stats.reject("draining")
        dump = stats.dump()["service"]["admission"]
        assert dump["rejected_overloaded"] == 2
        assert dump["rejected_draining"] == 1

    def test_reject_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            ServiceStats().reject("not-a-kind")

    def test_shed_fraction(self):
        stats = ServiceStats()
        for _ in range(3):
            stats.accepted.inc()
        stats.reject("overloaded")
        dump = stats.dump()["service"]["admission"]
        assert dump["shed_fraction"] == pytest.approx(0.25)

    def test_serve_tiers_and_degraded_fraction(self):
        stats = ServiceStats()
        stats.serve(TIER_FULL)
        stats.serve(TIER_STATIC, degraded=True)
        stats.serve(TIER_CACHE, degraded=True)
        dump = stats.dump()["service"]["tier"]
        assert dump["static_dynamic"] == 1
        assert dump["static"] == 1
        assert dump["cache"] == 1
        assert dump["degraded"] == 2
        assert dump["degraded_fraction"] == pytest.approx(2 / 3)

    def test_cache_hit_rate(self):
        stats = ServiceStats()
        stats.cache_hits.inc()
        stats.cache_hits.inc()
        stats.cache_misses.inc()
        dump = stats.dump()["service"]["cache"]
        assert dump["hit_rate"] == pytest.approx(2 / 3)

    def test_summary_reuse_books_worker_rows_only(self):
        stats = ServiceStats()
        stats.observe_summary({"hits": 9, "misses": 1, "reanalyzed": []})
        stats.observe_summary({"hits": 0, "misses": 2})
        stats.observe_summary(None)         # a job without a summary cache
        dump = stats.dump()["service"]["summary"]
        assert (dump["hits"], dump["misses"]) == (9, 3)
        assert dump["hit_rate"] == pytest.approx(0.75)

    def test_observe_timings_fills_latency_histograms(self):
        stats = ServiceStats()
        for total in (10.0, 20.0, 30.0):
            stats.observe_timings({"total_ms": total, "queue_wait_ms": 1.0,
                                   "analysis_ms": 5.0, "confirm_ms": 2.0})
        assert stats.request_ms.count == 3
        assert 10.0 <= stats.request_ms.p50 <= 30.0
        assert stats.request_ms.p50 <= stats.request_ms.p99
        assert stats.queue_wait_ms.count == 3
        assert stats.analysis_ms.mean == pytest.approx(5.0, abs=3.0)


class TestServiceStatsEndToEnd:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("svc-stats")

        async def scenario():
            config = config_for(tmp_path, breaker_threshold=1,
                                breaker_reset_s=30.0, max_restarts=0)
            service = await start_service(config)
            client = await _Client.connect(service.port)
            fresh = await client.request(
                {"id": "r1", "op": "lint", "witness": "pht"}, timeout=60.0)
            hit = await client.request(
                {"id": "r2", "op": "lint", "witness": "pht"})
            # Kill the dynamic pool: the confirm request costs worker
            # deaths, trips the breaker, and is served degraded.
            service.dynamic_pool.work = crashing_work
            degraded = await client.request(
                {"id": "r3", "op": "lint", "witness": "pht",
                 "confirm": True, "defense": "none"}, timeout=60.0)
            # A request after drain starts is a typed admission shed.
            service.request_drain()
            shed = await client.request(
                {"id": "r4", "op": "lint", "witness": "stl"})
            client.close()
            await asyncio.wait_for(service.wait_drained(), 30.0)
            return fresh, hit, degraded, shed, service.shutdown_report

        fresh, hit, degraded, shed, report = asyncio.run(scenario())
        assert fresh["ok"] and fresh["cached"] is False
        assert hit["cached"] is True
        assert degraded["ok"] and degraded["degraded"] is True
        assert shed["ok"] is False and shed["error"]["kind"] == "draining"
        return report["stats"]["service"]

    def test_admission_counters(self, report):
        assert report["admission"]["accepted"] == 3
        assert report["admission"]["rejected_draining"] == 1
        assert report["admission"]["shed_fraction"] == pytest.approx(0.25)

    def test_cache_counters(self, report):
        assert report["cache"]["hits"] >= 1
        assert report["cache"]["misses"] >= 1
        assert 0.0 < report["cache"]["hit_rate"] < 1.0

    def test_summary_counters_book_computed_jobs_only(self, report):
        # The fresh job misses every region; the degraded static job
        # recomputes the same program and hits each one; the verdict-cache
        # hit runs no job.
        summary = report["summary"]
        assert summary["hits"] == summary["misses"] > 0
        assert summary["hit_rate"] == pytest.approx(0.5)

    def test_tier_and_degradation_counters(self, report):
        assert report["tier"]["static"] + report["tier"]["cache"] == 3
        assert report["tier"]["degraded"] == 1
        assert report["tier"]["degraded_fraction"] == pytest.approx(1 / 3)

    def test_worker_and_breaker_counters(self, report):
        assert report["workers"]["deaths"] >= 1
        assert report["workers"]["breaker_opens"] >= 1

    def test_lifecycle_counters(self, report):
        assert report["lifecycle"]["completed"] == 3
        assert report["lifecycle"]["cancelled_at_drain"] == 0

    def test_latency_histograms_observed_every_serve(self, report):
        request = report["latency"]["request_ms"]
        assert request["count"] == 3
        assert request["p50"] > 0.0
        assert request["p50"] <= request["p95"] <= request["p99"]
        assert report["latency"]["queue_wait_ms"]["count"] == 3
