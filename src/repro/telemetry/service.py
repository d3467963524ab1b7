"""The ``service.*`` stats scope for the spec-lint service.

Every counter the always-on front end books — admission decisions, served
tiers, cache traffic, summary reuse inside computed jobs, worker
supervision events, breaker trips — lives in one
:class:`~repro.telemetry.registry.StatsRegistry` under the ``service``
prefix, following the same gem5-style convention as the ``core.*`` /
``mem.*`` / ``checkpoint.*`` scopes.  The registry is dumped into the
shutdown report and served live by the protocol's ``stats`` op, so the
degradation behaviour of a running service is observable, not anecdotal.
"""

from __future__ import annotations

from repro.errors import SERVICE_ERROR_KINDS
from repro.telemetry.registry import StatsRegistry, ratio

#: Served-tier labels, best first (the degradation ladder's rungs).
TIER_FULL = "static+dynamic"
TIER_STATIC = "static"
TIER_CACHE = "cache"
TIERS = (TIER_FULL, TIER_STATIC, TIER_CACHE)


class ServiceStats:
    """Typed handle over the ``service.*`` scope of one registry."""

    def __init__(self, registry: StatsRegistry | None = None):
        self.registry = registry if registry is not None else StatsRegistry()
        scope = self.registry.scope("service")

        admission = scope.scope("admission")
        self.accepted = admission.scalar(
            "accepted", "requests admitted past backpressure")
        self.rejected = {
            kind: admission.scalar(f"rejected_{kind.replace('-', '_')}",
                                   f"requests rejected: {kind}")
            for kind in sorted(SERVICE_ERROR_KINDS)}
        admission.formula("shed_fraction", self._shed_fraction,
                          "rejected / (accepted + rejected)")

        tiers = scope.scope("tier")
        self.tier = {
            tier: tiers.scalar(tier.replace("+", "_"),
                               f"responses served at the {tier} tier")
            for tier in TIERS}
        tiers.formula("degraded_fraction", self._degraded_fraction,
                      "responses served below the requested tier")
        self.degraded = tiers.scalar(
            "degraded", "responses downgraded below the requested tier")

        cache = scope.scope("cache")
        self.cache_hits = cache.scalar("hits", "verdicts served from cache")
        self.cache_misses = cache.scalar("misses", "verdicts computed fresh")
        self.coalesced = cache.scalar(
            "coalesced", "requests folded onto an in-flight computation")
        cache.formula("hit_rate", lambda: ratio(
            self.cache_hits.value,
            self.cache_hits.value + self.cache_misses.value),
            "cache hits / lookups")

        # Region-summary reuse inside the jobs workers computed (verdict
        # cache hits run no job and book nothing here).
        summary = scope.scope("summary")
        self.summary_hits = summary.scalar(
            "hits", "region summaries reused from the summary cache")
        self.summary_misses = summary.scalar(
            "misses", "region summaries computed fresh")
        summary.formula("hit_rate", lambda: ratio(
            self.summary_hits.value,
            self.summary_hits.value + self.summary_misses.value),
            "summary hits / lookups")

        workers = scope.scope("workers")
        self.worker_deaths = workers.scalar(
            "deaths", "worker processes that crashed, were killed, or "
                      "stalled")
        self.worker_restarts = workers.scalar(
            "restarts", "supervised restarts after a worker death")
        self.worker_reaped = workers.scalar(
            "reaped", "workers reaped for deadline/cancellation reasons")
        self.breaker_opens = workers.scalar(
            "breaker_opens", "circuit-breaker open transitions")
        self.quarantined_hashes = workers.scalar(
            "quarantined_hashes", "content hashes quarantined as poison")

        lifecycle = scope.scope("lifecycle")
        self.completed = lifecycle.scalar(
            "completed", "requests resolved with a verdict response")
        self.errored = lifecycle.scalar(
            "errored", "requests resolved with a typed error response")
        self.cancelled_at_drain = lifecycle.scalar(
            "cancelled_at_drain", "in-flight requests cut by drain timeout")

        latency = scope.scope("latency")
        self.request_ms = latency.latency(
            "request_ms", "end-to-end served-request latency (ms)")
        self.queue_wait_ms = latency.latency(
            "queue_wait_ms", "admission-to-dispatch queue wait (ms)")
        self.analysis_ms = latency.latency(
            "analysis_ms", "static-lint time inside the worker (ms)")
        self.confirm_ms = latency.latency(
            "confirm_ms", "simulator-confirmation time inside the "
                          "worker (ms)")

    # -- formulas ------------------------------------------------------------

    def _rejected_total(self) -> float:
        return sum(stat.value for stat in self.rejected.values())

    def _shed_fraction(self) -> float:
        accepted = self.accepted.value
        rejected = self._rejected_total()
        return ratio(rejected, accepted + rejected)

    def _degraded_fraction(self) -> float:
        served = sum(stat.value for stat in self.tier.values())
        return ratio(self.degraded.value, served)

    # -- convenience ---------------------------------------------------------

    def reject(self, kind: str) -> None:
        self.rejected[kind].inc()

    def serve(self, tier: str, degraded: bool = False) -> None:
        self.tier[tier].inc()
        if degraded:
            self.degraded.inc()

    def observe_timings(self, timings: dict) -> None:
        """Book one served request's envelope timing breakdown into the
        ``service.latency.*`` histograms."""
        self.request_ms.observe(timings.get("total_ms", 0.0))
        self.queue_wait_ms.observe(timings.get("queue_wait_ms", 0.0))
        self.analysis_ms.observe(timings.get("analysis_ms", 0.0))
        self.confirm_ms.observe(timings.get("confirm_ms", 0.0))

    def observe_summary(self, summary: dict | None) -> None:
        """Book the summary-cache traffic of one worker-computed row (its
        ``summary`` field; ``None`` for a job without one)."""
        if summary:
            self.summary_hits.inc(summary.get("hits", 0))
            self.summary_misses.inc(summary.get("misses", 0))

    def dump(self) -> dict:
        return self.registry.dump()
