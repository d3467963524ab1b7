"""Summary statistics and the outside-in tracer."""

import os
import statistics
import threading
import time

import pytest

import metrics as m
import seams
from hostspeed import HostSpeed
from repro.telemetry.obs import parse_spans


class TestPercentileRule:
    @pytest.mark.parametrize("n, expected", [
        (19, None), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
        (199, 90.0), (200, 95.0), (420, 95.0), (1000, 99.0), (10000, 99.9),
    ])
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert m.tail_percentile(n) == expected
        if expected is not None:
            assert m.beyond(n, expected) >= m.TAIL_MIN_BEYOND

    def test_named_tails_hold_for_the_default_sizes(self):
        # lint phase 1: 400 candidates + the 20 Table-1 variants; service:
        # 100 fresh requests.
        assert m.tail_percentile(420) >= 95.0
        assert m.tail_percentile(100) >= 90.0

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert m.percentile(values, 50) == 50
        assert m.percentile(values, 90) == 90
        assert m.percentile(values, 100) == 100
        assert m.percentile([7.0], 95) == 7.0

    def test_quartiles_match_the_statistics_module(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, median, q3 = statistics.quantiles(values, n=4)
        q = m.quartiles(values)
        assert (q["q1"], q["median"], q["q3"], q["n"]) == (q1, median, q3,
                                                            10)
        assert m.spread(values) == pytest.approx((q3 - q1) / median)
        assert m.quartiles([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0,
                                      "n": 1}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSelfTime:
    def test_nested_calls_split_inclusive_and_self_time(self):
        clock = FakeClock()
        tracer = seams.Tracer(clock=clock)

        def leaf():
            clock.now += 2.0

        traced_leaf = tracer.wrap("leaf", leaf)

        def outer():
            clock.now += 1.0
            traced_leaf()
            traced_leaf()
            clock.now += 3.0

        tracer.wrap("outer", outer)()
        assert tracer.totals["outer"] == [1, 8.0, 4.0]
        assert tracer.totals["leaf"] == [2, 4.0, 4.0]
        assert tracer.attributed_s() == 8.0

    def test_exceptions_still_book_and_unwind(self):
        clock = FakeClock()
        tracer = seams.Tracer(clock=clock)

        def boom():
            clock.now += 1.0
            raise RuntimeError("x")

        traced = tracer.wrap("boom", boom)
        with pytest.raises(RuntimeError):
            tracer.wrap("outer", traced)()
        assert tracer.totals["boom"] == [1, 1.0, 1.0]
        assert tracer.totals["outer"] == [1, 1.0, 0.0]
        assert tracer._children == []

    def test_buckets_book_inclusive_time_by_result(self):
        clock = FakeClock()
        tracer = seams.Tracer(clock=clock)

        def access(level):
            clock.now += 1.5
            return level

        traced = tracer.wrap("access", access, lambda level: f"at.{level}")
        traced("l1")
        traced("l1")
        traced("l2")
        assert tracer.totals["at.l1"][:2] == [2, 3.0]
        assert tracer.totals["at.l2"][:2] == [1, 1.5]

    def test_since_reports_only_new_calls(self):
        clock = FakeClock()
        tracer = seams.Tracer(clock=clock)
        a = tracer.wrap("a", lambda: None)
        b = tracer.wrap("b", lambda: None)
        a()
        before = tracer.snapshot()
        b()
        assert set(tracer.since(before)) == {"b"}


def _resolved():
    return [(seams._owner(module, cls), attr)
            for module, cls, attr, _ in seams.SEAMS]


class TestPatching:
    def test_every_seam_is_patched_then_restored(self):
        before = [(vars(owner).get(attr), getattr(owner, attr))
                  for owner, attr in _resolved()]
        with seams.patched(seams.Tracer()):
            during = [getattr(owner, attr) for owner, attr in _resolved()]
        after = [(vars(owner).get(attr), getattr(owner, attr))
                 for owner, attr in _resolved()]
        assert after == before
        assert all(now is not then for now, (_, then) in zip(during, before))

    def test_restored_after_an_exception(self):
        from repro.pipeline.core import Core
        tick = Core.tick
        with pytest.raises(KeyError):
            with seams.patched(seams.Tracer()):
                assert Core.tick is not tick
                raise KeyError("boom")
        assert Core.tick is tick

    def test_inherited_hooks_stay_inherited(self):
        from repro.core.policy import DefensePolicy, NoDefense
        with seams.patched(seams.Tracer()):
            assert "may_issue" in vars(NoDefense)
        assert "may_issue" not in vars(NoDefense)
        assert NoDefense.may_issue is DefensePolicy.may_issue


@pytest.mark.parametrize("in_process", [True, False])
def test_host_speed_samples_every_cpu_and_leaves_the_process_unpinned(
        in_process):
    allowed = os.sched_getaffinity(0)
    with HostSpeed(in_process) as speed:
        time.sleep(0.3)
        assert os.sched_getaffinity(0) == allowed
        assert speed.factor(0.0, time.perf_counter()) > 0
        followed = speed._cpus(0.0, time.perf_counter())
    assert sorted(speed._samplers) == sorted(allowed)
    assert all(s.costs for s in speed._samplers.values())
    if in_process:
        assert followed and set(followed) <= allowed
    else:
        assert followed == sorted(allowed)
    assert not any(t.name.startswith("host-speed")
                   for t in threading.enumerate())


def test_spans_round_trip_through_the_telemetry_format(tmp_path):
    log = seams.SpanLog("00000000000000ab", epoch=10.0)
    log.item("lint", 10.0, 10.5, {"analysis.taint": (3, 0.25, 0.2)},
             program="p")
    log.item("request", 11.0, 11.1, children=(("analysis", 40.0),
                                               ("other", 60.0)))
    path = tmp_path / "spans.jsonl"
    log.write(str(path))
    spans = parse_spans(path.read_text().splitlines())
    assert [s.name for s in spans] == ["lint", "analysis.taint", "request",
                                      "analysis", "other"]
    root, child = spans[0], spans[1]
    assert child.parent_id == root.span_id and root.parent_id == ""
    assert child.attrs == {"calls": 3, "self_ms": 200.0}
    assert root.dur_ms == pytest.approx(500.0)
    assert spans[4].t0_ms == pytest.approx(1040.0)
