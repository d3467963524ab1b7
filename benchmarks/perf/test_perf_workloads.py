"""Every workload at tiny size, and BENCHMARK.json against the code."""

import json
import os

import run as bench
import work


def _assert_clean(result, traced):
    assert result.failed == 0, result.failures
    assert result.attempted > 0
    assert result.info["digest"]
    for name in bench.HEADLINE:
        assert result.metrics[name] > 0, name
        assert result.info["raw"][name] > 0, name
    if traced:
        assert set(result.per_layer) == set(work.PER_LAYER)
        assert result.spans is not None and result.spans.spans


def test_sim_mem_tiny_traced_reproduces_the_digest():
    result = work.sim_mem(1, trace=True, profiles=("520.omnetpp_r",),
                          seeds=2, instructions=400, slice_cycles=500,
                          setups=1)
    _assert_clean(result, traced=True)
    assert result.per_layer["pipeline.tick_self_s"] > 0
    assert result.per_layer["analysis.taint_s"] == 0.0
    assert 0.0 < result.metrics["sim_ipc"] < 4.0


def test_lint_tiny_traced():
    result = work.lint(2, trace=True, programs=5, edits=2, warm_rounds=1,
                       setups=1)
    _assert_clean(result, traced=True)
    assert result.per_layer["analysis.taint_s"] > 0
    assert result.per_layer["pipeline.tick_self_s"] == 0.0
    assert result.per_layer["analysis.modular.hit_rate"] > 0.5


def test_campaign_tiny():
    result = work.campaign_fig6(3, profiles=("541.leela_r",),
                                instructions=200, setups=2)
    _assert_clean(result, traced=False)
    # A set-up probe, then per seed (S, S+1) the report and five cells.
    assert result.attempted == 1 + 2 * (1 + 5)


def test_service_tiny():
    result = work.service(4, fresh=4, confirms=1, repeats=4, setups=1)
    _assert_clean(result, traced=False)
    assert result.info["samples"] == {"fresh": 4}


def test_headline_and_per_layer_shapes():
    result = work.Run("lint", 0)
    result.metrics.update(setup_s=1.0, throughput_per_s=3.0,
                          latency_ms_p50=4.0)
    result.per_layer = dict.fromkeys(work.PER_LAYER, 0.5)
    as_dict = result.to_dict()
    assert bench.headline(as_dict)["throughput_per_s"] == {
        "value": 3.0, "unit": "1/s"}
    assert set(bench.per_layer(as_dict)) == set(work.PER_LAYER)


def test_benchmark_json_matches_the_code():
    path = os.path.join(work.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["paths"] == ["benchmarks/perf"]
    assert spec["command"] == ["python3", "benchmarks/perf/run.py"]
    assert spec["run_seconds"] == bench.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(work.WORKLOADS)
    assert {e["name"]: (e["unit"], e["better"]) for e in spec["end_to_end"]} \
        == bench.HEADLINE
    assert {e["name"]: (e["unit"], e["better"]) for e in spec["per_layer"]} \
        == work.PER_LAYER
    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25

