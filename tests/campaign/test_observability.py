"""Campaign-side observability: per-cell traces, the run-dir span log,
periodic metrics dumps, and the flight-recorder dump."""

import json
import os

from repro.campaign import CampaignScheduler, ResultStore
from repro.campaign.cells import CellSpec
from repro.campaign.scheduler import (FLIGHT_DUMP, METRICS_JSON,
                                      METRICS_PROM, SPANS_LOG)
from repro.telemetry.obs import is_trace_id, load_spans, span_forest

from tests.campaign.test_scheduler import quick_config
from tests.campaign.test_worker import fork_cell


class TestSchedulerObservability:
    def run_once(self, tmp_path):
        run_dir = str(tmp_path / "run")
        outcome = CampaignScheduler(quick_config(), run_dir).run()
        assert outcome.ok
        return run_dir, outcome

    def test_run_dir_artifacts_and_traces(self, tmp_path):
        run_dir, outcome = self.run_once(tmp_path)

        # Every completed record carries its cell's 16-hex trace.
        records, corrupt = ResultStore(run_dir).load()
        assert corrupt == []
        traces = {record["cell_id"]: record["trace"] for record in records}
        assert len(traces) == len(outcome.completed)
        for trace in traces.values():
            assert is_trace_id(trace) and len(trace) == 16
        assert len(set(traces.values())) == len(traces), \
            "each cell gets its own trace"

        # The span log reconstructs each attempt with its phase children.
        spans = load_spans(os.path.join(run_dir, SPANS_LOG))
        forest = span_forest(spans)
        for cell_id, trace in traces.items():
            assert trace in forest, f"no spans for {cell_id}"
            root, kids = forest[trace][0]
            assert root.name == "cell-attempt"
            assert root.status == "ok"
            kid_names = [kid.name for kid, _ in kids]
            assert "simulate" in kid_names
            assert "workload-generate" in kid_names
            # Phase children tile the attempt sequentially.
            starts = [kid.t0_ms for kid, _ in kids]
            assert starts == sorted(starts)

        # Metrics dumps: the JSON registry and the Prometheus exposition.
        metrics = json.loads(open(os.path.join(run_dir, METRICS_JSON),
                                  encoding="utf-8").read())
        campaign = metrics["campaign"]
        assert campaign["cells_completed"] == len(outcome.completed)
        assert campaign["attempts_launched"] >= len(outcome.completed)
        assert campaign["cell_latency_ms"]["count"] >= 1
        assert campaign["cell_latency_ms"]["p50"] > 0.0
        prom = open(os.path.join(run_dir, METRICS_PROM),
                    encoding="utf-8").read()
        assert "repro_campaign_cells_completed" in prom

        # The flight recorder dumped with one launch event per attempt.
        flight = json.loads(open(os.path.join(run_dir, FLIGHT_DUMP),
                                 encoding="utf-8").read())
        launches = [event for event in flight["events"]
                    if event["event"] == "cell-launch"]
        assert len(launches) >= len(outcome.completed)
        assert all(is_trace_id(event["trace"]) for event in launches)


class TestWorkerTraceEcho:
    """The cell's trace stays with the scheduler, which records it with
    the row; the forked cell's envelope carries the row and, beside it,
    the phase timings the scheduler turns into spans."""

    def test_timings_ride_the_envelope_not_the_row(self, tmp_path):
        cell = CellSpec(kind="spec", benchmark="505.mcf_r",
                        defense="specasan", target_instructions=300,
                        warm_runs=0)
        _, exit = fork_cell(tmp_path, cell)
        outcome = exit.outcome
        assert exit.kind == "ok" and set(outcome) == {"status", "row",
                                                      "timings"}
        # Wall-clock phase timings ride the envelope, never the row.
        assert outcome["timings"]["run_ms"] > 0.0
        assert "timings" not in outcome["row"]
        assert not any(key.endswith("_ms") for key in outcome["row"])

    def test_without_flag_no_trace_key(self, tmp_path):
        cell = CellSpec(kind="repair", benchmark="pht/same-key",
                        defense="specasan", target_instructions=0,
                        warm_runs=0)
        _, exit = fork_cell(tmp_path, cell)
        assert exit.kind == "ok"
        assert "trace" not in exit.outcome
        assert exit.outcome["timings"]["synthesize_ms"] >= 0.0
