"""Worker semantics, in-process (measurement, heartbeats, typed
failures) and forked (the outcome the pool writes for a cell)."""

import json

import pytest

from repro.campaign import CellSpec, Heartbeat, pool, run_cell
from repro.campaign.heartbeat import age_s
from repro.campaign.worker import measure_cell
from repro.errors import ReproError


def spec_cell(**overrides):
    params = dict(kind="spec", benchmark="505.mcf_r", defense="specasan",
                  target_instructions=300, warm_runs=0)
    params.update(overrides)
    return CellSpec(**params)


class TestRunCell:
    def test_spec_cell_measures(self):
        row = run_cell(spec_cell())
        assert row["halted"]
        assert row["cycles"] > 0 and row["instructions"] > 0
        assert 0.0 <= row["restricted_fraction"] <= 1.0

    def test_deterministic_across_processes_boundary(self):
        # Same spec, fresh systems: identical payloads — the property the
        # resume byte-identity guarantee is built on.
        assert run_cell(spec_cell()) == run_cell(spec_cell())

    def test_parsec_cell_measures(self):
        row = run_cell(CellSpec(kind="parsec", benchmark="canneal",
                                defense="none", target_instructions=200,
                                warm_runs=0, num_threads=2))
        assert row["halted"] and row["cycles"] > 0

    def test_cycle_budget_enforced_as_typed_error(self):
        with pytest.raises(ReproError):
            run_cell(spec_cell(max_cycles=50))

    def test_repair_cell_is_self_normalizing(self):
        row = run_cell(CellSpec(kind="repair", benchmark="pht/same-key",
                                defense="specasan"))
        assert row["verified"] and row["fixes"]
        assert row["baseline_cycles"] > 0 and row["cycles"] > 0
        assert row["halted"]
        stats = row["stats"]["repair"]["pht-same-key"]
        assert stats["baseline_cycles"] == row["baseline_cycles"]
        assert "cycles" in stats["fix1"]

    def test_repair_cell_is_deterministic(self):
        cell = CellSpec(kind="repair", benchmark="stl/untagged",
                        defense="specasan")
        assert run_cell(cell) == run_cell(cell)

    def test_heartbeat_pulsed_from_the_run_loop(self, tmp_path):
        path = str(tmp_path / "hb")
        heartbeat = Heartbeat(path, interval=100, min_wall_s=0.0)
        run_cell(spec_cell(), heartbeat=heartbeat)
        assert heartbeat.beats > 1
        assert age_s(path) is not None
        beat = json.loads(open(path, encoding="utf-8").read())
        assert beat["cycle"] > 0


def fork_cell(tmp_path, cell, warm_dir=""):
    """Measure ``cell`` in a fork, as the scheduler does; returns the
    worker and its classified exit."""
    worker = pool.fork(measure_cell, (cell, 0, warm_dir),
                       out_path=str(tmp_path / "out.json"),
                       heartbeat_path=str(tmp_path / "hb"),
                       log_path=str(tmp_path / "log"))
    worker.proc.wait(timeout=120)
    return worker, worker.exit()


class TestWorkerCLI:
    def test_success_writes_ok_outcome(self, tmp_path):
        worker, exit = fork_cell(tmp_path, spec_cell())
        assert worker.proc.returncode == 0 and exit.kind == "ok"
        assert exit.outcome["status"] == "ok"
        assert exit.outcome["row"] == run_cell(spec_cell())
        assert age_s(str(tmp_path / "hb")) is not None

    def test_typed_failure_is_exit_3_with_error_payload(self, tmp_path):
        worker, exit = fork_cell(tmp_path, spec_cell(max_cycles=50))
        assert worker.proc.returncode == pool.EXIT_TYPED_FAILURE == 3
        assert exit.kind == "typed"
        outcome = json.loads((tmp_path / "out.json").read_text())
        assert outcome["status"] == "failed"
        assert outcome["error_type"] == "SimulationError"
        assert "50 cycles" in outcome["error"]
