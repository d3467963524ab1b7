"""Campaign <-> checkpoint integration: warm sharing and graceful
degradation past a corrupt shared warm file.

Everything here runs the worker in-process (the scheduler end-to-end path
is covered by ``test_scheduler.py`` and the campaign smoke); the invariant
throughout is that checkpoint corruption costs re-simulation *time*, never
*results* and never the campaign.  SPEC and PARSEC cells run through the
same cell function, so the warm-sharing tests cover a one-core SPEC cell
and a two-thread PARSEC cell alike.
"""

import glob
import json
import os
from types import SimpleNamespace

import pytest

from repro.campaign import CampaignConfig, CellSpec, run_cell
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.worker import CheckpointPlan
from repro.checkpoint import corrupt

#: The workload fields of the SPEC cell and the two-thread PARSEC cell.
WORKLOADS = {
    "spec": dict(kind="spec", benchmark="505.mcf_r"),
    "parsec": dict(kind="parsec", benchmark="canneal", num_threads=2),
}


@pytest.fixture(params=sorted(WORKLOADS))
def make_cell(request):
    """Builds the SPEC or the PARSEC cell (SpecASan, 400 instructions, one
    warm run) with the given fields overridden."""
    def make(**overrides):
        params = dict(WORKLOADS[request.param], defense="specasan",
                      target_instructions=400, warm_runs=1)
        params.update(overrides)
        return CellSpec(**params)
    return make


def warm_plan(tmp_path):
    return CheckpointPlan(warm_dir=str(tmp_path))


class TestWarmSharing:
    def test_first_cell_produces_then_group_shares(self, tmp_path, make_cell):
        specasan = make_cell()
        row1 = run_cell(specasan, checkpointing=warm_plan(tmp_path))
        assert row1["warm"] == "produced"
        # Same instrumented-program group, different defense: shared.
        cfi = make_cell(defense="specasan+cfi")
        row2 = run_cell(cfi, checkpointing=warm_plan(tmp_path))
        assert row2["warm"] == "shared"
        assert row2["degradations"] == []
        # The checkpoint scope counts the producer's save and the share.
        produced = row1["stats"]["checkpoint"]
        shared = row2["stats"]["checkpoint"]
        assert (produced["saves"], produced["restores"]) == (1, 0)
        assert produced["bytes"] > 0
        assert (shared["saves"], shared["restores"]) == (0, 1)
        # One warm file serves the whole group.
        assert len(glob.glob(os.path.join(str(tmp_path),
                                          "warm.*.ckpt"))) == 1

    def test_warm_sharing_does_not_change_results(self, tmp_path, make_cell):
        # Producer and sharer of the same (workload, defense) measure
        # identical cycles: the shared state is exactly the produced state.
        cell = make_cell()
        row1 = run_cell(cell, checkpointing=warm_plan(tmp_path))
        row2 = run_cell(cell, checkpointing=warm_plan(tmp_path))
        assert row2["warm"] == "shared"
        assert (row1["cycles"], row1["instructions"], row1["ipc"]) == \
               (row2["cycles"], row2["instructions"], row2["ipc"])

    def test_corrupt_warm_checkpoint_degrades_to_local_warm(self, tmp_path,
                                                            make_cell):
        cell = make_cell()
        reference = run_cell(cell, checkpointing=warm_plan(tmp_path))
        [warm_path] = glob.glob(os.path.join(str(tmp_path), "warm.*.ckpt"))
        corrupt.flip_bit(warm_path, section="hierarchy")
        row = run_cell(cell, checkpointing=warm_plan(tmp_path))
        # Re-warmed locally, recorded the fault class, measured the same.
        assert row["warm"] == "produced"
        assert [(d["stage"], d["kind"]) for d in row["degradations"]] == \
               [("warm", "section-corrupt")]
        assert row["cycles"] == reference["cycles"]

    def test_disabled_plan_keeps_legacy_payload_shape(self, make_cell):
        row = run_cell(make_cell(warm_runs=0))
        assert "warm" not in row and "degradations" not in row

    def test_producer_beats_like_a_local_warm_up(self, tmp_path, make_cell):
        # A producer's warm phase must keep the heartbeat going, or the
        # scheduler reaps a long warm-up as a straggler.  The producer warms
        # under the baseline config, so a baseline cell simulates the same
        # cycles either way.
        cell = make_cell(defense="none")

        def beats(plan):
            cycles = []
            run_cell(cell, heartbeat=SimpleNamespace(interval=100,
                                                     beat=cycles.append),
                     checkpointing=plan)
            return cycles

        local = beats(CheckpointPlan())
        assert beats(CheckpointPlan(warm_dir=str(tmp_path))) == local
        assert len(local) > 10


class TestSchedulerThreading:
    def test_argv_carries_checkpoint_flags(self, tmp_path):
        config = CampaignConfig(figure="figure9",
                                benchmarks=("505.mcf_r",))
        scheduler = CampaignScheduler(config, str(tmp_path / "run"))
        cell = config.build_cells()[0]
        argv = scheduler._default_argv(
            cell, scheduler._paths(cell, attempt=1), attempt=1, reseed=0)
        assert argv[argv.index("--warm-dir") + 1] == scheduler.store.work_dir

    def test_checkpointing_disabled_drops_the_flags(self, tmp_path):
        config = CampaignConfig(figure="figure9",
                                benchmarks=("505.mcf_r",), share_warm=False)
        scheduler = CampaignScheduler(config, str(tmp_path / "run"))
        cell = config.build_cells()[0]
        argv = scheduler._default_argv(cell, scheduler._paths(cell, 0), 0, 0)
        assert "--warm-dir" not in argv


class TestCampaignDegradationReport:
    def test_corrupt_checkpoints_never_abort_and_land_in_report(
            self, tmp_path):
        run_dir = str(tmp_path / "run")
        config = CampaignConfig(
            figure="figure9", benchmarks=("505.mcf_r",),
            target_instructions=300, warm_runs=1, max_workers=2,
            backoff_base_s=0.02, backoff_jitter_s=0.02)
        first = CampaignScheduler(config, run_dir).run()
        assert first.ok and first.degradations == {}

        # Damage every durable warm file, forget the rows, and rerun: the
        # campaign must complete, record the degradations (with fault
        # class) in report.json, and reproduce the identical figure.  The
        # first reader of each damaged file degrades, and its re-warm heals
        # the file for the rest of its warm group.
        damaged = glob.glob(os.path.join(run_dir, "work", "warm.*.ckpt"))
        assert damaged
        for path in damaged:
            corrupt.flip_bit(path, section="hierarchy")
        os.unlink(os.path.join(run_dir, "results.jsonl"))
        second = CampaignScheduler(config, run_dir).run()
        assert second.ok
        assert len(second.degradations) >= len(damaged)
        report = json.loads(open(os.path.join(run_dir, "report.json"),
                                 encoding="utf-8").read())
        assert report["ok"]
        recorded_kinds = {d["kind"]
                          for degradations in report["degradations"].values()
                          for d in degradations}
        assert recorded_kinds == {"section-corrupt"}
        assert second.render() == first.render()
