"""Campaign <-> checkpoint integration: warm sharing, mid-cell resume,
retry reuse, and graceful degradation past corrupt files.

Everything here runs the worker in-process (the scheduler end-to-end path
is covered by ``test_scheduler.py`` and the campaign smoke); the invariant
throughout is that checkpoint corruption costs re-simulation *time*, never
*results* and never the campaign.  SPEC and PARSEC cells run through the
same cell function, so the warm-sharing and resume tests cover a one-core
SPEC cell and a two-thread PARSEC cell alike.
"""

import glob
import json
import os
from types import SimpleNamespace

import pytest

from repro.campaign import CampaignConfig, CellSpec, run_cell
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.worker import CheckpointPlan, _cell_programs
from repro.campaign.cells import system_config
from repro.checkpoint import CheckpointManager, corrupt
from repro.system import build_system

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


def plan_for(tmp_path, cell, interval=150):
    safe = cell.cell_id.replace(":", "_").replace("+", "")
    return CheckpointPlan(stem=os.path.join(str(tmp_path), safe),
                          interval=interval, keep=2,
                          warm_dir=str(tmp_path))


class TestWarmSharing:
    def test_first_cell_produces_then_group_shares(self, tmp_path, make_cell):
        specasan = make_cell()
        row1 = run_cell(specasan, checkpointing=plan_for(tmp_path, specasan))
        assert row1["warm"] == "produced"
        # Same instrumented-program group, different defense: shared.
        cfi = make_cell(defense="specasan+cfi")
        row2 = run_cell(cfi, checkpointing=plan_for(tmp_path, cfi))
        assert row2["warm"] == "shared"
        assert row2["degradations"] == []
        # One warm file serves the whole group.
        assert len(glob.glob(os.path.join(str(tmp_path),
                                          "warm.*.ckpt"))) == 1

    def test_warm_sharing_does_not_change_results(self, tmp_path, make_cell):
        # Producer and sharer of the same (workload, defense) measure
        # identical cycles: the shared state is exactly the produced state.
        cell = make_cell()
        row1 = run_cell(cell, checkpointing=plan_for(tmp_path, cell))
        for path in glob.glob(os.path.join(str(tmp_path), "*.ckpt.*")):
            os.unlink(path)  # drop generations so the rerun re-measures
        row2 = run_cell(cell, checkpointing=plan_for(tmp_path, cell))
        assert row2["warm"] == "shared"
        assert (row1["cycles"], row1["instructions"], row1["ipc"]) == \
               (row2["cycles"], row2["instructions"], row2["ipc"])

    def test_corrupt_warm_checkpoint_degrades_to_local_warm(self, tmp_path,
                                                            make_cell):
        cell = make_cell()
        reference = run_cell(cell, checkpointing=plan_for(tmp_path, cell))
        [warm_path] = glob.glob(os.path.join(str(tmp_path), "warm.*.ckpt"))
        corrupt.flip_bit(warm_path, section="hierarchy")
        for path in glob.glob(os.path.join(str(tmp_path), "*.ckpt.*")):
            os.unlink(path)
        row = run_cell(cell, checkpointing=plan_for(tmp_path, cell))
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


class TestMidCellResume:
    def test_retry_resumes_from_prior_attempts_generation(self, tmp_path,
                                                          make_cell):
        # The "attempt 0 died mid-cell" shape: a checkpoint exists at the
        # attempt-independent stem; the retried cell must restore it and
        # still produce exactly the straight-through row.
        cell = make_cell(warm_runs=0)
        plan = plan_for(tmp_path, cell)
        reference = run_cell(cell, checkpointing=plan)
        for path in glob.glob(os.path.join(str(tmp_path), "*.ckpt.*")):
            os.unlink(path)

        # Fabricate the dead attempt: identical system paused mid-run.
        programs = _cell_programs(cell)
        victim = build_system(system_config(cell, 0))
        victim.prepare(programs)
        victim.run_prepared(until_cycle=100)
        CheckpointManager(plan.stem, keep=plan.keep).save(victim, programs)

        row = run_cell(cell, checkpointing=plan)
        assert row["warm"] == "checkpoint"
        assert row["resumed_cycle"] == 100
        assert row["cycles"] == reference["cycles"]
        assert row["instructions"] == reference["instructions"]

    def test_all_generations_corrupt_restarts_and_records(self, tmp_path,
                                                          make_cell):
        cell = make_cell(warm_runs=0)
        plan = plan_for(tmp_path, cell, interval=120)
        reference = run_cell(cell, checkpointing=plan)
        gens = sorted(glob.glob(os.path.join(str(tmp_path), "*.ckpt.*")))
        assert gens, "expected periodic generations from the first run"
        for path in gens:
            corrupt.truncate(path, 0.4)
        row = run_cell(cell, checkpointing=plan)
        assert row.get("resumed_cycle") is None  # started over
        kinds = {(d["stage"], d["kind"]) for d in row["degradations"]}
        assert kinds == {("resume", "truncated")}
        assert row["cycles"] == reference["cycles"]

    def test_reseeded_retry_silently_skips_stale_generations(self, tmp_path,
                                                             make_cell):
        # After a typed failure the scheduler bumps the reseed; the old
        # generations are config-skewed, which is an expected fresh start,
        # not a degradation.
        cell = make_cell(warm_runs=0)
        plan = plan_for(tmp_path, cell, interval=120)
        run_cell(cell, checkpointing=plan, reseed=0)
        row = run_cell(cell, checkpointing=plan, reseed=1)
        assert row.get("resumed_cycle") is None
        assert row["degradations"] == []


class TestSchedulerThreading:
    def test_argv_carries_checkpoint_flags(self, tmp_path):
        config = CampaignConfig(figure="figure9",
                                benchmarks=("505.mcf_r",),
                                checkpoint_interval=5000,
                                checkpoint_keep=3)
        scheduler = CampaignScheduler(config, str(tmp_path / "run"))
        cell = config.build_cells()[0]
        paths = scheduler._paths(cell, attempt=1)
        argv = scheduler._default_argv(cell, paths, attempt=1, reseed=0)
        assert "--checkpoint-stem" in argv and "--warm-dir" in argv
        assert argv[argv.index("--checkpoint-interval") + 1] == "5000"
        assert argv[argv.index("--checkpoint-keep") + 1] == "3"
        # The checkpoint stem is attempt-independent: attempt 2 must find
        # attempt 1's generations.
        assert paths["ckpt"] == scheduler._paths(cell, attempt=2)["ckpt"]
        assert ".a1" not in paths["ckpt"]

    def test_checkpointing_disabled_drops_the_flags(self, tmp_path):
        config = CampaignConfig(figure="figure9",
                                benchmarks=("505.mcf_r",),
                                checkpoint_interval=0, share_warm=False)
        scheduler = CampaignScheduler(config, str(tmp_path / "run"))
        cell = config.build_cells()[0]
        argv = scheduler._default_argv(cell, scheduler._paths(cell, 0), 0, 0)
        assert "--checkpoint-stem" not in argv
        assert "--warm-dir" not in argv


class TestCampaignDegradationReport:
    def test_corrupt_checkpoints_never_abort_and_land_in_report(
            self, tmp_path):
        run_dir = str(tmp_path / "run")
        config = CampaignConfig(
            figure="figure9", benchmarks=("505.mcf_r",),
            target_instructions=300, warm_runs=1, max_workers=2,
            backoff_base_s=0.02, backoff_jitter_s=0.02,
            checkpoint_interval=100)
        first = CampaignScheduler(config, run_dir).run()
        assert first.ok and first.degradations == {}

        # Damage every durable warm file and generation, forget the rows,
        # and rerun: the campaign must complete, record each cell's
        # degradations (with fault class) in report.json, and reproduce
        # the identical figure.
        work = os.path.join(run_dir, "work")
        for path in glob.glob(os.path.join(work, "warm.*.ckpt")):
            corrupt.flip_bit(path, section="hierarchy")
        for path in glob.glob(os.path.join(work, "*.ckpt.*")):
            corrupt.truncate(path, 0.4)
        os.unlink(os.path.join(run_dir, "results.jsonl"))
        second = CampaignScheduler(config, run_dir).run()
        assert second.ok
        assert set(second.degradations) == set(second.completed)
        report = json.loads(open(os.path.join(run_dir, "report.json"),
                                 encoding="utf-8").read())
        assert report["ok"]
        recorded_kinds = {d["kind"]
                          for degradations in report["degradations"].values()
                          for d in degradations}
        assert recorded_kinds == {"section-corrupt", "truncated"}
        assert second.render() == first.render()
