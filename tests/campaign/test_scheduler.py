"""Scheduler: isolation, retry/backoff, stragglers, resume, degradation.

The tests that need *real* workers use a 300-instruction single-benchmark
figure-9 sweep (4 cells, ~1s each); failure-path tests swap the work
function for stubs so nothing real has to hang or crash slowly.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from repro.campaign import (CampaignConfig, CampaignScheduler, ResultStore)
from repro.campaign.worker import measure_cell
from repro.errors import ManifestMismatch
from repro.eval.experiments import MISSING_CELL

#: Every worker fork must happen in a one-thread process.
pytestmark = pytest.mark.filterwarnings(
    "error:forking a worker:DeprecationWarning")


QUICK = dict(figure="figure9", benchmarks=("505.mcf_r",),
             target_instructions=300, warm_runs=0, max_workers=2,
             backoff_base_s=0.02, backoff_jitter_s=0.02, timeout_s=120.0)


def quick_config(**overrides):
    params = dict(QUICK)
    params.update(overrides)
    return CampaignConfig(**params)


def sleeper(job, heartbeat):
    """A worker that never beats again and never finishes."""
    time.sleep(600)


#: The helper's program: sleep, print the time.monotonic() of the signal,
#: then SIGTERM the given process.
_SIGTERM_AFTER = ("import os, signal, sys, time; "
                  "time.sleep(float(sys.argv[1])); "
                  "print(time.monotonic(), flush=True); "
                  "os.kill(int(sys.argv[2]), signal.SIGTERM)")


@contextlib.contextmanager
def sigterm_after(delay_s):
    """SIGTERM this process ``delay_s`` from now, from a helper process.

    A timer thread would do the same, but then every worker fork would
    come from a two-thread process.  Yields a list that, on exit, holds
    the time.monotonic() at which the helper sent the signal, if it did.
    """
    helper = subprocess.Popen(
        [sys.executable, "-c", _SIGTERM_AFTER, str(delay_s),
         str(os.getpid())], stdout=subprocess.PIPE, text=True)
    sent = []
    try:
        yield sent
    finally:
        helper.kill()
        out, _ = helper.communicate()
        sent.extend(float(line) for line in out.split())


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def finished(self, tmp_path_factory):
        run_dir = str(tmp_path_factory.mktemp("campaign") / "run")
        config = quick_config()
        outcome = CampaignScheduler(config, run_dir).run()
        return config, run_dir, outcome

    def test_all_cells_complete(self, finished):
        config, _, outcome = finished
        assert outcome.ok
        assert len(outcome.completed) == len(outcome.cells) == 4
        assert outcome.failed == {} and outcome.corrupt == []

    def test_rows_render_without_markers(self, finished):
        _, _, outcome = finished
        text = outcome.render()
        assert "505.mcf_r" in text and MISSING_CELL not in text

    def test_store_holds_checksummed_records(self, finished):
        config, run_dir, outcome = finished
        records, corrupt = ResultStore(run_dir).load()
        assert corrupt == []
        assert {r["cell_id"] for r in records} == set(outcome.completed)

    def test_report_persisted(self, finished):
        _, run_dir, _ = finished
        report = json.loads(open(os.path.join(run_dir, "report.json"),
                                 encoding="utf-8").read())
        assert report["ok"] and report["completed"] == 4

    def test_rerun_resumes_everything(self, finished):
        config, run_dir, first = finished
        again = CampaignScheduler(config, run_dir).run()
        assert again.skipped == 4
        assert again.render() == first.render()

    def test_interrupted_store_resumes_byte_identical(self, finished,
                                                      tmp_path):
        # Simulate a campaign killed after its first two durable appends:
        # copy the manifest plus a truncated (but record-aligned) store into
        # a fresh run directory and resume there.
        config, run_dir, reference = finished
        partial = str(tmp_path / "partial")
        os.makedirs(os.path.join(partial, "work"))
        shutil.copy(os.path.join(run_dir, "manifest.json"),
                    os.path.join(partial, "manifest.json"))
        with open(os.path.join(run_dir, "results.jsonl"),
                  encoding="utf-8") as handle:
            first_two = handle.readlines()[:2]
        with open(os.path.join(partial, "results.jsonl"), "w",
                  encoding="utf-8") as handle:
            handle.writelines(first_two)
        resumed = CampaignScheduler(config, partial).run(resume=True)
        assert resumed.skipped == 2
        assert resumed.ok
        assert resumed.render() == reference.render()
        assert resumed.render("restricted") == reference.render("restricted")

    def test_resume_under_changed_config_is_fail_stop(self, finished):
        _, run_dir, _ = finished
        changed = quick_config(target_instructions=999)
        with pytest.raises(ManifestMismatch):
            CampaignScheduler(changed, run_dir).run(resume=True)


class TestStragglerRecovery:
    def test_hung_workers_are_reaped_retried_then_marked_missing(
            self, tmp_path):
        config = quick_config(max_retries=1, stall_timeout_s=0.3)
        scheduler = CampaignScheduler(config, str(tmp_path / "run"),
                                      work=sleeper)
        outcome = scheduler.run()
        assert not outcome.ok
        assert len(outcome.failed) == 4
        for failures in outcome.failed.values():
            assert len(failures) == 2  # initial attempt + 1 retry
            assert all(f.kind == "stalled" for f in failures)
        # Degradation, not abortion: the figure still renders, with every
        # cell explicitly marked missing.
        text = outcome.render()
        assert text.count(MISSING_CELL) > 4  # cells + aggregates
        report = json.loads(open(scheduler.store.report_path,
                                 encoding="utf-8").read())
        assert not report["ok"] and len(report["failed"]) == 4

    def test_wall_timeout_beats_the_clock(self, tmp_path):
        config = quick_config(benchmarks=("505.mcf_r",), max_retries=0,
                              timeout_s=0.3, stall_timeout_s=60.0)
        scheduler = CampaignScheduler(config, str(tmp_path / "run"),
                                      work=sleeper)
        outcome = scheduler.run()
        assert not outcome.ok
        kinds = {f.kind for failures in outcome.failed.values()
                 for f in failures}
        assert kinds == {"wall-timeout"}


class TestRetryRecovery:
    def test_crashing_attempt_is_retried_to_success(self, tmp_path):
        # Attempt 0 of every cell dies instantly with no outcome file (the
        # shape of an OOM kill); attempt 1 runs the real worker.  The
        # campaign must converge with full results.
        def flaky(job, heartbeat):
            # The attempt number is in the name of its heartbeat file.
            if heartbeat.path.endswith(".a0.hb"):
                raise SystemExit(9)
            return measure_cell(job, heartbeat)

        run_dir = str(tmp_path / "run")
        scheduler = CampaignScheduler(quick_config(max_retries=1), run_dir,
                                      work=flaky)
        outcome = scheduler.run()
        assert outcome.ok
        assert len(outcome.completed) == 4
        # Every cell succeeded on its second attempt.  An environmental
        # death keeps the reseed (so the retry measures the row an
        # uninterrupted attempt would have); only typed simulation
        # failures perturb the seed.
        records, _ = ResultStore(run_dir).load()
        assert len(records) == 4
        assert all(r["attempt"] == 1 and r["reseed"] == 0 for r in records)


class TestGracefulInterrupt:
    def test_sigterm_reaps_workers_and_leaves_run_resumable(self, tmp_path):
        config = quick_config()
        run_dir = str(tmp_path / "run")
        scheduler = CampaignScheduler(config, run_dir,
                                      work=sleeper)
        with sigterm_after(0.4):
            outcome = scheduler.run()
        # Interrupted, not failed: nothing was marked permanently missing,
        # the report says "interrupted", and the directory stays resumable.
        assert outcome.interrupted and not outcome.ok
        assert outcome.failed == {} and outcome.completed == {}
        report = json.loads(open(scheduler.store.report_path,
                                 encoding="utf-8").read())
        assert report["status"] == "interrupted" and report["resumable"]
        assert not report["ok"]

    def test_sigterm_from_another_process_wakes_loop(self, tmp_path):
        # Sleeper workers never heartbeat, and with a 60 s stall timeout
        # the loop's next liveness check is a minute away: a handler alone
        # would let the interrupted sleep resume, so only the wakeup fd can
        # end it promptly when the signal arrives.
        config = quick_config(stall_timeout_s=60.0)
        scheduler = CampaignScheduler(config, str(tmp_path / "run"),
                                      work=sleeper)
        with sigterm_after(0.3) as sent:
            outcome = scheduler.run()
            returned = time.monotonic()
        assert outcome.interrupted and outcome.completed == {}
        assert sent and returned - sent[0] < 2.0

    def test_interrupt_flag_stops_loop_without_signal(self, tmp_path):
        # The same path is reachable programmatically (non-main threads,
        # embedding services): interrupt() before run() returns instantly.
        scheduler = CampaignScheduler(quick_config(), str(tmp_path / "run"),
                                      work=sleeper)
        scheduler.interrupt()
        outcome = scheduler.run()
        assert outcome.interrupted and outcome.completed == {}

    def test_interrupted_run_resumes_to_completion(self, tmp_path):
        config = quick_config()
        run_dir = str(tmp_path / "run")
        interrupted = CampaignScheduler(config, run_dir,
                                        work=sleeper)
        with sigterm_after(0.3):
            assert interrupted.run().interrupted
        resumed = CampaignScheduler(config, run_dir).run(resume=True)
        assert resumed.ok and len(resumed.completed) == 4
