"""The shared process-pool core (campaign + service supervision)."""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.campaign import pool
from repro.campaign.pool import classify_exit
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.cells import CampaignConfig
from repro.service import supervisor

from tests.campaign import forked_jobs


class TestClassifyExit:
    def test_ok(self):
        exit = classify_exit(0, {"status": "ok", "row": {}})
        assert exit.kind == "ok" and exit.outcome["status"] == "ok"

    def test_zero_exit_without_outcome_is_crash(self):
        exit = classify_exit(0, None, tail="boom")
        assert exit.kind == "crashed" and "boom" in exit.error

    def test_typed_failure(self):
        exit = classify_exit(pool.EXIT_TYPED_FAILURE,
                             {"status": "failed", "error": "faulted",
                              "error_type": "ReproError"})
        assert exit.kind == "typed"
        assert exit.error == "faulted" and exit.error_type == "ReproError"

    def test_crashed_outcome(self):
        exit = classify_exit(1, {"status": "crashed", "error": "bug",
                                 "error_type": "KeyError"})
        assert exit.kind == "crashed" and exit.error_type == "KeyError"

    def test_signal_death(self):
        exit = classify_exit(-9, None)
        assert exit.kind == "killed" and "signal 9" in exit.error

    def test_nonzero_exit_no_outcome(self):
        exit = classify_exit(7, None)
        assert exit.kind == "crashed" and "exit code 7" in exit.error


class TestWorkerProcess:
    """The launch contract, over :func:`fork` of this process;
    :class:`TestForkedWorkerProcess` reruns every test over a fork of
    this process in the service's state."""

    def _spawn(self, tmp_path, work, job=None, **kwargs):
        paths = {name: str(tmp_path / name)
                 for name in ("out", "hb", "log")}
        worker = pool.fork(work, job, out_path=paths["out"],
                           heartbeat_path=paths["hb"],
                           log_path=paths["log"], **kwargs)
        return worker, paths

    def _finish(self, worker):
        worker.proc.wait(timeout=10)
        return worker.exit()

    def test_successful_worker_round_trip(self, tmp_path):
        worker, _ = self._spawn(tmp_path, forked_jobs.give_back,
                                {"row": {"cycles": 7}, "timings": {}})
        deadline = time.monotonic() + 10
        exit = None
        while exit is None and time.monotonic() < deadline:
            exit = worker.exit()
            time.sleep(0.01)
        assert exit is not None and exit.kind == "ok"
        assert exit.outcome == {"status": "ok", "row": {"cycles": 7},
                                "timings": {}}

    def test_repro_error_is_typed_and_exits_3(self, tmp_path):
        worker, paths = self._spawn(tmp_path, forked_jobs.fail_typed,
                                    "ran past 50 cycles")
        exit = self._finish(worker)
        assert worker.proc.returncode == pool.EXIT_TYPED_FAILURE
        assert exit.kind == "typed" and exit.error_type == "SimulationError"
        assert "50 cycles" in exit.error
        assert pool.read_outcome(paths["out"])["status"] == "failed"

    def test_wall_timeout_and_reap(self, tmp_path):
        worker, _ = self._spawn(tmp_path, forked_jobs.sleep, 600,
                                timeout_s=0.05)
        time.sleep(0.1)
        failure = worker.liveness_failure()
        assert failure is not None and failure.kind == pool.WALL_TIMEOUT
        worker.reap()
        assert worker.proc.poll() is not None

    def test_stalled_without_heartbeat(self, tmp_path):
        worker, _ = self._spawn(tmp_path, forked_jobs.sleep, 600,
                                stall_timeout_s=0.05)
        time.sleep(0.1)
        failure = worker.liveness_failure()
        assert failure is not None and failure.kind == pool.STALLED
        worker.reap()

    def test_fresh_heartbeat_keeps_worker_alive(self, tmp_path):
        worker, paths = self._spawn(tmp_path, forked_jobs.sleep, 600,
                                    stall_timeout_s=0.5)
        with open(paths["hb"], "w") as handle:
            json.dump({"cycle": 1}, handle)
        assert worker.liveness_failure() is None
        worker.reap()

    def test_log_captured(self, tmp_path):
        worker, paths = self._spawn(tmp_path, forked_jobs.say,
                                    "hello from worker")
        worker.proc.wait(timeout=10)
        assert "hello from worker" in pool.log_tail(paths["log"])

    def test_system_exit_code_is_crashed(self, tmp_path):
        worker, paths = self._spawn(tmp_path, forked_jobs.exit_with, 70)
        exit = self._finish(worker)
        assert exit.kind == "crashed" and "exit code 70" in exit.error
        assert not os.path.exists(paths["out"])

    def test_sigkill_is_killed(self, tmp_path):
        worker, _ = self._spawn(tmp_path, forked_jobs.sleep, 600)
        os.kill(worker.pid, signal.SIGKILL)
        exit = self._finish(worker)
        assert exit.kind == "killed" and "signal 9" in exit.error

    def test_traceback_lands_in_the_log(self, tmp_path):
        worker, paths = self._spawn(tmp_path, forked_jobs.explode, "boom")
        exit = self._finish(worker)
        assert worker.proc.returncode == 1
        assert exit.kind == "crashed" and exit.error_type == "KeyError"
        assert "Traceback" in exit.outcome["traceback"]
        log = pool.log_tail(paths["log"], limit=4000)
        assert "Traceback" in log and "explode" in log \
            and "KeyError: 'boom'" in log

    def test_sleep_until_exit_wakes_on_exit(self, tmp_path):
        worker, _ = self._spawn(tmp_path, forked_jobs.exit_with, 0)
        started = time.monotonic()
        pool.sleep_until_exit([worker], 30.0)
        assert time.monotonic() - started < 10
        exit = worker.exit()   # confirmed by the wake: no polling needed
        assert exit is not None and exit.kind == "crashed"
        assert "exit code 0" in exit.error   # no outcome file written

    def test_sleep_until_exit_times_out_and_wakes_on_fd(self, tmp_path):
        worker, _ = self._spawn(tmp_path, forked_jobs.sleep, 600)
        started = time.monotonic()
        pool.sleep_until_exit([worker], 0.05)
        assert 0.05 <= time.monotonic() - started < 5
        read_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, b"x")
            started = time.monotonic()
            pool.sleep_until_exit([worker], 30.0, wake_fd=read_fd)
            assert time.monotonic() - started < 5
        finally:
            os.close(read_fd)
            os.close(write_fd)
        assert worker.exit() is None
        worker.reap()


@pytest.fixture
def service_state():
    """This process as a service job's fork finds it: the worker's
    modules preloaded, a no-op SIGTERM/SIGINT handler and a signal
    wakeup fd installed as asyncio's ``add_signal_handler`` does, and a
    listening socket open."""
    asyncio.run(supervisor.preloaded())
    listener = socket.create_server(("127.0.0.1", 0))
    wake_read, wake_write = socket.socketpair()
    wake_write.setblocking(False)
    handlers = {sig: signal.signal(sig, lambda *_: None)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    wakeup = signal.set_wakeup_fd(wake_write.fileno())
    try:
        yield
    finally:
        signal.set_wakeup_fd(wakeup)
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
        for sock in (listener, wake_read, wake_write):
            sock.close()


@pytest.mark.usefixtures("service_state")
class TestForkedWorkerProcess(TestWorkerProcess):
    """The launch contract, over a fork of this process holding what a
    service holds when it forks a job (:func:`service_state`)."""

    def test_reap_ends_by_sigterm(self, tmp_path):
        # Not by the copied no-op handler and the SIGKILL escalation.
        worker, _ = self._spawn(tmp_path, forked_jobs.sleep, 600)
        started = time.monotonic()
        worker.reap()
        assert time.monotonic() - started < 1.5
        assert worker.proc.poll() == -signal.SIGTERM


class TestSelfFork:
    """What a fork of a supervisor must not inherit from it."""

    def test_reap_right_after_fork_ends_by_sigterm(self, tmp_path):
        # The scheduler's own handlers and wakeup fd are installed, as in
        # its run loop: the child must die to the reap's SIGTERM (-15),
        # not run the copied handler and wait out the SIGKILL escalation.
        scheduler = CampaignScheduler(CampaignConfig(),
                                      str(tmp_path / "run"))
        with scheduler._signal_scope():
            worker = pool.fork(forked_jobs.sleep, 600,
                               out_path=str(tmp_path / "out"),
                               heartbeat_path=str(tmp_path / "hb"),
                               log_path=str(tmp_path / "log"))
            started = time.monotonic()
            worker.reap()
        scheduler.spans.close()
        assert time.monotonic() - started < 1.5
        assert worker.proc.poll() == -signal.SIGTERM
        assert not scheduler._interrupted


class TestWorkerEnv:
    def test_repro_importable_in_child(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import repro"],
            env=pool.worker_env(), capture_output=True)
        assert proc.returncode == 0, proc.stderr

    def test_existing_pythonpath_preserved(self, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", "/elsewhere")
        env = pool.worker_env()
        parts = env["PYTHONPATH"].split(os.pathsep)
        assert "/elsewhere" in parts and len(parts) == 2
