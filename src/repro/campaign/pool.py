"""Shared process-pool core: one abstraction under campaigns and the service.

The campaign scheduler (batch sweeps) and :mod:`repro.service` (the
always-on spec-lint front end) supervise the same kind of unit: a worker
process that writes a heartbeat file from inside its work loop and an
outcome JSON on exit.  This module is the machinery both share:

- :func:`worker_env` / :func:`launch` — spawn a worker with the repro
  source tree importable and its output captured to a log file;
- :func:`start_template` / :func:`fork` — :func:`launch`'s twin for a
  long-lived supervisor: each worker is a fresh ``fork()`` of one template
  process that imported the worker's modules once, running the same argv;
- :class:`WorkerProcess` — one supervised worker: non-blocking exit
  polling, heartbeat-staleness and wall-budget liveness checks, and
  terminate-then-kill reaping;
- :func:`read_outcome` / :func:`classify_exit` — the outcome-file contract
  (``status: ok | failed | crashed``) folded with the exit code into one
  :class:`WorkerExit` classification;
- :class:`AdaptiveWait` — the campaign and fuzz poll pacing: tight while
  workers are active, exponential backoff capped while idle.

The scheduler and the fuzz campaign drive spawned workers from their
synchronous poll loops.  The service supervisor forks its workers and
sleeps on each one's exit sentinel (an fd that turns readable when the
worker exits) until the worker exits or
:meth:`WorkerProcess.next_check_s` says a liveness check is due.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import repro
from repro.campaign.heartbeat import age_s

#: Worker exit code for a typed, retryable failure (see campaign.worker).
EXIT_TYPED_FAILURE = 3

#: Liveness-failure kinds reported by :meth:`WorkerProcess.liveness_failure`.
WALL_TIMEOUT = "wall-timeout"
STALLED = "stalled"

#: A forked worker's exit status once its template died (multiprocessing
#: reports the lost status pipe as 255).
TEMPLATE_LOST = 255


def worker_env() -> dict:
    """Child env with the repro source tree importable."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src if not existing
                         else src + os.pathsep + existing)
    return env


def read_outcome(path: str) -> Optional[dict]:
    """The worker's outcome JSON, or ``None`` if absent/unparseable."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def log_tail(path: str, limit: int = 400) -> str:
    """The last ``limit`` characters of a worker log (diagnostics)."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()[-limit:].strip()
    except OSError:
        return ""


@dataclass
class WorkerExit:
    """One classified worker exit.

    ``kind`` is ``"ok"`` (outcome present, status ok, exit 0), ``"typed"``
    (a typed, possibly-retryable failure the worker reported), or
    ``"crashed"`` / ``"killed"`` (the worker died: harness bug, signal,
    OOM kill — environmental, retried under the same seed).
    """

    kind: str
    error: str = ""
    error_type: str = ""
    outcome: Optional[dict] = None


def classify_exit(returncode: int, outcome: Optional[dict],
                  tail: str = "") -> WorkerExit:
    """Fold the exit code and outcome file into one classification."""
    if returncode == 0 and outcome is not None \
            and outcome.get("status") == "ok":
        return WorkerExit("ok", outcome=outcome)
    if outcome is not None and outcome.get("status") == "failed":
        return WorkerExit("typed", outcome.get("error", ""),
                          outcome.get("error_type", ""), outcome)
    if outcome is not None and outcome.get("status") == "crashed":
        return WorkerExit("crashed", outcome.get("error", ""),
                          outcome.get("error_type", ""), outcome)
    if returncode < 0:
        return WorkerExit("killed", f"worker died to signal {-returncode}")
    return WorkerExit(
        "crashed",
        f"exit code {returncode} with no outcome file"
        + (f"; log tail: {tail}" if tail else ""))


class WorkerProcess:
    """One supervised worker process and its liveness contract.

    The worker promises to pulse ``heartbeat_path`` from inside its work
    loop and to write ``out_path`` atomically before exiting.  The
    supervisor polls :meth:`exit` (non-blocking) and
    :meth:`liveness_failure`; a worker that exceeds its wall budget or
    goes heartbeat-silent is :meth:`reaped <reap>`.  ``proc`` is the
    :class:`subprocess.Popen` of :func:`launch` or the Popen-shaped handle
    of :func:`fork`.
    """

    def __init__(self, proc: Union[subprocess.Popen, "_Forked"], *,
                 out_path: str, heartbeat_path: str, log_path: str = "",
                 timeout_s: float = float("inf"),
                 stall_timeout_s: float = float("inf")):
        self.proc = proc
        self.out_path = out_path
        self.heartbeat_path = heartbeat_path
        self.log_path = log_path
        self.timeout_s = timeout_s
        self.stall_timeout_s = stall_timeout_s
        self.started = time.monotonic()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def elapsed(self, now: Optional[float] = None) -> float:
        return (now if now is not None else time.monotonic()) - self.started

    def exit(self) -> Optional[WorkerExit]:
        """Classified exit if the process has finished, else ``None``."""
        returncode = self.proc.poll()
        if returncode is None:
            return None
        return classify_exit(returncode, read_outcome(self.out_path),
                             log_tail(self.log_path) if self.log_path else "")

    def liveness_failure(self,
                         now: Optional[float] = None) -> Optional[WorkerExit]:
        """Wall-budget / heartbeat-staleness check for a *running* worker.

        Returns a :class:`WorkerExit` of kind :data:`WALL_TIMEOUT` or
        :data:`STALLED` when the worker must be reaped, else ``None``.
        A worker that never heartbeats is measured from its start time.
        """
        elapsed = self.elapsed(now)
        if elapsed > self.timeout_s:
            return WorkerExit(WALL_TIMEOUT,
                              f"exceeded {self.timeout_s}s wall budget")
        heartbeat_age = age_s(self.heartbeat_path, now=time.time())
        stale = heartbeat_age if heartbeat_age is not None else elapsed
        if stale > self.stall_timeout_s:
            return WorkerExit(STALLED, f"no heartbeat for {stale:.1f}s "
                                       "(straggler reaped)")
        return None

    def next_check_s(self, now: Optional[float] = None) -> float:
        """Seconds before :meth:`liveness_failure` can first report.

        The wall deadline is fixed and each beat only pushes the heartbeat
        deadline later, so a supervisor that sleeps this long between
        checks reaps exactly as early as one that polls.
        """
        elapsed = self.elapsed(now)
        heartbeat_age = age_s(self.heartbeat_path, now=time.time())
        stale = heartbeat_age if heartbeat_age is not None else elapsed
        return max(0.0, min(self.timeout_s - elapsed,
                            self.stall_timeout_s - stale))

    def reap(self) -> None:
        """Terminate, escalating to SIGKILL if the worker ignores it."""
        self.proc.terminate()
        try:
            self.proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def launch(argv: List[str], *, out_path: str, heartbeat_path: str,
           log_path: str, timeout_s: float = float("inf"),
           stall_timeout_s: float = float("inf"),
           env: Optional[dict] = None) -> WorkerProcess:
    """Spawn one worker with stdout/stderr captured to ``log_path``."""
    log = open(log_path, "w", encoding="utf-8")
    try:
        proc = subprocess.Popen(argv, stdout=log, stderr=log,
                                env=env if env is not None else worker_env())
    finally:
        log.close()
    return WorkerProcess(proc, out_path=out_path,
                         heartbeat_path=heartbeat_path, log_path=log_path,
                         timeout_s=timeout_s,
                         stall_timeout_s=stall_timeout_s)


# ----------------------------------------------------------------------
# forked launch: one pre-imported template, a fresh fork() per worker
# ----------------------------------------------------------------------

def _template_context():
    # Imported on first use, so the campaign's spawn path never pays it.
    import multiprocessing
    return multiprocessing.get_context("forkserver")


def _ensure_template() -> None:
    """Start the template unless it is running, with :func:`worker_env`'s
    path: it inherits this process's environment, and multiprocessing
    skips a preload that fails to import, so without the path it would
    silently preload nothing."""
    from multiprocessing import forkserver
    saved = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = worker_env()["PYTHONPATH"]
    try:
        forkserver.ensure_running()
    finally:
        if saved is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = saved


def template_pid() -> Optional[int]:
    """Pid of the running template, if one was started (fault drills)."""
    from multiprocessing import forkserver
    return forkserver._forkserver._forkserver_pid


def _noop() -> None:
    """The template's warm-up job."""


def start_template(preload: Sequence[str]) -> None:
    """Start the template that imports ``preload`` once, and wait until
    it forks: it answers only after the preload, so this blocks through
    the imports (an event loop runs it in an executor).  With a template
    already running this costs one trivial fork."""
    context = _template_context()
    context.set_forkserver_preload(list(preload))
    _ensure_template()
    warm = context.Process(target=_noop, daemon=True)
    warm.start()
    warm.join()
    warm.close()


def _run_argv(argv: List[str], log_path: str) -> None:
    """A forked worker's body: ``argv`` with ``python -m`` / ``-c``
    semantics.  fds 1 and 2 move to the attempt log before anything runs:
    the template inherited the supervisor's stdout, which in ``--stdio``
    mode is the protocol stream."""
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(fd, 1)
    os.dup2(fd, 2)
    os.close(fd)
    _, flag, target, *args = argv
    if flag == "-m":
        import runpy
        sys.argv = [target, *args]   # run_module puts the file in argv[0]
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    else:
        import types
        sys.argv = ["-c", *args]
        main = types.ModuleType("__main__")
        sys.modules["__main__"] = main
        exec(compile(target, "<string>", "exec"), main.__dict__)


class _Forked:
    """The :class:`subprocess.Popen` calls :class:`WorkerProcess` makes,
    over a worker forked from the template, plus its exit ``sentinel``."""

    def __init__(self, process):
        self.process = process
        self.pid: int = process.pid
        self.sentinel: int = process.sentinel
        self.returncode: Optional[int] = None

    def poll(self) -> Optional[int]:
        if self.returncode is None and self.process.exitcode is not None:
            self.returncode = self.process.exitcode
            self.process.close()
            if self.returncode == TEMPLATE_LOST:
                # The template died with the exit status, and the orphan
                # may still run.  Pids are handed out in sequence, so this
                # one cannot belong to anyone else yet.
                with contextlib.suppress(ProcessLookupError):
                    os.kill(self.pid, signal.SIGKILL)
        return self.returncode

    def terminate(self) -> None:
        if self.poll() is None:
            self.process.terminate()

    def kill(self) -> None:
        if self.poll() is None:
            self.process.kill()

    def wait(self, timeout: Optional[float] = None) -> int:
        if self.poll() is None:
            self.process.join(timeout)
            if self.poll() is None:
                raise subprocess.TimeoutExpired(f"forked pid {self.pid}",
                                                timeout or 0.0)
        assert self.returncode is not None
        return self.returncode


def fork(argv: List[str], *, out_path: str, heartbeat_path: str,
         log_path: str, timeout_s: float = float("inf"),
         stall_timeout_s: float = float("inf")) -> WorkerProcess:
    """:func:`launch` by forking the template (restarted if it died).

    ``argv`` is what :func:`launch` would exec, ``[python, "-m", module,
    *args]`` or ``[python, "-c", code, *args]``; it runs unchanged in a
    fresh child of the template, whose imports are already done.
    """
    if len(argv) < 3 or argv[1] not in ("-m", "-c"):
        raise ValueError(f"a forked worker runs -m or -c, not {argv!r}")
    _ensure_template()
    process = _template_context().Process(
        target=_run_argv, args=(list(argv), log_path), daemon=True)
    process.start()
    return WorkerProcess(_Forked(process), out_path=out_path,
                         heartbeat_path=heartbeat_path, log_path=log_path,
                         timeout_s=timeout_s,
                         stall_timeout_s=stall_timeout_s)


class AdaptiveWait:
    """Poll pacing: tight under activity, capped backoff while idle.

    ``interval(active)`` returns the next wait; while ``active`` it is
    always ``base``, and each consecutive idle step doubles the wait up to
    ``cap``.  Any active step resets the backoff, so a pool that goes busy
    again is immediately back on the tight cadence.  :meth:`sleep` is the
    synchronous convenience; asyncio callers await ``interval`` themselves.
    """

    def __init__(self, base: float = 0.02, cap: float = 0.5):
        self.base = base
        self.cap = max(cap, base)
        self._idle_streak = 0

    def interval(self, active: bool) -> float:
        if active:
            self._idle_streak = 0
            return self.base
        delay = min(self.cap, self.base * (2 ** self._idle_streak))
        self._idle_streak += 1
        return delay

    def sleep(self, active: bool) -> None:
        time.sleep(self.interval(active))
