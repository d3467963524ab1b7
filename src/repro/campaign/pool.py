"""Shared process-pool core: one abstraction under campaigns and the service.

The campaign scheduler (batch sweeps), the fuzz campaign and
:mod:`repro.service` (the always-on spec-lint front end) supervise the
same kind of unit: a worker process that writes a heartbeat file from
inside its work loop and an outcome JSON on exit.  This module is the
machinery they share:

- :func:`fork` — launch one worker as a fresh ``fork()`` that runs the
  worker's argv (``python -m module ...`` or ``python -c code ...``) with
  its output captured to a log file.  The campaign and fuzz supervisors
  fork themselves: they run single-threaded and have imported everything
  a worker needs before their first launch.  The threaded service forks
  a template process (:func:`start_template`) that imported the worker's
  modules once;
- :class:`WorkerProcess` — one supervised worker: non-blocking exit
  polling, heartbeat-staleness and wall-budget liveness checks, and
  terminate-then-kill reaping;
- :func:`sleep_until_exit` — the synchronous supervisors' one wait: sleep
  on the workers' exit sentinels (an fd that turns readable when the
  worker exits) and an optional wakeup fd, until one fires or
  :meth:`WorkerProcess.next_check_s` says a liveness check is due (the
  service's asyncio supervisor sleeps on the same sentinels);
- :func:`read_outcome` / :func:`classify_exit` — the outcome-file contract
  (``status: ok | failed | crashed``) folded with the exit code into one
  :class:`WorkerExit` classification.

A fork starts from a copy of its parent's memory, so the parent must
never have run a worker's work itself: the supervisors only schedule, as
the template only imports.  What else the fork copies, the child undoes
before the argv runs (:func:`_run_argv`), so it acts as a fresh
interpreter did.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence

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
    handle of :func:`fork`.
    """

    def __init__(self, proc: "_Forked", *,
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


# ----------------------------------------------------------------------
# forked launch: a fresh fork() per worker, of this process or a template
# ----------------------------------------------------------------------

#: The signals a supervisor handles and its forked workers must not: they
#: stay blocked across the fork until the child has reset them.
_SUPERVISOR_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def _context(name: str):
    # Imported on first use: a supervisor that never forks never pays it.
    import multiprocessing
    return multiprocessing.get_context(name)


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
    context = _context("forkserver")
    context.set_forkserver_preload(list(preload))
    _ensure_template()
    warm = context.Process(target=_noop, daemon=True)
    warm.start()
    warm.join()
    warm.close()


def _run_argv(argv: List[str], log_path: str) -> None:
    """A forked worker's body: ``argv`` with ``python -m`` / ``-c``
    semantics, after undoing what the fork copied from the supervisor.
    A ``-m`` module exits with what its ``main(args)`` returns.

    The supervisor's SIGTERM/SIGINT handlers and signal wakeup fd give
    way to a fresh interpreter's defaults before the signals are
    unblocked, so a reap's SIGTERM kills the worker at any moment.  fds 1
    and 2 move to the attempt log, and ``sys.stdout``/``sys.stderr`` are
    rebound to them: the supervisor's streams may be the service's
    ``--stdio`` protocol stream or a test runner's capture.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _SUPERVISOR_SIGNALS)
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(fd, 1)
    os.dup2(fd, 2)
    os.close(fd)
    sys.stdout = open(1, "w", closefd=False)
    sys.stderr = open(2, "w", buffering=1, closefd=False,
                      errors="backslashreplace")
    _, flag, target, *args = argv
    if flag == "-m":
        # The fork has imported the module already; running it again as
        # ``__main__`` (runpy) would execute it twice and warn that it was
        # found in sys.modules.  Call its ``main`` instead, resolving a
        # package to its ``__main__`` submodule as ``-m`` does.
        import importlib
        module = importlib.import_module(target)
        if hasattr(module, "__path__"):
            module = importlib.import_module(target + ".__main__")
        sys.argv = [module.__file__, *args]
        sys.exit(module.main(args))
    else:
        import types
        sys.argv = ["-c", *args]
        main = types.ModuleType("__main__")
        sys.modules["__main__"] = main
        exec(compile(target, "<string>", "exec"), main.__dict__)


class _Forked:
    """The process calls :class:`WorkerProcess` makes (``poll``,
    ``terminate``, ``kill``, ``wait``) over one forked worker, plus its
    exit ``sentinel``."""

    def __init__(self, process, template: bool):
        self.process = process
        self.template = template
        self.pid: int = process.pid
        self.sentinel: int = process.sentinel
        self.returncode: Optional[int] = None

    def poll(self) -> Optional[int]:
        if self.returncode is None and self.process.exitcode is not None:
            self.returncode = self.process.exitcode
            self.process.close()
            if self.template and self.returncode == TEMPLATE_LOST:
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
         stall_timeout_s: float = float("inf"),
         template: bool = False) -> WorkerProcess:
    """Launch one worker running ``argv`` in a fresh fork.

    ``argv`` is ``[python, "-m", module, *args]`` (a module or package
    whose ``main(argv)`` returns the exit code) or ``[python, "-c",
    code, *args]``; it runs unchanged in a child whose imports are
    already done: a fork of this process, or with ``template`` a fork of
    the template (restarted if it died).  This process must then be
    single-threaded, as a fork copies only the calling thread; CPython
    3.12+ deprecates forking a multi-threaded process but drops its own
    warning when warnings are errors, so it is repeated here.
    """
    if len(argv) < 3 or argv[1] not in ("-m", "-c"):
        raise ValueError(f"a forked worker runs -m or -c, not {argv!r}")
    if template:
        _ensure_template()
        context = _context("forkserver")
    else:
        context = _context("fork")
        threads = threading.active_count()
        if threads > 1:
            warnings.warn(f"forking a worker from a process with {threads} "
                          "threads may deadlock it", DeprecationWarning,
                          stacklevel=2)
    process = context.Process(target=_run_argv,
                              args=(list(argv), log_path), daemon=True)
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, _SUPERVISOR_SIGNALS)
    try:
        process.start()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
    return WorkerProcess(_Forked(process, template), out_path=out_path,
                         heartbeat_path=heartbeat_path, log_path=log_path,
                         timeout_s=timeout_s,
                         stall_timeout_s=stall_timeout_s)


def sleep_until_exit(workers: Sequence[WorkerProcess], timeout_s: float,
                     wake_fd: Optional[int] = None) -> None:
    """Sleep until one of ``workers`` exits, ``wake_fd`` turns readable,
    or ``timeout_s`` seconds pass (rounded up: liveness checks are
    strict, so a sleep to a deadline ends just past it).

    A sentinel turns readable as the child closes its fds, just before it
    can be reaped, so a sentinel wake is confirmed with a blocking wait:
    the caller's next :meth:`WorkerProcess.exit` then sees the exit.
    """
    sentinels = {worker.proc.sentinel: worker for worker in workers}
    poller = select.poll()
    for fd in sentinels:
        poller.register(fd, select.POLLIN)
    if wake_fd is not None:
        poller.register(wake_fd, select.POLLIN)
    timeout_ms = (None if timeout_s == float("inf")
                  else int(max(0.0, timeout_s) * 1000) + 1)
    for fd, _ in poller.poll(timeout_ms):
        if fd in sentinels:
            sentinels[fd].proc.wait()
