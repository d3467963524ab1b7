"""Work functions for the pool tests, run in a fork as ``work(job,
heartbeat)``."""

import time


def give_back(job, heartbeat):
    """Return ``job`` (a dict) as the result."""
    return dict(job)


def sleep(job, heartbeat):
    """Sleep ``job`` seconds without beating."""
    time.sleep(job)
    return {}


def say(job, heartbeat):
    """Print ``job`` to the worker's stdout."""
    print(job)
    return {}


def exit_with(job, heartbeat):
    """Leave through ``SystemExit(job)``."""
    raise SystemExit(job)


def explode(job, heartbeat):
    """Fail with an untyped exception."""
    raise KeyError(job)


def fail_typed(job, heartbeat):
    """Fail with a typed simulation error."""
    from repro.errors import SimulationError
    raise SimulationError(job)


def mark_image(job, heartbeat):
    """Mark the ``repro`` package and report whether an earlier job
    left the mark there."""
    import repro
    seen = hasattr(repro, "left_by_an_earlier_job")
    repro.left_by_an_earlier_job = True
    return {"seen": seen}
