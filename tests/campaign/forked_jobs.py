"""Work functions for the pool tests, run in a fork as ``work(job,
heartbeat)``.

A template fork unpickles them by name, so they live at module level.
The module imports only the standard library: what a job finds in
``sys.modules`` is then what the fork inherited, not what this module
pulled in (``repro`` is imported inside the functions that need it).
"""

import sys
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


def loaded(job, heartbeat):
    """Which of the ``job`` modules the fork holds before importing."""
    return {"loaded": {name: name in sys.modules for name in job}}


def mark_image(job, heartbeat):
    """Mark the ``repro`` package and report whether an earlier job
    left the mark there."""
    import repro
    seen = hasattr(repro, "left_by_an_earlier_job")
    repro.left_by_an_earlier_job = True
    return {"seen": seen}
