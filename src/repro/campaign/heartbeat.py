"""Worker liveness: heartbeats tied to *simulated* progress.

A wall-clock timer thread would keep beating while the simulation loop is
wedged, which is exactly the failure the straggler detector must catch.
Instead the run loop pulses :class:`Heartbeat` every ``interval``
simulated cycles (the ``heartbeat`` hook of a system or a core, mirroring
the resilience hooks), so a worker that stops making cycle progress goes silent and the
campaign scheduler reaps it after ``stall_timeout_s``.

The beat itself is a tiny atomic file write; the monitor reads freshness
from the file's mtime, so reader and writer need no protocol beyond the
filesystem.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

from repro.store import atomic_write


class Heartbeat:
    """Writes liveness records to ``path`` at most every ``min_wall_s``.

    ``interval`` is consumed by the run loop (beat every N simulated
    cycles); ``min_wall_s`` rate-limits the actual filesystem
    traffic when simulation is fast.
    """

    def __init__(self, path: str, interval: int = 2000,
                 min_wall_s: float = 0.05):
        self.path = path
        self.interval = max(1, int(interval))
        self.min_wall_s = min_wall_s
        self._last_wall = 0.0
        #: Total beats actually written (diagnostics).
        self.beats = 0

    def beat(self, cycle: int) -> None:
        now = time.time()
        if self.beats and now - self._last_wall < self.min_wall_s:
            return
        self._last_wall = now
        self.beats += 1
        atomic_write(self.path, json.dumps(
            {"pid": os.getpid(), "cycle": cycle, "time": now}))


def age_s(path: str, now: Optional[float] = None) -> Optional[float]:
    """Seconds since the last beat, or ``None`` if no beat landed yet."""
    try:
        mtime = os.stat(path).st_mtime
    except OSError:
        return None
    return (now if now is not None else time.time()) - mtime
