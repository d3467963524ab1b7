"""Coverage and fault-injection hooks inside the static analyzer.

The fuzzer (:mod:`repro.fuzz`) needs two kinds of visibility into
spec-lint that ordinary callers must not pay for:

- **Coverage** — a sink receiving one feature string per novel analysis
  shape: speculation-window shapes from :mod:`repro.analysis.windows`
  (source kind × length bucket × barrier cut), taint-flow edges from
  :mod:`repro.analysis.taint` (value provenance → transmitter kind), and
  gadget-class × defense-verdict pairs from :mod:`repro.analysis.gadgets`.
  The pattern mirrors the simulator's trace sinks: a module-level slot
  that is ``None`` by default, guarded by one ``is None`` check at each
  emit site, so the fixpoint loops pay nothing when disabled.
- **Bug injection** — named, test-only analyzer defects behind the same
  kind of slot (a frozen set, empty by default).  The fuzz smoke drill
  injects one (e.g. dropping the ``SB``-barrier window cut) and asserts
  the differential fuzzer catches it as a minimized regression; unit
  tests use them to prove each emit/verdict site is actually load-bearing.

Both slots are process-global and restored by context managers, so a
worker process fuzzing with an injected bug never leaks state into a
subsequent clean run in the same process.
"""

from __future__ import annotations

import contextlib
from typing import Callable, FrozenSet, Iterator, Optional

#: A coverage sink: called once per observed feature string.
CoverageSink = Callable[[str], None]

#: Analyzer defects :func:`inject` accepts.
#:
#: - ``drop-sb-cut`` — ``_window_body`` ignores ``SB`` barriers, so windows
#:   run to the ROB bound straight through a speculation fence (a
#:   *precision* bug: static says leak where the simulator is clean).
#: - ``drop-contention-transmitter`` — window gadgets ignore ``MUL``/
#:   ``UDIV`` contention transmitters (a *soundness* bug: static says safe
#:   where the simulator leaks via the contention channel).
KNOWN_BUGS: FrozenSet[str] = frozenset({
    "drop-sb-cut",
    "drop-contention-transmitter",
})

_sink: Optional[CoverageSink] = None
_injected: FrozenSet[str] = frozenset()


def coverage_sink() -> Optional[CoverageSink]:
    """The active coverage sink, or ``None`` (the zero-overhead default)."""
    return _sink


def injected(bug: str) -> bool:
    """Is the named analyzer defect currently injected?"""
    return bug in _injected


@contextlib.contextmanager
def coverage(sink: CoverageSink) -> Iterator[CoverageSink]:
    """Route analyzer coverage features into ``sink`` within the block."""
    global _sink
    previous = _sink
    _sink = sink
    try:
        yield sink
    finally:
        _sink = previous


@contextlib.contextmanager
def inject(*bugs: str) -> Iterator[None]:
    """Inject named analyzer defects (:data:`KNOWN_BUGS`) within the block."""
    unknown = sorted(set(bugs) - KNOWN_BUGS)
    if unknown:
        raise ValueError(f"unknown injected bug(s) {unknown}; "
                         f"have {sorted(KNOWN_BUGS)}")
    global _injected
    previous = _injected
    _injected = _injected | frozenset(bugs)
    try:
        yield
    finally:
        _injected = previous


# -- feature formatting -------------------------------------------------------
#
# The feature vocabulary lives here (not in repro.fuzz) so the analysis
# layer never imports the fuzzer; repro.fuzz.coverage consumes these
# strings as opaque keys.

#: Window-length bucket upper bounds (instructions); lengths past the last
#: bound share one ``N+`` bucket.  Chosen so stretching a window across the
#: ROB boundary is always a bucket change.
LENGTH_BUCKETS = (1, 4, 8, 16, 32, 64)


def length_bucket(length: int) -> str:
    for bound in LENGTH_BUCKETS:
        if length <= bound:
            return f"le{bound}"
    return f"gt{LENGTH_BUCKETS[-1]}"


def window_feature(kind: str, body_length: int, barrier_cut: bool) -> str:
    """``win:<kind>:<length bucket>:<cut|nocut>``."""
    return (f"win:{kind}:{length_bucket(body_length)}:"
            f"{'cut' if barrier_cut else 'nocut'}")


def taint_feature(provenance: str, transmitter: str) -> str:
    """``taint:<value provenance>:<transmitter kind>``."""
    return f"taint:{provenance}:{transmitter}"


def verdict_feature(kind: str, defense: str, leaks: bool) -> str:
    """``verdict:<gadget class>:<defense>:<leak|safe>``."""
    return f"verdict:{kind}:{defense}:{'leak' if leaks else 'safe'}"
