"""Summary statistics shared by the workloads and the report.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it; run-to-run spread is the distance
between the quartiles, as a share of the median, computed exactly as
``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, Iterable, Optional, Sequence

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported percentile.
TAIL_MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``-th."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile of :data:`TAIL_LADDER` with at least
    :data:`TAIL_MIN_BEYOND` of ``n`` samples beyond it (None if none)."""
    for p in TAIL_LADDER:
        if beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives
    them."""
    values = list(values)
    if len(values) < 2:
        only = float(values[0])
        return {"median": only, "q1": only, "q3": only, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q = quartiles(values)
    return (q["q3"] - q["q1"]) / q["median"] if q["median"] else math.inf


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sha256_json(obj) -> str:
    """Digest of a JSON-serializable object in canonical form."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
