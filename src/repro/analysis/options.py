"""Analysis entry-point options: the summary cache.

:class:`AnalysisOptions` says how :func:`~repro.analysis.taint.analyze`
(and :func:`~repro.analysis.gadgets.find_gadgets` above it) runs the
summary engine of :mod:`repro.analysis.modular.summaries`.  The default
computes every region live; a
:class:`~repro.analysis.modular.incremental.SummaryCache` memoizes
per-region answers, so re-linting an edited program only re-analyzes the
functions whose bodies (or interface inputs) changed.

This module is deliberately dependency-light: it imports nothing from the
modular package at runtime so :mod:`repro.analysis.gadgets` can take an
``options`` parameter without a circular import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.analysis.modular.incremental import SummaryCache


@dataclass
class AnalysisOptions:
    """How the taint engine runs.

    Attributes:
        cache: summary memo shared across runs; ``None`` computes every
            region live and no cache key at all.  A hit returns what a
            cold run computes, so the cache never changes an answer.
    """

    cache: Optional["SummaryCache"] = None

    @classmethod
    def summary_backed(cls, cache: Optional["SummaryCache"] = None,
                       ) -> "AnalysisOptions":
        """Options with a cache (a fresh in-memory one unless given)."""
        if cache is None:
            from repro.analysis.modular.incremental import SummaryCache
            cache = SummaryCache()
        return cls(cache=cache)
