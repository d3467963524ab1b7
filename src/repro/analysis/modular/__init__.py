"""Summary-based spec-lint: call graph, the taint engine, and the
incremental summary cache.

Public surface:

- :func:`~repro.analysis.modular.callgraph.build_callgraph` /
  :class:`~repro.analysis.modular.callgraph.CallGraph` — function
  partition, call edges, Tarjan SCC condensation;
- :func:`~repro.analysis.modular.summaries.modular_analysis` — the taint
  engine behind :func:`repro.analysis.taint.analyze`, returning the full
  run (reuse counts, per-function summaries);
- :class:`~repro.analysis.modular.incremental.SummaryCache` — the
  persistent content-keyed memo.
"""

from repro.analysis.modular.callgraph import (
    CallGraph, FunctionNode, build_callgraph, entry_addresses)
from repro.analysis.modular.incremental import (
    SUMMARY_SCHEMA, RegionFacts, RegionOutputs, SummaryCache)
from repro.analysis.modular.summaries import (
    FunctionSummary, ModularAnalysis, modular_analysis)
from repro.analysis.taint import analyze

#: benchmarks/perf/seams.py times this name.
analyze_modular = analyze

__all__ = [
    "CallGraph", "FunctionNode", "build_callgraph", "entry_addresses",
    "SUMMARY_SCHEMA", "RegionFacts", "RegionOutputs", "SummaryCache",
    "FunctionSummary", "ModularAnalysis", "modular_analysis",
]
