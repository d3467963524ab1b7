"""Summary-based spec-lint: call graph, the taint engine, and the
incremental summary cache.

Public surface:

- :func:`~repro.analysis.modular.callgraph.build_callgraph` /
  :class:`~repro.analysis.modular.callgraph.CallGraph` — function
  partition, call edges, Tarjan SCC condensation;
- :func:`~repro.analysis.modular.callgraph.resolved_indirect_targets` /
  :func:`~repro.analysis.modular.callgraph.refine_cfg` — per-branch
  indirect-edge pruning fed back into the CFG;
- :func:`~repro.analysis.modular.summaries.modular_analysis` — the taint
  engine behind :func:`repro.analysis.taint.analyze`, returning the full
  run (reuse counts, per-function summaries);
- :class:`~repro.analysis.modular.incremental.SummaryCache` — the
  persistent content-keyed memo, plus the digest/dirtying helpers.
"""

from repro.analysis.modular.callgraph import (
    CallGraph, FunctionNode, build_callgraph, entry_addresses,
    refine_cfg, resolved_indirect_targets)
from repro.analysis.modular.incremental import (
    SUMMARY_SCHEMA, RegionFacts, RegionOutputs, SummaryCache,
    dirty_functions, function_digests)
from repro.analysis.modular.summaries import (
    FunctionSummary, ModularAnalysis, modular_analysis)
from repro.analysis.taint import analyze

#: benchmarks/perf/seams.py times this name.
analyze_modular = analyze

__all__ = [
    "CallGraph", "FunctionNode", "build_callgraph", "entry_addresses",
    "refine_cfg", "resolved_indirect_targets",
    "SUMMARY_SCHEMA", "RegionFacts", "RegionOutputs", "SummaryCache",
    "dirty_functions", "function_digests",
    "FunctionSummary", "ModularAnalysis", "modular_analysis",
]
