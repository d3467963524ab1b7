"""Static speculative-leakage analysis (spec-lint) over ``repro.isa`` programs.

The dynamic side of the repo discovers transient leaks by *running* a PoC on
the cycle-level pipeline and checking the Table-1 matrix; this package finds
the same gadgets *without simulating a single cycle*:

- :mod:`repro.analysis.cfg` — basic blocks, direct/conditional/indirect/call
  edges, address-taken targets, reachability, and well-formedness checks;
- :mod:`repro.analysis.taint` — forward def-use dataflow with bounded
  constant sets: resolves pointer keys, reads initial data segments (the
  pointer/index tables attacker PoCs drive their gadgets with), and tracks
  which values may carry the planted secret;
- :mod:`repro.analysis.windows` — the transient windows opened by delayed
  conditional branches, indirect branches/returns, and bypassable stores,
  bounded by the ROB size from :class:`~repro.config.CoreConfig` and cut at
  ``SB`` barriers;
- :mod:`repro.analysis.gadgets` — Spectre v1/v2/v4/v5/BHB and MDS gadget
  classification plus per-:class:`~repro.config.DefenseKind` verdicts,
  including the tag-aware SpecASan call: a cross-allocation (mismatched-key)
  access is sanitized, a same-tag access is the TikTag-style residual the
  paper's §4.3 matrix encodes;
- :mod:`repro.analysis.differential` — the lint-vs-simulator harness that
  cross-checks static verdicts against
  :func:`repro.attacks.matrix.evaluate_matrix` cell by cell;
- :mod:`repro.analysis.modular` — the call graph and the summary engine
  that runs every taint fixpoint one function region at a time, with an
  incremental summary cache (:class:`AnalysisOptions` passes it) that
  never changes an answer.

``python -m repro.analysis`` exposes the lint report, the differential
check, witnesses, repair, and a CI ``--selftest``.
"""

from __future__ import annotations

from repro.analysis.cfg import CFG, BasicBlock, CFGProblem, address_taken, build_cfg
from repro.analysis.differential import (
    compare_matrices,
    render_differential,
    static_matrix,
)
from repro.analysis.gadgets import Channel, EntryKind, Gadget, find_gadgets
from repro.analysis.options import AnalysisOptions
from repro.analysis.taint import Value, analyze
from repro.analysis.windows import Window, compute_windows

__all__ = [
    "address_taken",
    "analyze",
    "AnalysisOptions",
    "BasicBlock",
    "build_cfg",
    "CFG",
    "CFGProblem",
    "Channel",
    "compare_matrices",
    "compute_windows",
    "EntryKind",
    "find_gadgets",
    "Gadget",
    "render_differential",
    "static_matrix",
    "Value",
    "Window",
]
