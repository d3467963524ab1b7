"""Speculative Taint Tracking (STT-Default), the delay-USE baseline.

STT (MICRO'19) taints the result of every load executed speculatively and
delays *transmitters* — instructions that could encode the tainted value
into a microarchitectural channel — until the root load reaches its
visibility point (no older unresolved branch), at which point the taint
lifts.  We model STT-Default, the variant the paper compares against
(§5.1): explicit channels only, i.e. loads and stores whose address (or
store data) is tainted.  Implicit/contention channels (tainted ALU latency,
port pressure, branch resolution) are *not* delayed, which is why STT offers
only limited mitigation against SCC attacks; and a bound-to-commit load that
transiently receives stale LFB/store-buffer data is never tainted at all,
which is why MDS evades it (§4.1, Table 1).
"""

from __future__ import annotations

from repro.core.policy import DefensePolicy
from repro.pipeline.dyninstr import DynInstr


class STTPolicy(DefensePolicy):
    """Delay tainted transmitters until their taint roots become visible."""

    name = "stt"
    #: Cycles for the untaint event to propagate once a root reaches its
    #: visibility point.  STT's untaint is a wakeup-like broadcast walking
    #: the dependence graph, not an instant oracle; transmitters stay
    #: delayed while it drains.
    UNTAINT_LATENCY = 6

    def _root_tainted(self, root_seq: int) -> bool:
        if self.core.taint_root_still_speculative(root_seq):
            return True
        root = self.core.in_flight(root_seq)
        if root is None or not root.completed:
            return False
        return (root.speculative_at_complete
                and self.core.cycle < root.complete_cycle + self.UNTAINT_LATENCY)

    def _tainted(self, dyn: DynInstr) -> bool:
        return any(self._root_tainted(root) for root in dyn.taint_roots)

    def may_issue(self, dyn: DynInstr) -> bool:
        # Transmitters: loads (tainted address would leak through the cache)
        # and stores (tainted address/data would leak through the store
        # buffer / RFO traffic).
        if not dyn.is_memory:
            return True
        return not self._tainted(dyn)

    def may_forward_store(self, store: DynInstr, load: DynInstr) -> bool:
        # STT does not change store-buffer behaviour.
        return True
