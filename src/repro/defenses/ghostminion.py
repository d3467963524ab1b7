"""GhostMinion: the delay-TRANSMIT (shadow-structure) baseline.

GhostMinion (MICRO'21) lets speculative loads execute but captures their
cache fills in a small strictness-ordered "MinionCache"; the line becomes
architecturally visible (promoted to L1) only when the load commits.
Squashed loads therefore leave no trace in the primary hierarchy — Spectre's
TRANSMIT stage is hidden.  It does not stop the *access* itself, so
contention channels and stale-data (MDS) forwards still leak (Table 1).

The modelled overhead sources match the original's: shadow-capacity
evictions force refetches, and speculative hits that would have warmed L1
stay confined until commit.
"""

from __future__ import annotations

from repro.core.policy import DefensePolicy, RequestFlags
from repro.pipeline.dyninstr import DynInstr


#: Speculative fills go to the MinionCache; stale LFB forwards still pass.
GHOSTMINION_FLAGS = RequestFlags(fill_to_minion=True, allow_stale_forward=True)


class GhostMinionPolicy(DefensePolicy):
    """Redirect speculative fills into the MinionCache; promote at commit."""

    name = "ghostminion"

    def request_flags(self, dyn: DynInstr) -> RequestFlags:
        return GHOSTMINION_FLAGS

    def on_commit(self, dyn: DynInstr) -> None:
        if dyn.is_load and dyn.response is not None:
            self.core.hierarchy.promote_minion(
                dyn.response.line_address, self.core.core_id)

    def on_squash(self, from_seq: int) -> None:
        # Strictness ordering: shadow lines of squashed loads vanish.
        self.core.hierarchy.squash_minion(self.core.core_id, from_seq)
