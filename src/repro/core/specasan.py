"""SpecASan: Speculative Address Sanitization (§3).

The mechanism, exactly as Figure 4's state machine describes:

1. On dispatch, LQ/SQ entries start with ``tcs = INIT``.
2. When a load/store issues its memory access (or tag probe), the LSQ moves
   ``tcs`` to ``WAIT`` and the hierarchy performs the MTE check at the
   earliest possible point (L1 / LFB / L2 / memory controller).
3. The outcome returns to the :class:`TagCheckStatusHandler` (TSH):

   - match → ``tcs = SAFE``, the ROB's SSA bit is set to *safe*, data flows;
   - mismatch → ``tcs = UNSAFE``, SSA = *unsafe*, **no data is returned and
     nothing is installed in any cache/LFB/MSHR** (G3); the ROB broadcast
     marks dependent memory instructions unsafe after
     ``unsafe_broadcast_latency`` cycles.

4. The unsafe access then simply waits: if an older branch was mispredicted
   it is squashed with no trace; if it turns out to be on the committed path
   the core raises the architectural tag-check fault (§3.4).

Store-to-load forwarding requires the *address keys* of the load and store
to match; mismatches block the forward (§3.4), which is what stops Fallout.

Because unsafe accesses are rare in benign code, SpecASan's only steady-state
cost is the MTE machinery itself (the tag-storage reads folded into fills).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.policy import DefensePolicy, RequestFlags
from repro.mte.tags import key_of
from repro.pipeline.dyninstr import DynInstr, TagCheckStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.request import MemResponse
    from repro.pipeline.core import Core

#: Every access is checked and mismatches propagate nothing upward (G3).
SPECASAN_FLAGS = RequestFlags(check_tag=True, block_fill_on_mismatch=True,
                              allow_stale_forward=True)


class TagCheckStatusHandler:
    """The TSH of §3.3.2: owns every ``tcs`` transition and the ROB signals."""

    def __init__(self) -> None:
        self.core = None
        self.safe_outcomes = 0
        self.unsafe_outcomes = 0
        #: Chronological (cycle, seq, event) log: the Figure-5 walkthrough
        #: and the state-machine tests read this.
        self.trace = []

    def attach(self, core: "Core") -> None:
        self.core = core

    def _record(self, event: str, dyn: DynInstr) -> None:
        self.trace.append((self.core.cycle, dyn.seq, event))

    def on_outcome(self, dyn: DynInstr, tag_ok: bool) -> None:
        """A tag-check outcome arrived from the memory subsystem."""
        if tag_ok:
            dyn.tcs = TagCheckStatus.SAFE
            dyn.ssa = True       # notify ROB: safe speculative access
            self.safe_outcomes += 1
            self._record("tcs=safe SSA=1", dyn)
        else:
            dyn.tcs = TagCheckStatus.UNSAFE
            dyn.ssa = False      # notify ROB: unsafe speculative access
            self.unsafe_outcomes += 1
            self._record("tcs=unsafe SSA=0", dyn)
            # ROB broadcast: dependent LQ/SQ entries become unsafe too.
            self.core.schedule_unsafe_broadcast(dyn)

    def mark_unsafe_forward(self, load: DynInstr) -> None:
        """A key-mismatched store-to-load forward was prevented (§3.4)."""
        load.tcs = TagCheckStatus.UNSAFE
        load.ssa = False
        self.unsafe_outcomes += 1
        self._record("stl-forward blocked, tcs=unsafe", load)
        self.core.schedule_unsafe_broadcast(load)

    def state_dict(self) -> dict:
        return {"safe_outcomes": self.safe_outcomes,
                "unsafe_outcomes": self.unsafe_outcomes,
                "trace": [list(entry) for entry in self.trace]}

    def load_state_dict(self, state: dict) -> None:
        self.safe_outcomes = int(state["safe_outcomes"])
        self.unsafe_outcomes = int(state["unsafe_outcomes"])
        self.trace = [tuple(entry) for entry in state["trace"]]


class SpecASanPolicy(DefensePolicy):
    """The paper's defense: MTE checks extended to the speculative path."""

    name = "specasan"
    mte_enabled = True

    def __init__(self) -> None:
        super().__init__()
        self.tsh = TagCheckStatusHandler()

    def attach(self, core: "Core") -> None:
        super().attach(core)
        self.tsh.attach(core)

    def request_flags(self, dyn: DynInstr) -> RequestFlags:
        # Stale LFB forwards are *lock-gated*, not forbidden (§3.3.3): the
        # hierarchy compares the requesting pointer's key against the stale
        # occupant's stored allocation tags and, with
        # ``block_fill_on_mismatch`` set, withholds the stale bytes on a
        # mismatch.  A pointer carrying the victim line's own tag is the
        # TikTag-style same-key residual and is forwarded — exactly what
        # the static model's LFB verdict encodes.
        return SPECASAN_FLAGS

    def must_hold_bypass_data(self, load: DynInstr) -> bool:
        # Tagged loads that speculated past unresolved stores wait for the
        # SQ to disambiguate before their data is usable (§4.1).  Untagged
        # (key 0) accesses are outside the software-declared protection
        # boundary and proceed as on the baseline.
        return key_of(load.addr, self.core.config.mte.tag_bits) != 0

    def may_forward_store(self, store: DynInstr, load: DynInstr) -> bool:
        bits = self.core.config.mte.tag_bits
        if key_of(store.addr, bits) == key_of(load.addr, bits):
            return True
        self.tsh.mark_unsafe_forward(load)
        return False

    def on_tag_outcome(self, dyn: DynInstr, tag_ok: bool) -> None:
        self.tsh.on_outcome(dyn, tag_ok)

    def on_load_data_ready(self, dyn: DynInstr, response: "MemResponse") -> bool:
        # Data only ever arrives for safe accesses (the hierarchy withholds
        # mismatched responses); deliver it.
        return True

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["tsh"] = self.tsh.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.tsh.load_state_dict(state["tsh"])
