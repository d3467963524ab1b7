"""Dynamic (in-flight) instructions.

A :class:`DynInstr` wraps one static :class:`~repro.isa.instructions.Instruction`
fetched down the (possibly wrong) predicted path.  It carries everything the
out-of-order machinery needs: renamed source producers, the computed result,
branch-resolution state, the memory access response, SpecASan's tag-check
status (``tcs``) and ROB safe-speculative-access bit (``ssa``), and STT's
taint roots.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.isa.instructions import Instruction
from repro.memory.request import MemResponse


class TagCheckStatus(enum.Enum):
    """The two-bit ``tcs`` field SpecASan adds to each LSQ entry (§3.3.2).

    ``INIT`` (00) on allocation, ``WAIT`` (11) while the check is in flight,
    ``SAFE`` (01) on a match, ``UNSAFE`` (10) on a mismatch.
    """

    INIT = 0b00
    SAFE = 0b01
    UNSAFE = 0b10
    WAIT = 0b11


class InstrState(enum.Enum):
    """Lifecycle of a dynamic instruction."""

    FETCHED = "fetched"
    DISPATCHED = "dispatched"
    ISSUED = "issued"
    COMPLETED = "completed"
    COMMITTED = "committed"


_COMPLETED = InstrState.COMPLETED
_COMMITTED = InstrState.COMMITTED

#: "No wake cycle is known": later than any cycle a run reaches.
NO_EVENT = 1 << 62


class DynInstr:
    """One in-flight instruction.

    A plain class: ``__init__`` sets the per-instruction fields and every
    other field starts from a class-level (immutable) default, so an
    instruction is cheap to build.  Equality is identity: ``seq`` is
    unique, and queue membership tests (``in``, ``list.remove``) must not
    compare every field.
    """

    _state = InstrState.FETCHED
    #: ``state`` is COMPLETED or COMMITTED; kept in step by the ``state``
    #: setter, so the hot paths read a plain attribute.
    completed = False
    squashed = False

    result: Optional[int] = None
    issue_cycle = -1
    complete_cycle = -1

    # Pipeline timestamps (repro.telemetry): -1 until the stage is reached.
    dispatch_cycle = -1
    commit_cycle = -1
    squash_cycle = -1
    #: Cycle the active defense first restricted this instruction, and the
    #: cycle that restriction lifted (load data released / issue finally
    #: allowed) — their difference is the Figure-8 restriction delay.
    restricted_cycle = -1
    restriction_lifted_cycle = -1

    # Branch state.
    pred_taken = False
    pred_target = 0
    bhb_snapshot = 0
    resolved = False
    actual_taken = False
    actual_target = 0
    mispredicted = False

    # Memory state.
    addr: Optional[int] = None          # tagged effective address
    addr_ready_cycle = -1
    mem_issued = False
    response: Optional[MemResponse] = None
    forwarded_from: Optional[int] = None
    bypassed_store_seqs: FrozenSet[int] = frozenset()
    used_stale_data = False
    #: The load's value is transient (loosenet forward / stale LFB data)
    #: and must not commit until the full check verifies or machine-clears.
    verify_pending = False
    store_value: Optional[int] = None
    #: A load's first cycle at which an LSQ visit may change its state
    #: (``LoadStoreQueues._load_wake``); derived, never checkpointed.
    lsq_wake = NO_EVENT

    # SpecASan state (§3.3.2, §3.4).
    tcs = TagCheckStatus.INIT
    ssa: Optional[bool] = None          # ROB safe-speculative-access bit
    unsafe_dependent = False            # marked unsafe by the ROB broadcast
    tag_fault_pending = False

    # STT taint: sequence numbers of the speculative loads this value
    # (transitively) derives from.
    taint_roots: FrozenSet[int] = frozenset()
    #: Whether this instruction was speculative when its result appeared
    #: (STT taints such loads; untaint lags the visibility point by the
    #: broadcast latency).
    speculative_at_complete = False

    # Detector-level (oracle) taint used by the attack harness: does this
    # value derive from the planted secret?  Independent of any defense.
    secret_tainted = False

    # Stats plumbing.
    was_restricted = False

    #: Producers this instruction's issue still waits on: set at dispatch,
    #: pruned by writeback as they complete (empty = operands ready).
    issue_waits: Sequence["DynInstr"] = ()

    def __init__(self, seq: int, static: Instruction, pc: int,
                 fetch_cycle: int = -1):
        self.seq = seq
        self.static = static
        self.pc = pc
        self.fetch_cycle = fetch_cycle
        #: Renamed sources: arch reg -> producing DynInstr (None = the ARF).
        self.producers: Dict[int, Optional["DynInstr"]] = {}
        #: IQ entries whose ``issue_waits`` hold this instruction (derived
        #: at dispatch and on restore, never checkpointed).
        self.consumers: List["DynInstr"] = []
        # The static classification, copied for the hot paths.
        self.klass = static.klass
        self.is_load = static.is_load
        self.is_store = static.is_store
        self.is_memory = static.is_memory
        self.is_branch = static.is_branch
        self.needs_issue = static.needs_issue

    @property
    def state(self) -> InstrState:
        """Lifecycle stage; setting it also sets :attr:`completed`."""
        return self._state

    @state.setter
    def state(self, value: InstrState) -> None:
        self._state = value
        self.completed = value is _COMPLETED or value is _COMMITTED

    # -- convenience -----------------------------------------------------------

    def producer_values_ready(self) -> bool:
        """All renamed sources have produced their values."""
        return all(p is None or p.completed for p in self.producers.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DynInstr #{self.seq} {self.static.render()} pc={self.pc:#x} "
                f"{self.state.value}{' SQUASHED' if self.squashed else ''}>")

    # -- checkpointing ----------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of this in-flight instruction.

        Cross-instruction references (``producers``, ``forwarded_from``)
        are stored as sequence numbers; the core's restore pass rewires
        them into object references once every live instruction exists.
        ``static`` is rehydrated from the program text via the pc.
        """
        return {
            "seq": self.seq,
            "pc": self.pc,
            "state": self.state.value,
            "squashed": self.squashed,
            "producers": [[reg, None if p is None else p.seq]
                          for reg, p in self.producers.items()],
            "result": self.result,
            "issue_cycle": self.issue_cycle,
            "complete_cycle": self.complete_cycle,
            "fetch_cycle": self.fetch_cycle,
            "dispatch_cycle": self.dispatch_cycle,
            "commit_cycle": self.commit_cycle,
            "squash_cycle": self.squash_cycle,
            "restricted_cycle": self.restricted_cycle,
            "restriction_lifted_cycle": self.restriction_lifted_cycle,
            "pred_taken": self.pred_taken,
            "pred_target": self.pred_target,
            "bhb_snapshot": self.bhb_snapshot,
            "resolved": self.resolved,
            "actual_taken": self.actual_taken,
            "actual_target": self.actual_target,
            "mispredicted": self.mispredicted,
            "addr": self.addr,
            "addr_ready_cycle": self.addr_ready_cycle,
            "mem_issued": self.mem_issued,
            "response": (None if self.response is None
                         else self.response.state_dict()),
            "forwarded_from": self.forwarded_from,
            "bypassed_store_seqs": sorted(self.bypassed_store_seqs),
            "used_stale_data": self.used_stale_data,
            "verify_pending": self.verify_pending,
            "store_value": self.store_value,
            "tcs": self.tcs.value,
            "ssa": self.ssa,
            "unsafe_dependent": self.unsafe_dependent,
            "tag_fault_pending": self.tag_fault_pending,
            "taint_roots": sorted(self.taint_roots),
            "speculative_at_complete": self.speculative_at_complete,
            "secret_tainted": self.secret_tainted,
            "was_restricted": self.was_restricted,
        }

    @classmethod
    def from_state_dict(cls, state: dict,
                        static: Instruction) -> "DynInstr":
        """Rebuild from :meth:`state_dict`; ``producers`` stays empty until
        the caller rewires seq references into object references."""
        dyn = cls(seq=state["seq"], static=static, pc=state["pc"],
                  fetch_cycle=state["fetch_cycle"])
        dyn.state = InstrState(state["state"])
        dyn.squashed = state["squashed"]
        dyn.result = state["result"]
        dyn.issue_cycle = state["issue_cycle"]
        dyn.complete_cycle = state["complete_cycle"]
        dyn.dispatch_cycle = state["dispatch_cycle"]
        dyn.commit_cycle = state["commit_cycle"]
        dyn.squash_cycle = state["squash_cycle"]
        dyn.restricted_cycle = state["restricted_cycle"]
        dyn.restriction_lifted_cycle = state["restriction_lifted_cycle"]
        dyn.pred_taken = state["pred_taken"]
        dyn.pred_target = state["pred_target"]
        dyn.bhb_snapshot = state["bhb_snapshot"]
        dyn.resolved = state["resolved"]
        dyn.actual_taken = state["actual_taken"]
        dyn.actual_target = state["actual_target"]
        dyn.mispredicted = state["mispredicted"]
        dyn.addr = state["addr"]
        dyn.addr_ready_cycle = state["addr_ready_cycle"]
        dyn.mem_issued = state["mem_issued"]
        if state["response"] is not None:
            dyn.response = MemResponse.from_state_dict(state["response"])
        dyn.forwarded_from = state["forwarded_from"]
        dyn.bypassed_store_seqs = frozenset(state["bypassed_store_seqs"])
        dyn.used_stale_data = state["used_stale_data"]
        dyn.verify_pending = state["verify_pending"]
        dyn.store_value = state["store_value"]
        dyn.tcs = TagCheckStatus(state["tcs"])
        dyn.ssa = state["ssa"]
        dyn.unsafe_dependent = state["unsafe_dependent"]
        dyn.tag_fault_pending = state["tag_fault_pending"]
        dyn.taint_roots = frozenset(state["taint_roots"])
        dyn.speculative_at_complete = state["speculative_at_complete"]
        dyn.secret_tainted = state["secret_tainted"]
        dyn.was_restricted = state["was_restricted"]
        return dyn
