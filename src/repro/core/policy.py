"""The defense-policy interface the pipeline consults.

Every mitigation the paper evaluates — the unsafe baseline, speculative
barriers, STT, GhostMinion, SpecCFI, SpecASan, and SpecASan+CFI — is a
:class:`DefensePolicy` plugged into the same out-of-order core.  The hooks
correspond to the points where Figure 1's defense classes intervene:

- **delay ACCESS** — :meth:`may_issue_load` (fences) and the tag-check
  withhold path (:meth:`request_flags`, SpecASan);
- **delay USE** — :meth:`may_issue` (STT delays tainted transmitters);
- **delay TRANSMIT** — :meth:`request_flags` redirecting fills into the
  shadow MinionCache (GhostMinion);
- **control flow** — :meth:`fetch_may_follow_indirect` (SpecCFI).

The base class implements the *unsafe baseline*: every hook permits
everything and no MTE checks are requested.

The static analyzer (:mod:`repro.analysis`) models these same intervention
points without running the pipeline — its per-defense verdict table in
:func:`repro.analysis.gadgets.leaks_under` mirrors the hooks above, and the
differential harness (``python -m repro.analysis --differential``) checks
that both stories agree on every Table-1 cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.request import MemResponse
    from repro.pipeline.dyninstr import DynInstr
    from repro.pipeline.core import Core


@dataclass(frozen=True)
class RequestFlags:
    """How a load/store probe should traverse the hierarchy.

    Attributes:
        check_tag: perform the MTE tag check along the way.
        block_fill_on_mismatch: on mismatch, install nothing and withhold
            data (SpecASan G3).
        fill_to_minion: capture speculative fills in the MinionCache
            (GhostMinion).
        allow_stale_forward: the LFB may forward a pending entry's stale
            data to this (speculative) load — the MDS vulnerability the
            unsafe baseline exposes.
    """

    check_tag: bool = False
    block_fill_on_mismatch: bool = False
    fill_to_minion: bool = False
    allow_stale_forward: bool = True


#: The unsafe baseline's request flags (no policy here varies them per
#: instruction, so each returns one module constant).
BASELINE_FLAGS = RequestFlags()


class DefensePolicy:
    """Base policy: the unsafe baseline (no mitigation)."""

    #: Display name used by stats and the evaluation harness.
    name = "none"
    #: Whether MTE tag checking is architecturally enabled under this policy.
    mte_enabled = False
    #: Fetch bubble charged per *validated* indirect-branch prediction
    #: (SpecCFI's landing-pad / shadow-stack check sits in the fetch path).
    cfi_validation_bubble = 0

    def __init__(self) -> None:
        self.core: Optional["Core"] = None
        #: Dynamic-instruction sequence numbers this policy delayed at least
        #: once (Figure 8's "restricted speculative instructions").
        self.restricted_seqs: set = set()

    def attach(self, core: "Core") -> None:
        """Bind the policy to its core (called once by the core)."""
        self.core = core

    def restrict(self, dyn: "DynInstr") -> None:
        """Record that ``dyn`` was delayed by this defense this cycle."""
        self.restricted_seqs.add(dyn.seq)

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable policy state; subclasses extend this dict."""
        return {"name": self.name,
                "restricted_seqs": sorted(self.restricted_seqs)}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this (attached) policy.

        Mutates ``restricted_seqs`` in place rather than rebinding it, so
        composite members sharing the set stay aliased after a restore.
        """
        if state.get("name") != self.name:
            from repro.errors import CheckpointError
            raise CheckpointError(
                f"policy {state.get('name')!r} cannot restore into "
                f"{self.name!r}", kind="state-mismatch")
        self.restricted_seqs.clear()
        self.restricted_seqs.update(state["restricted_seqs"])

    # -- front end ----------------------------------------------------------

    def fetch_may_follow_indirect(self, dyn: "DynInstr", target: int) -> bool:
        """May fetch continue down the *predicted* target of an indirect
        branch/return?  SpecCFI refuses non-landing-pad targets."""
        return True

    def on_call_fetched(self, dyn: "DynInstr", return_address: int) -> None:
        """A call (BL/BLR) was fetched (SpecCFI maintains its shadow stack).
        ``dyn`` identifies the fetching instruction so speculative pushes can
        be rolled back on squash."""

    def predict_return(self, dyn: "DynInstr",
                       rsb_prediction: "Optional[int]") -> "Optional[int]":
        """The return-target prediction to use.  The default trusts the
        (circular, overflowable) RSB; SpecCFI substitutes its deeper shadow
        stack, immunizing prediction against RSB wrap-around pollution."""
        return rsb_prediction

    # -- issue --------------------------------------------------------------

    def may_issue(self, dyn: "DynInstr") -> bool:
        """May ``dyn`` leave the issue queue this cycle? (STT's gate.)"""
        return True

    def may_issue_load(self, dyn: "DynInstr") -> bool:
        """May this load access the memory subsystem now? (Fence's gate.)"""
        return True

    def may_forward_store(self, store: "DynInstr", load: "DynInstr") -> bool:
        """May store-to-load forwarding occur? SpecASan requires matching
        address keys (§3.4); the baseline always forwards — Fallout."""
        return True

    def must_hold_bypass_data(self, load: "DynInstr") -> bool:
        """Must this load's data be held back until the memory-dependence
        speculation it rode on resolves?  SpecASan holds *tagged* loads that
        bypassed unresolved stores: the access is issued (to verify the tag
        and warm the cache) but its value is not forwarded until the SQ
        disambiguates (§4.1, Spectre-STL)."""
        return False

    # -- memory -------------------------------------------------------------

    def request_flags(self, dyn: "DynInstr") -> RequestFlags:
        """Flags attached to this instruction's memory request."""
        return BASELINE_FLAGS

    def on_load_data_ready(self, dyn: "DynInstr", response: "MemResponse") -> bool:
        """Data arrived for a load; return False to withhold delivery."""
        return True

    def on_tag_outcome(self, dyn: "DynInstr", tag_ok: bool) -> None:
        """The tag-check outcome for ``dyn`` reached the core."""

    # -- lifecycle ------------------------------------------------------------

    def on_execute(self, dyn: "DynInstr") -> None:
        """``dyn`` finished executing (result available)."""

    def on_branch_resolved(self, dyn: "DynInstr", mispredicted: bool) -> None:
        """A branch resolved; speculation shadows may have lifted."""

    def on_squash(self, from_seq: int) -> None:
        """Everything with seq >= from_seq was squashed."""

    def on_commit(self, dyn: "DynInstr") -> None:
        """``dyn`` retired."""


class NoDefense(DefensePolicy):
    """Explicit alias of the unsafe baseline for readability at call sites."""

    name = "none"
