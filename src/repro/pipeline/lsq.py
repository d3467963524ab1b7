"""The Load/Store Queues (§3.3.2) and the memory stage.

The LSQ is where most of the paper's action happens:

- loads search the store queue for forwarding opportunities; under SpecASan
  forwarding additionally requires the *address keys* of the load and the
  store to match (§3.4 "Store-to-Load Forwarding") — the rule that stops
  Fallout;
- loads older-store-unknown may speculate past them when the memory
  dependence predictor allows (the Spectre-STL window), recording the
  bypassed stores so a later address resolution can detect the ordering
  violation and replay;
- issued loads receive a :class:`~repro.memory.request.MemResponse`; a
  pending-LFB stale forward models the RIDL/ZombieLoad window, verified
  against the real fill on arrival (a mismatch triggers a machine-clear
  replay, as on real hardware);
- the tag-check outcome drives the ``tcs`` field and, through the policy,
  SpecASan's selective delay.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.isa.instructions import Opcode
from repro.memory.request import AccessKind, MemRequest
from repro.mte.tags import key_of, strip_tag, with_key
from repro.pipeline.dyninstr import DynInstr, NO_EVENT, TagCheckStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import Core

_WAIT = TagCheckStatus.WAIT


class LoadStoreQueues:
    """Split load queue / store queue with forwarding and disambiguation."""

    def __init__(self, core: "Core"):
        self.core = core
        self.lq: List[DynInstr] = []
        self.sq: List[DynInstr] = []
        self.lq_capacity = core.config.core.lq_entries
        self.sq_capacity = core.config.core.sq_entries
        #: Loads that consumed stale LFB data, awaiting fill verification.
        self._stale_pending: List[DynInstr] = []
        #: Partial-address (loosenet) forwards awaiting full-address check:
        #: (load, store, verify_cycle).  Mismatches machine-clear — Fallout.
        self._partial_pending: List[tuple] = []
        #: Load PCs that already machine-cleared once; they replay with
        #: conservative (full-address) disambiguation.
        self._partial_blocked_pcs: set = set()

    # -- dispatch ---------------------------------------------------------------

    def can_dispatch(self, dyn: DynInstr) -> bool:
        if dyn.is_load:
            return len(self.lq) < self.lq_capacity
        if dyn.is_store:
            return len(self.sq) < self.sq_capacity
        return True

    def dispatch(self, dyn: DynInstr) -> None:
        if dyn.is_load:
            self.lq.append(dyn)
        elif dyn.is_store:
            self.sq.append(dyn)

    # -- squash -----------------------------------------------------------------

    def squash_from(self, seq: int) -> None:
        """Drop every entry with sequence number >= seq."""
        self.lq = [d for d in self.lq if d.seq < seq]
        self.sq = [d for d in self.sq if d.seq < seq]
        self._stale_pending = [d for d in self._stale_pending if d.seq < seq]
        self._partial_pending = [
            (l, s, c) for l, s, c in self._partial_pending if l.seq < seq]

    def remove_committed(self, dyn: DynInstr) -> None:
        """Commit is in order and the queues are in seq order, so a
        committing load or store is its queue's oldest entry."""
        queue = self.lq if dyn.is_load else self.sq if dyn.is_store else None
        if queue and queue[0] is dyn:
            queue.pop(0)

    # -- checkpointing ------------------------------------------------------------

    def state_dict(self) -> dict:
        """Queue membership as sequence numbers (the instruction payloads
        live in the core's instruction table)."""
        return {
            "lq": [d.seq for d in self.lq],
            "sq": [d.seq for d in self.sq],
            "stale_pending": [d.seq for d in self._stale_pending],
            "partial_pending": [[l.seq, s.seq, c]
                                for l, s, c in self._partial_pending],
            "partial_blocked_pcs": sorted(self._partial_blocked_pcs),
        }

    def load_state_dict(self, state: dict, instrs: dict) -> None:
        """Restore queue membership; ``instrs`` maps seq -> DynInstr."""
        self.lq = [instrs[seq] for seq in state["lq"]]
        for load in self.lq:
            load.lsq_wake = 0  # derived, not stored: visit each load once
        self.sq = [instrs[seq] for seq in state["sq"]]
        self._stale_pending = [instrs[seq]
                               for seq in state["stale_pending"]]
        self._partial_pending = [
            (instrs[load_seq], instrs[store_seq], cycle)
            for load_seq, store_seq, cycle in state["partial_pending"]]
        self._partial_blocked_pcs = set(state["partial_blocked_pcs"])

    # -- the memory stage ---------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """One cycle of the memory pipeline."""
        self._verify_stale_forwards(cycle)
        self._verify_partial_forwards(cycle)
        self._process_store_addresses(cycle)
        self._process_loads(cycle)

    def next_event_cycle(self, cycle: int) -> int:
        """The first cycle from ``cycle`` on at which :meth:`tick` may
        change any state, given that nothing else changes first;
        :data:`NO_EVENT` when no entry waits on a known cycle.

        The wake cycles: a stale forward's data ready cycle, a partial
        forward's verify cycle, a store's address ready cycle and each
        load's ``lsq_wake`` (:meth:`_load_wake`).
        """
        wake = NO_EVENT
        for dyn in self._stale_pending:
            response = dyn.response
            if dyn.squashed or (response is not None
                                and response.ready_cycle <= cycle):
                return cycle
            if response is not None:
                wake = min(wake, response.ready_cycle)
        for load, _store, verify_cycle in self._partial_pending:
            if load.squashed or verify_cycle <= cycle:
                return cycle
            wake = min(wake, verify_cycle)
        for store in self.sq:
            if store.squashed or store.addr is None or store.mem_issued:
                continue
            if store.addr_ready_cycle <= cycle:
                return cycle
            wake = min(wake, store.addr_ready_cycle)
        for load in self.lq:
            if load.lsq_wake < wake:
                wake = load.lsq_wake
        return max(wake, cycle)

    def _load_wake(self, load: DynInstr, cycle: int) -> int:
        """The first cycle from ``cycle`` on at which visiting ``load`` in
        :meth:`_process_loads` may change any state, given that nothing
        else changes first; :data:`NO_EVENT` when none is known.

        The one rule for when a load is due.  Waking early is harmless (the
        visit finds nothing to do), so a load whose next step depends on
        other entries is due every cycle: one trying to start (forward,
        speculate past stores or access memory), one holding bypass data or
        ready data the policy holds back, one inside its stale-LFB window
        and one with a tag outcome to report.  Everything it reads changes
        only in the load's own visit, in ``Core._execute`` (which sets
        ``lsq_wake`` itself), or in the direction that makes the load due
        later: a completion being scheduled, ``tcs`` leaving WAIT, the
        restriction records growing.
        """
        if (load.squashed or load.complete_cycle >= 0
                or load.addr is None):
            return NO_EVENT  # squashed, done, or not yet executed
        if load.addr_ready_cycle > cycle:
            return load.addr_ready_cycle
        response = load.response
        if response is None:
            return NO_EVENT if load.forwarded_from is not None else cycle
        wake = NO_EVENT
        if load.tcs is _WAIT and response.tag_ok is not None:
            if response.tag_known_cycle <= cycle:
                return cycle
            wake = response.tag_known_cycle
        ready = response.ready_cycle
        if cycle < ready:
            stale_ready = response.stale_ready_cycle
            if (response.stale_data is not None and not load.used_stale_data
                    and stale_ready < ready):
                if stale_ready <= cycle:
                    return cycle
                wake = min(wake, stale_ready)
            return min(wake, ready)
        if response.data_withheld:
            # Withheld and already restricted: each visit would repeat a
            # restriction that is already recorded, until squash or commit.
            if (load.was_restricted
                    and load.seq in self.core.policy.restricted_seqs):
                return wake
            return cycle
        if not load.used_stale_data:
            return cycle
        return wake

    # .. partial-forward (loosenet) verification — the Fallout window ..........

    def _verify_partial_forwards(self, cycle: int) -> None:
        still_pending = []
        for load, store, verify_cycle in self._partial_pending:
            if load.squashed:
                continue
            if cycle < verify_cycle:
                still_pending.append((load, store, verify_cycle))
                continue
            # Full-address check: the partial match was wrong by construction
            # (exact matches take the normal forwarding path) — machine clear.
            self._partial_blocked_pcs.add(load.pc)
            self.core.stats.ordering_violations += 1
            self.core.squash_from(load.seq, load.pc, reason="loosenet-clear")
        self._partial_pending = still_pending

    # .. stale-forward verification (machine clear on mismatch) ..................

    def _verify_stale_forwards(self, cycle: int) -> None:
        still_pending = []
        for dyn in self._stale_pending:
            if dyn.squashed:
                continue
            response = dyn.response
            if response is None or cycle < response.ready_cycle:
                still_pending.append(dyn)
                continue
            real = int.from_bytes(response.data, "little") if response.data else None
            if real is not None and real != dyn.result:
                # The transient value was wrong: machine clear, replay.
                self.core.squash_from(dyn.seq, dyn.pc, reason="mds-verify")
            else:
                dyn.verify_pending = False  # stale data matched; it stands
        self._stale_pending = still_pending

    # .. stores ..................................................................

    def _process_store_addresses(self, cycle: int) -> None:
        for store in self.sq:
            if store.squashed or store.addr is None:
                continue
            if store.addr_ready_cycle > cycle:
                continue
            if not store.mem_issued:
                store.mem_issued = True
                self._check_ordering_violation(store)
                self._probe_store_tag(store, cycle)

    def _check_ordering_violation(self, store: DynInstr) -> None:
        """A store's address just resolved: younger loads that speculatively
        bypassed it and overlap must replay (memory-order violation)."""
        store_lo = strip_tag(store.addr)
        store_hi = store_lo + store.static.memory_bytes
        for load in self.lq:
            if load.squashed or load.seq < store.seq:
                continue
            if store.seq not in load.bypassed_store_seqs:
                continue
            if load.addr is None or not (load.mem_issued or load.completed):
                continue
            load_lo = strip_tag(load.addr)
            load_hi = load_lo + load.static.memory_bytes
            if load_lo < store_hi and store_lo < load_hi:
                self.core.mdp.train_violation(load.pc)
                self.core.stats.ordering_violations += 1
                self.core.squash_from(load.seq, load.pc, reason="mem-order")
                return

    def _probe_store_tag(self, store: DynInstr, cycle: int) -> None:
        """Issue the store's tag probe (read-for-ownership path)."""
        flags = self.core.policy.request_flags(store)
        if store.static.op is Opcode.STG:
            return  # STG writes tag storage; it is not itself checked.
        if not flags.check_tag:
            return
        response = self.core.hierarchy.access(MemRequest(
            address=store.addr, size=store.static.memory_bytes,
            kind=AccessKind.STORE, cycle=cycle, check_tag=True,
            block_fill_on_mismatch=flags.block_fill_on_mismatch,
            speculative=self.core.is_speculative(store),
            core_id=self.core.core_id))
        store.response = response
        store.tcs = TagCheckStatus.WAIT
        self.core.stats.tag_checks += 1
        if self.core.trace is not None:
            self.core.trace.on_defense_event(store, cycle, "tagcheck",
                                             ok=response.tag_ok)
        if response.tag_ok is False:
            self.core.stats.tag_mismatches += 1
            self.core.policy.on_tag_outcome(store, False)
        else:
            self.core.policy.on_tag_outcome(store, True)

    # .. loads ...................................................................

    def _process_loads(self, cycle: int) -> None:
        """Visit each load that is due (``lsq_wake``), oldest first, and
        recompute its wake after the visit."""
        for load in list(self.lq):
            if load.lsq_wake > cycle:
                continue
            if not (load.squashed or load.completed or load.addr is None
                    or load.addr_ready_cycle > cycle):
                if load.response is not None:
                    self._advance_pending_load(load, cycle)
                elif load.forwarded_from is None:
                    self._try_start_load(load, cycle)
                # else: forwarding already scheduled
            load.lsq_wake = self._load_wake(load, cycle + 1)

    def _advance_pending_load(self, load: DynInstr, cycle: int) -> None:
        """Drive a load whose memory request is outstanding."""
        response = load.response
        # Report the tag outcome to the policy once it is known.
        if (load.tcs is TagCheckStatus.WAIT
                and cycle >= response.tag_known_cycle
                and response.tag_ok is not None):
            if self.core.trace is not None:
                self.core.trace.on_defense_event(load, cycle, "tag-outcome",
                                                 ok=response.tag_ok)
            self.core.policy.on_tag_outcome(load, response.tag_ok)
        # MDS window: the LFB forwards the pending entry's *stale* bytes to
        # any load that hits it before the fill arrives; the value is
        # verified at fill time and machine-cleared on mismatch.  Crucially
        # the load need not be branch-speculative — which is exactly why
        # RIDL/ZombieLoad evade STT and GhostMinion (§4.1).  The policy is
        # asked last, so only a load inside the window pays for the call.
        if (response.stale_data is not None and not load.used_stale_data
                and cycle >= response.stale_ready_cycle
                and cycle < response.ready_cycle
                and self.core.policy.request_flags(load).allow_stale_forward):
            value = int.from_bytes(response.stale_data, "little")
            load.used_stale_data = True
            load.verify_pending = True
            self.core.stats.stale_forwards += 1
            self._stale_pending.append(load)
            offset = strip_tag(load.addr) % self.core.hierarchy.line_bytes
            stale_source = (response.stale_line_address + offset
                            if response.stale_line_address >= 0 else None)
            self.core.complete_load(load, value, cycle,
                                    source_address=stale_source,
                                    stale=True)
            return
        if cycle < response.ready_cycle:
            return
        if response.data_withheld:
            # SpecASan: unsafe access — no data, the entry waits for
            # speculation to resolve (§3.4); the commit stage faults if it
            # turns out to be on the committed path.
            if not load.was_restricted:
                self.core.stats.unsafe_delays += 1
                if self.core.trace is not None:
                    self.core.trace.on_defense_event(
                        load, cycle, "withheld",
                        served_from=response.served_from.value)
            self.core.mark_restricted(load)
            return
        if load.used_stale_data:
            return  # verification path handles it
        if (load.bypassed_store_seqs
                and self.core.policy.must_hold_bypass_data(load)
                and self.core._any_bypassed_unresolved(load)):
            # SpecASan's Spectre-STL rule: the access was issued (tag check +
            # cache warm) but its value is withheld until the SQ resolves the
            # memory-dependence speculation (§4.1).
            self.core.mark_restricted(load)
            return
        if not self.core.policy.on_load_data_ready(load, response):
            return
        if load.static.op is Opcode.LDG:
            # LDG replaces the pointer's key with the granule's lock.
            value = with_key(load.addr, self.core.hierarchy.read_tag(load.addr),
                             self.core.config.mte.tag_bits)
        else:
            value = int.from_bytes(
                response.data[:load.static.memory_bytes], "little")
        self.core.complete_load(load, value, cycle)

    def _try_start_load(self, load: DynInstr, cycle: int) -> None:
        """Attempt forwarding, dependence speculation, or a memory access."""
        if not self.core.policy.may_issue_load(load):
            self.core.mark_restricted(load)
            return

        load_lo = strip_tag(load.addr)
        load_hi = load_lo + load.static.memory_bytes
        unknown_older: List[DynInstr] = []
        match: Optional[DynInstr] = None
        for store in self.sq:
            if store.squashed or store.seq >= load.seq:
                continue
            if store.static.op is Opcode.STG:
                # Tag stores order like stores but never forward data: a
                # load touching the same granule waits for the retag; an
                # unresolved STG is bypassed like any unresolved store (the
                # ordering-violation check replays on actual overlap).
                if store.addr is None or store.addr_ready_cycle > cycle:
                    unknown_older.append(store)
                    continue
                stg_lo = strip_tag(store.addr) & ~15
                if stg_lo < load_hi and load_lo < stg_lo + 16:
                    if load.static.op is Opcode.LDG:
                        # LDG forwards the in-flight allocation tag straight
                        # from the store queue (the tag analogue of STLF).
                        value = self.core.read_store_value(store)
                        if value is not None:
                            tag = key_of(value,
                                         self.core.config.mte.tag_bits)
                            load.forwarded_from = store.seq
                            self.core.stats.store_forwards += 1
                            self.core.complete_load(
                                load, with_key(load.addr, tag,
                                               self.core.config.mte.tag_bits),
                                cycle + 1, forwarded_store=store)
                            return
                    return  # data loads wait until the STG commits
                continue
            if store.addr is None or store.addr_ready_cycle > cycle:
                unknown_older.append(store)
                continue
            store_lo = strip_tag(store.addr)
            store_hi = store_lo + store.static.memory_bytes
            if load_lo < store_hi and store_lo < load_hi:
                match = store  # youngest older match wins (list is in order)

        if match is not None:
            self._try_forward(load, match, cycle, unknown_older)
            return

        if self._try_partial_forward(load, cycle, load_lo):
            return

        if unknown_older:
            if self.core.mdp.predicts_dependence(load.pc):
                return  # conservative: wait for older store addresses
            load.bypassed_store_seqs = frozenset(
                s.seq for s in unknown_older) | load.bypassed_store_seqs
        self._issue_to_memory(load, cycle)

    def _try_partial_forward(self, load: DynInstr, cycle: int,
                             load_lo: int) -> bool:
        """Loosenet partial-address store forwarding (the Fallout window).

        Real store buffers match loads against stores by page offset first
        and forward immediately; the full-address check arrives a few cycles
        later and machine-clears on mismatch.  A load whose page offset
        aliases an in-flight store transiently receives that store's data.
        Under SpecASan the forward additionally requires matching address
        keys (§3.4), which is what stops Fallout.
        """
        if load.pc in self._partial_blocked_pcs:
            return False
        for store in reversed(self.sq):
            if (store.squashed or store.seq >= load.seq or store.addr is None
                    or store.addr_ready_cycle > cycle
                    or store.static.op is Opcode.STG):
                continue
            store_lo = strip_tag(store.addr)
            if store_lo == load_lo or (store_lo & 0xFFF) != (load_lo & 0xFFF):
                continue
            if store.static.memory_bytes < load.static.memory_bytes:
                continue
            value = self.core.read_store_value(store)
            if value is None:
                continue
            if not self.core.policy.may_forward_store(store, load):
                self.core.stats.forward_blocked += 1
                self.core.mark_restricted(load)
                # No forward; the load proceeds to memory as usual.
                return False
            self.core.stats.store_forwards += 1
            load.forwarded_from = store.seq
            load.verify_pending = True
            # The full-address (finenet) check lands several cycles after
            # the loosenet forward — Fallout's transient window.
            self._partial_pending.append((load, store, cycle + 8))
            self.core.complete_load(
                load, value & ((1 << (8 * load.static.memory_bytes)) - 1),
                cycle + 1, forwarded_store=store)
            return True
        return False

    def _try_forward(self, load: DynInstr, store: DynInstr, cycle: int,
                     unknown_older: List[DynInstr]) -> None:
        store_lo = strip_tag(store.addr)
        store_hi = store_lo + store.static.memory_bytes
        load_lo = strip_tag(load.addr)
        load_hi = load_lo + load.static.memory_bytes
        covers = store_lo <= load_lo and store_hi >= load_hi
        if not covers:
            return  # partial overlap: wait until the store commits
        if any(s.seq > store.seq for s in unknown_older):
            # A younger-than-match older store is unresolved; it could also
            # overlap.  Conservatively wait (keeps forwarding exact).
            return
        value = self.core.read_store_value(store)
        if value is None:
            return  # store data not produced yet
        if not self.core.policy.may_forward_store(store, load):
            # SpecASan: address keys differ — forwarding prevented (§3.4),
            # the load is an unsafe speculative access.
            self.core.stats.forward_blocked += 1
            self.core.mark_restricted(load)
            return
        offset = load_lo - store_lo
        width = store.static.memory_bytes
        data = (value & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
        chunk = data[offset:offset + load.static.memory_bytes]
        load.forwarded_from = store.seq
        self.core.stats.store_forwards += 1
        self.core.complete_load(
            load, int.from_bytes(chunk, "little"), cycle + 1,
            forwarded_store=store)

    def _issue_to_memory(self, load: DynInstr, cycle: int) -> None:
        flags = self.core.policy.request_flags(load)
        speculative = (self.core.is_speculative(load)
                       or bool(load.bypassed_store_seqs))
        kind = AccessKind.TAG_LOAD if load.static.op is Opcode.LDG else AccessKind.LOAD
        if kind is AccessKind.TAG_LOAD:
            # LDG *reads* the allocation tag; it is not itself tag-checked
            # (its pointer key is, by design, possibly stale).
            flags = type(flags)(check_tag=False,
                                block_fill_on_mismatch=False,
                                fill_to_minion=flags.fill_to_minion,
                                allow_stale_forward=False)
        line = self.core.hierarchy.line_bytes
        crosses_line = (strip_tag(load.addr) % line
                        + load.static.memory_bytes) > line
        response = self.core.hierarchy.access(MemRequest(
            address=load.addr, size=load.static.memory_bytes, kind=kind,
            cycle=cycle, check_tag=flags.check_tag,
            block_fill_on_mismatch=flags.block_fill_on_mismatch,
            fill_to_minion=flags.fill_to_minion and speculative,
            speculative=speculative, core_id=self.core.core_id,
            seq=load.seq, assist=crosses_line))
        load.response = response
        load.mem_issued = True
        self.core.stats.loads_issued += 1
        if flags.check_tag:
            load.tcs = TagCheckStatus.WAIT
            self.core.stats.tag_checks += 1
            if self.core.trace is not None:
                self.core.trace.on_defense_event(load, cycle, "tagcheck")
            if response.tag_ok is False:
                self.core.stats.tag_mismatches += 1
        self.core.note_memory_issue(load, speculative)
