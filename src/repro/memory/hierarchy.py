"""The memory hierarchy façade the core(s) talk to.

One :class:`MemoryHierarchy` instance serves every core in the system: each
core owns a private L1D, LFB, and (for GhostMinion) MinionCache; the L2,
memory controller, DRAM, and coherence directory are shared.

The tag check is performed at the *earliest point possible* (§3.3.1):

- L1 hit → checked against the line's resident locks, result immediately;
- LFB hit (filled) → checked against the entry's locks;
- LFB hit (fill in flight) → the *stale* occupant's locks gate any stale
  forward; the final check arrives with the fill;
- L2 hit → checked at L2, outcome carried back via the MSHR unsafe bit;
- miss to DRAM → the controller's paired tag-storage read performs the
  check (§3.3.4).

When a request sets ``block_fill_on_mismatch`` (SpecASan, G3), a failed
check at any level prevents the line from being installed in any structure
above the check point and withholds the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.config import SystemConfig
from repro.errors import MemoryFault
from repro.memory.cache import Cache
from repro.memory.coherence import CoherenceDirectory
from repro.memory.controller import MemoryController
from repro.memory.dram import MainMemory
from repro.memory.lfb import LineFillBuffer
from repro.memory.minion import MinionCache
from repro.memory.mshr import MSHRFile
from repro.memory.request import AccessKind, MemRequest, MemResponse, ServedFrom
from repro.mte.tags import key_of, strip_tag


@dataclass
class HierarchyStats:
    """Aggregate counters the evaluation harness reads."""

    loads: int = 0
    store_probes: int = 0
    commit_stores: int = 0
    tag_checks: int = 0
    tag_mismatches: int = 0
    withheld_responses: int = 0
    stale_forward_windows: int = 0
    l1_hits: int = 0
    lfb_hits: int = 0
    l2_hits: int = 0
    dram_fetches: int = 0
    prefetches: int = 0
    cross_tag_prefetches: int = 0
    prefetches_suppressed: int = 0

    def registry(self, scope: str = "mem"):
        """A :class:`~repro.telemetry.registry.StatsRegistry` view of these
        counters plus the shared hit-rate formulas, scoped under ``scope``."""
        from repro.telemetry.registry import hierarchy_registry
        return hierarchy_registry(self, scope_name=scope)

    def state_dict(self) -> dict:
        from dataclasses import asdict
        return asdict(self)

    def load_state_dict(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, int(value))


class MemoryHierarchy:
    """Caches + LFB + controller + DRAM for ``config.num_cores`` cores."""

    def __init__(self, config: SystemConfig, memory: Optional[MainMemory] = None):
        self.config = config
        self.memory = memory or MainMemory(config.memory, config.mte)
        self.controller = MemoryController(self.memory, config.memory, config.mte)
        self.l2 = Cache(config.l2, config.mte.granule_bytes)
        self.l2_mshrs = MSHRFile(config.l2.mshr_entries)
        self.line_bytes = config.l1d.line_bytes
        self.directory = CoherenceDirectory(config.num_cores)
        self.l1ds: List[Cache] = []
        self.lfbs: List[LineFillBuffer] = []
        self.l1_mshrs: List[MSHRFile] = []
        self.minions: List[MinionCache] = []
        for _ in range(config.num_cores):
            self.l1ds.append(Cache(config.l1d, config.mte.granule_bytes))
            self.lfbs.append(LineFillBuffer(config.memory.lfb_entries, self.line_bytes))
            self.l1_mshrs.append(MSHRFile(config.l1d.mshr_entries))
            self.minions.append(MinionCache())
        self.directory.register_invalidator(self._invalidate_core_line)
        self.stats = HierarchyStats()
        #: Pending L1 installs: (ready_cycle, core_id, line_address, locks).
        self._pending_fills: List[Tuple[int, int, int, Tuple[int, ...]]] = []

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _line_addr(self, address: int) -> int:
        return strip_tag(address) & ~(self.line_bytes - 1)

    def _key(self, pointer: int) -> int:
        return key_of(pointer, self.config.mte.tag_bits)

    def _check(self, pointer: int, lock: Optional[int]) -> bool:
        self.stats.tag_checks += 1
        ok = lock is None or self._key(pointer) == lock
        if not ok:
            self.stats.tag_mismatches += 1
        return ok

    def _invalidate_core_line(self, core_id: int, line_address: int) -> None:
        self.l1ds[core_id].invalidate(line_address)
        self.lfbs[core_id].invalidate(line_address)
        self.minions[core_id].promote(line_address)  # drop silently

    def drain(self, cycle: int) -> None:
        """Complete fills that have arrived by ``cycle``.

        Installs arrived lines into their L1 (or leaves them in the
        MinionCache — minion fills never enter ``_pending_fills``) and marks
        LFB entries filled with the line's data and locks.
        """
        if self._pending_fills:
            remaining = []
            for ready, core_id, line_addr, locks in self._pending_fills:
                if ready <= cycle:
                    self._install_l1(core_id, line_addr, locks)
                else:
                    remaining.append((ready, core_id, line_addr, locks))
            self._pending_fills = remaining
        for core_id, lfb in enumerate(self.lfbs):
            for entry in lfb.drain(cycle):
                data = self.memory.read(entry.line_address, self.line_bytes)
                locks = (self.memory.line_locks(entry.line_address,
                                                self.line_bytes)
                         if self.config.memory.lfb_tagged else ())
                lfb.complete_fill(entry, data, locks)

    def quiesce(self) -> None:
        """Let every in-flight fill land and clear the miss machinery.

        Called between runs that share this hierarchy (the warm-up /
        fast-forward pattern): cores restart their cycle counters at zero,
        so pending state stamped in the old timebase must be settled first.
        Cache contents and tag state are preserved — that's the point of
        warming.
        """
        horizon = 1 << 60
        self.drain(horizon)
        for mshrs in self.l1_mshrs:
            mshrs.drain(horizon)
        self.l2_mshrs.drain(horizon)

    def _install_l1(self, core_id: int, line_addr: int,
                    locks: Tuple[int, ...]) -> None:
        if not self.config.l1d.tagged:
            locks = ()  # ablation: no lock sidecar at this level
        victim = self.l1ds[core_id].insert(line_addr, locks)
        self.directory.on_fill(core_id, line_addr)
        if victim is not None:
            self.directory.on_evict(core_id, victim.line_address)

    def _install_l2(self, line_addr: int, locks: Tuple[int, ...]) -> None:
        if not self.config.l2.tagged:
            locks = ()  # ablation: no lock sidecar at this level
        victim = self.l2.insert(line_addr, locks)
        if victim is not None:
            # Inclusive L2: back-invalidate every L1 copy of the victim.
            for core_id in sorted(self.directory.sharers_of(victim.line_address)):
                self._invalidate_core_line(core_id, victim.line_address)
                self.directory.on_evict(core_id, victim.line_address)

    # ------------------------------------------------------------------
    # the main access path
    # ------------------------------------------------------------------

    def access(self, req: MemRequest) -> MemResponse:
        """Serve a load or store-probe; see the module docstring for levels."""
        self.drain(req.cycle)
        if req.kind is AccessKind.LOAD:
            self.stats.loads += 1
        elif req.kind is AccessKind.STORE:
            self.stats.store_probes += 1
        core = req.core_id
        line_addr = self._line_addr(req.address)
        try:
            data = self.memory.read(req.address, req.size)
        except MemoryFault:
            # Wrong-path accesses may carry garbage addresses; hardware
            # returns junk and faults only if the access commits.  No cache
            # state changes (nothing to fill from).
            return MemResponse(
                ready_cycle=req.cycle + self.config.l1d.hit_latency,
                data=bytes(req.size), served_from=ServedFrom.DRAM,
                line_address=line_addr, faulted=True)

        # 1. L1 hit.
        line = self.l1ds[core].lookup(req.address)
        if line is not None:
            ready = req.cycle + self.config.l1d.hit_latency
            tag_ok = None
            if req.check_tag:
                tag_ok = self._check(req.address, self.l1ds[core].lock_for(line, req.address))
            self.stats.l1_hits += 1
            withheld = req.check_tag and tag_ok is False and req.block_fill_on_mismatch
            if withheld:
                self.stats.withheld_responses += 1
            return MemResponse(
                ready_cycle=ready, data=b"" if withheld else data,
                served_from=ServedFrom.L1, tag_ok=tag_ok, tag_known_cycle=ready,
                lock=self.l1ds[core].lock_for(line, req.address),
                line_address=line_addr, data_withheld=withheld)

        # 1b. GhostMinion shadow hit (speculative fills living outside L1).
        if req.fill_to_minion and self.minions[core].contains(line_addr):
            self.minions[core].lookup(line_addr)
            ready = req.cycle + self.config.l1d.hit_latency
            return MemResponse(
                ready_cycle=ready, data=data, served_from=ServedFrom.MINION,
                tag_ok=None, tag_known_cycle=ready, line_address=line_addr)

        # 2. LFB.
        lfb = self.lfbs[core]
        entry = lfb.lookup(line_addr)
        if entry is not None and not entry.filled:
            # Fill in flight: merge. Stale window until the fill arrives.
            lfb.hits += 1
            self.stats.lfb_hits += 1
            fill_ready = entry.fill_ready_cycle
            ready = max(fill_ready, req.cycle) + self.config.memory.lfb_hit_latency
            stale_ready = req.cycle + self.config.memory.lfb_hit_latency
            stale_data = None
            stale_ok = None
            if entry.data and stale_ready < fill_ready and req.assist:
                # Assisted (line-crossing / faulting) loads can sample the
                # previous occupant's bytes before the fill arrives — the
                # RIDL/ZombieLoad window.  Ordinary loads wait for the fill.
                # A crossing load samples whatever bytes the entry holds,
                # zero-padded — like the real partial forwards.
                offset = strip_tag(req.address) % self.line_bytes
                chunk = entry.data[offset:offset + req.size]
                if chunk:
                    stale_data = chunk + bytes(req.size - len(chunk))
                    self.stats.stale_forward_windows += 1
            if req.check_tag and self.config.memory.lfb_tagged:
                # SpecASan checks against the locks *stored in the LFB* —
                # pre-fill these are the stale occupant's locks (§3.3.3).
                stale_lock = (entry.locks[self._granule_offset(req.address)]
                              if entry.locks else None)
                stale_ok = self._check(req.address, stale_lock)
                if not stale_ok and req.block_fill_on_mismatch:
                    stale_data = None
            # The authoritative check outcome arrives with the fill.
            tag_ok = None
            if req.check_tag:
                lock = self.memory.lock_of(req.address)
                tag_ok = self._key(req.address) == lock
            withheld = req.check_tag and tag_ok is False and req.block_fill_on_mismatch
            if withheld:
                self.stats.withheld_responses += 1
            return MemResponse(
                ready_cycle=ready, data=b"" if withheld else data,
                served_from=ServedFrom.LFB, tag_ok=tag_ok,
                tag_known_cycle=max(fill_ready, req.cycle),
                lock=self.memory.lock_of(req.address),
                stale_data=stale_data, stale_ready_cycle=stale_ready,
                stale_line_address=entry.stale_line_address,
                line_address=line_addr, data_withheld=withheld)
        if entry is not None and entry.filled and entry.line_address == line_addr:
            # Arrived but the L1 install is racing; serve from the buffer.
            lfb.hits += 1
            self.stats.lfb_hits += 1
            ready = req.cycle + self.config.memory.lfb_hit_latency
            tag_ok = None
            lock = None
            if req.check_tag:
                lock = (entry.locks[self._granule_offset(req.address)]
                        if entry.locks else None)
                tag_ok = self._check(req.address, lock)
            withheld = req.check_tag and tag_ok is False and req.block_fill_on_mismatch
            if withheld:
                self.stats.withheld_responses += 1
            return MemResponse(
                ready_cycle=ready, data=b"" if withheld else data,
                served_from=ServedFrom.LFB, tag_ok=tag_ok, tag_known_cycle=ready,
                lock=lock, line_address=line_addr, data_withheld=withheld)

        # 3. L1 miss — consult L2.
        l1_mshrs = self.l1_mshrs[core]
        pending = l1_mshrs.lookup(line_addr)
        if pending is not None:
            l1_mshrs.merge(pending)
            ready = max(pending.ready_cycle, req.cycle) + self.config.l1d.hit_latency
            tag_ok = None
            if req.check_tag:
                tag_ok = self._key(req.address) == self.memory.lock_of(req.address)
                if not tag_ok:
                    self.stats.tag_checks += 1
                    self.stats.tag_mismatches += 1
            withheld = req.check_tag and tag_ok is False and req.block_fill_on_mismatch
            return MemResponse(
                ready_cycle=ready, data=b"" if withheld else data,
                served_from=ServedFrom.L2, tag_ok=tag_ok,
                tag_known_cycle=max(pending.ready_cycle, req.cycle),
                line_address=line_addr, data_withheld=withheld)

        stall = 0
        if l1_mshrs.full:
            stall = max(0, l1_mshrs.earliest_ready() - req.cycle)
            l1_mshrs.full_stalls += 1
            l1_mshrs.drain(req.cycle + stall)
        start = req.cycle + stall + self.config.l1d.hit_latency  # L1 lookup time

        l2_line = self.l2.lookup(req.address)
        if l2_line is not None:
            self.stats.l2_hits += 1
            fill_ready = start + self.config.l2.hit_latency
            tag_ok = None
            lock = None
            if req.check_tag:
                lock = self.l2.lock_for(l2_line, req.address)
                tag_ok = self._check(req.address, lock)
            blocked = req.check_tag and tag_ok is False and req.block_fill_on_mismatch
            if not blocked:
                self._schedule_fill(req, line_addr, fill_ready,
                                    l2_line.locks or self.memory.line_locks(
                                        line_addr, self.line_bytes))
            else:
                self.stats.withheld_responses += 1
            return MemResponse(
                ready_cycle=fill_ready + 1, data=b"" if blocked else data,
                served_from=ServedFrom.L2, tag_ok=tag_ok,
                tag_known_cycle=fill_ready, lock=lock,
                line_address=line_addr, data_withheld=blocked)

        # 4. L2 miss — DRAM via the controller.
        self.stats.dram_fetches += 1
        l2_pending = self.l2_mshrs.lookup(line_addr)
        if l2_pending is None:
            if self.l2_mshrs.full:
                extra = max(0, self.l2_mshrs.earliest_ready() - req.cycle)
                start += extra
                self.l2_mshrs.drain(req.cycle + extra)
            result = self.controller.fetch_line(
                req.address, line_addr, self.line_bytes,
                start + self.config.l2.hit_latency,
                req.check_tag, req.block_fill_on_mismatch)
            mshr = self.l2_mshrs.allocate(line_addr, result.ready_cycle)
            mshr.unsafe = result.tag_ok is False
        else:
            self.l2_mshrs.merge(l2_pending)
            result = self.controller.fetch_line(
                req.address, line_addr, self.line_bytes, req.cycle,
                req.check_tag, req.block_fill_on_mismatch)
            result = type(result)(
                ready_cycle=max(l2_pending.ready_cycle, req.cycle),
                locks=result.locks, tag_ok=result.tag_ok,
                deliver_data=result.deliver_data)
            self.controller.reads -= 1  # merged, not a second DRAM read
        self.l2_mshrs.drain(result.ready_cycle)

        tag_ok = result.tag_ok
        blocked = req.check_tag and tag_ok is False and req.block_fill_on_mismatch
        if not blocked:
            if not req.fill_to_minion:
                # GhostMinion: speculative fills stay confined to the shadow
                # structure — no level of the primary hierarchy changes.
                self._install_l2(line_addr, result.locks)
            self._schedule_fill(req, line_addr, result.ready_cycle, result.locks)
            self._maybe_prefetch(req, line_addr, result.locks,
                                 result.ready_cycle)
        else:
            self.stats.withheld_responses += 1
        return MemResponse(
            ready_cycle=result.ready_cycle + 1, data=b"" if blocked else data,
            served_from=ServedFrom.DRAM, tag_ok=tag_ok,
            tag_known_cycle=result.ready_cycle,
            lock=self.memory.lock_of(req.address) if req.check_tag else None,
            line_address=line_addr, data_withheld=blocked)

    def _granule_offset(self, address: int) -> int:
        return (strip_tag(address) % self.line_bytes) // self.config.mte.granule_bytes

    def _schedule_fill(self, req: MemRequest, line_addr: int, fill_ready: int,
                       locks: Tuple[int, ...]) -> None:
        """Route an incoming line to the MinionCache or L1 (via LFB + MSHR)."""
        if req.fill_to_minion:
            self.minions[req.core_id].fill(line_addr, locks, owner_seq=req.seq)
            return
        mshrs = self.l1_mshrs[req.core_id]
        if mshrs.lookup(line_addr) is None and not mshrs.full:
            mshrs.allocate(line_addr, fill_ready)
        self.lfbs[req.core_id].allocate(line_addr, fill_ready)
        self._pending_fills.append((fill_ready, req.core_id, line_addr, locks))
        mshrs.drain(fill_ready)

    def _maybe_prefetch(self, req: MemRequest, line_addr: int,
                        demand_locks: Tuple[int, ...],
                        fill_ready: int) -> None:
        """Next-line prefetch on a demand DRAM fetch (§6 future work).

        The baseline prefetcher installs the next line unconditionally —
        including lines past a protection boundary (counted as
        ``cross_tag_prefetches``, the gap §6 calls out).  With
        ``prefetch_check_tags`` the SpecASan-extended prefetcher compares
        the next line's allocation tags with the demand line's and
        suppresses boundary-crossing prefetches.
        """
        if self.config.memory.prefetcher != "next-line":
            return
        next_line = line_addr + self.line_bytes
        if next_line + self.line_bytes > self.memory.size:
            return
        if (self.l2.contains(next_line)
                or self.l1ds[req.core_id].contains(next_line)
                or self.lfbs[req.core_id].lookup(next_line) is not None):
            return
        locks = self.memory.line_locks(next_line, self.line_bytes)
        crosses = bool(demand_locks) and set(locks) != set(demand_locks)
        if crosses:
            if self.config.memory.prefetch_check_tags:
                self.stats.prefetches_suppressed += 1
                return
            self.stats.cross_tag_prefetches += 1
        self.stats.prefetches += 1
        self._install_l2(next_line, locks)
        self._schedule_fill(req, next_line, fill_ready + 4, locks)

    # ------------------------------------------------------------------
    # commit-time operations
    # ------------------------------------------------------------------

    def commit_store(self, address: int, data: bytes, core_id: int = 0,
                     cycle: int = 0) -> None:
        """The architectural write: update DRAM, presence, and coherence."""
        self.drain(cycle)
        self.stats.commit_stores += 1
        self.memory.write(address, data)
        line_addr = self._line_addr(address)
        self.directory.on_store(core_id, line_addr)
        l1 = self.l1ds[core_id]
        if l1.lookup(address) is None:
            locks = self.memory.line_locks(line_addr, self.line_bytes)
            self._install_l1(core_id, line_addr, locks)
        l1.mark_dirty(address)
        if self.l2.lookup(address) is None:
            self._install_l2(line_addr, self.memory.line_locks(
                line_addr, self.line_bytes))

    def store_tag(self, address: int, tag: int, core_id: int = 0,
                  cycle: int = 0) -> None:
        """STG at commit: write tag storage and keep every cached copy
        coherent (cache sidecars *and* LFB entries, §3.3.3)."""
        self.drain(cycle)
        self.controller.write_lock(address, tag)
        line_addr = self._line_addr(address)
        offset = self._granule_offset(address)
        self.l2.update_lock(address, tag)
        for other, (l1, lfb) in enumerate(zip(self.l1ds, self.lfbs)):
            if other == core_id:
                l1.update_lock(address, tag)
                lfb.update_lock(line_addr, offset, tag)
            else:
                # Remote copies are invalidated (clean-and-invalidate path).
                pass
        self.directory.on_tag_update(core_id, line_addr)

    def read_tag(self, address: int) -> int:
        """LDG: the allocation tag of the granule covering ``address``."""
        return self.controller.read_lock(address)

    # ------------------------------------------------------------------
    # GhostMinion hooks
    # ------------------------------------------------------------------

    def promote_minion(self, line_address: int, core_id: int) -> None:
        """A speculative load became visible: move its line into L1."""
        line = self.minions[core_id].promote(line_address)
        if line is not None:
            self._install_l1(core_id, line_address, line.locks)
            if self.l2.lookup(line_address) is None:
                self._install_l2(line_address, line.locks)

    def squash_minion(self, core_id: int, owner_seq: int) -> None:
        """Squash: drop shadow lines of squashed speculative loads."""
        self.minions[core_id].squash_younger(owner_seq)

    # ------------------------------------------------------------------
    # checkpointing (benchmarks/perf/seams.py times both methods)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Serialize every mutable structure in the hierarchy.

        The coherence directory's invalidation hooks are excluded — they
        are re-registered by the constructor and survive a restore
        untouched.  The returned dict is JSON-serializable.
        """
        return {
            "memory": self.memory.state_dict(),
            "controller": self.controller.state_dict(),
            "l2": self.l2.state_dict(),
            "l2_mshrs": self.l2_mshrs.state_dict(),
            "directory": self.directory.state_dict(),
            "l1ds": [c.state_dict() for c in self.l1ds],
            "lfbs": [b.state_dict() for b in self.lfbs],
            "l1_mshrs": [m.state_dict() for m in self.l1_mshrs],
            "minions": [m.state_dict() for m in self.minions],
            "stats": self.stats.state_dict(),
            "pending_fills": [[ready, core_id, line, list(locks)]
                              for ready, core_id, line, locks
                              in self._pending_fills],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a hierarchy serialized by :meth:`state_dict`.

        The hierarchy must have been built from the same configuration
        (same core count, cache geometry, and memory size); structural
        mismatches raise :class:`~repro.errors.CheckpointError`.
        """
        if (len(state["l1ds"]) != len(self.l1ds)
                or len(state["lfbs"]) != len(self.lfbs)):
            from repro.errors import CheckpointError
            raise CheckpointError(
                f"hierarchy has {len(self.l1ds)} cores, checkpoint has "
                f"{len(state['l1ds'])}", kind="state-mismatch")
        self.memory.load_state_dict(state["memory"])
        self.controller.load_state_dict(state["controller"])
        self.l2.load_state_dict(state["l2"])
        self.l2_mshrs.load_state_dict(state["l2_mshrs"])
        self.directory.load_state_dict(state["directory"])
        for cache, sub in zip(self.l1ds, state["l1ds"]):
            cache.load_state_dict(sub)
        for lfb, sub in zip(self.lfbs, state["lfbs"]):
            lfb.load_state_dict(sub)
        for mshrs, sub in zip(self.l1_mshrs, state["l1_mshrs"]):
            mshrs.load_state_dict(sub)
        for minion, sub in zip(self.minions, state["minions"]):
            minion.load_state_dict(sub)
        self.stats.load_state_dict(state["stats"])
        self._pending_fills = [
            (ready, core_id, line, tuple(locks))
            for ready, core_id, line, locks in state["pending_fills"]]

    # ------------------------------------------------------------------
    # attack probes (no state perturbation)
    # ------------------------------------------------------------------

    def is_cached(self, address: int, core_id: int = 0) -> bool:
        """Presence in core-visible structures (L1 or filled LFB or L2)."""
        line_addr = self._line_addr(address)
        if self.l1ds[core_id].contains(address):
            return True
        entry = self.lfbs[core_id].lookup(line_addr)
        if entry is not None and entry.filled and entry.line_address == line_addr:
            return True
        return self.l2.contains(address)

    def probe_latency(self, address: int, core_id: int = 0) -> int:
        """The latency a timing probe would observe, without side effects."""
        if self.l1ds[core_id].contains(address):
            return self.config.l1d.hit_latency
        line_addr = self._line_addr(address)
        entry = self.lfbs[core_id].lookup(line_addr)
        if entry is not None and entry.line_address == line_addr:
            return self.config.memory.lfb_hit_latency
        if self.l2.contains(address):
            return self.config.l1d.hit_latency + self.config.l2.hit_latency
        return (self.config.l1d.hit_latency + self.config.l2.hit_latency
                + self.controller.line_latency(check_tag=False))
