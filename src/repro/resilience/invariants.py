"""Cycle-level invariant checking over the pipeline and memory system.

An :class:`InvariantChecker` attached to a core is consulted by
:meth:`~repro.pipeline.core.Core.run` every ``interval`` cycles and
validates that the machine's bookkeeping is internally consistent:

- **rob-commit-order** — ROB sequence numbers strictly increase, no
  squashed or already-committed entry lingers in the window;
- **lq-age-order / sq-age-order** — LQ/SQ entries are age-ordered, within
  capacity, and every entry is still in the ROB (a squashed load/store left
  behind in an LSQ is exactly the kind of leak that turns into a wrong
  forward later);
- **lq-wake-bound** — no load's ``lsq_wake`` is later than the cycle
  ``LoadStoreQueues._load_wake`` gives from the next cycle on (the LSQ
  skips a load until its wake, so a late wake would skip a visit that
  changes state);
- **iq-age-order** — IQ entries strictly increase in seq and none is
  squashed (issue walks the IQ as oldest-first without sorting it);
- **iq-ready-set** — the ready list issue walks is exactly the IQ entries
  with no outstanding producer, in seq order, and every entry still
  waiting is registered as a consumer of each producer it waits on (none
  of which has completed), as often as it waits on it;
- **unresolved-branch-order** — the unresolved-branch table strictly
  increases in seq (``is_speculative`` reads only its first key), every
  entry is in the ROB or the fetch queue, and the seq index ``in_flight``
  reads holds exactly the ROB;
- **mshr-leak-freedom / lfb-leak-freedom** — miss-tracking structures stay
  within capacity and no entry's completion stamp sits impossibly far in
  the future (a corrupted stamp is a permanently leaked slot);
- **tag-storage-integrity** — the ECC/parity scrub: DRAM tag storage
  reports no unscrubbed corrupted granules;
- **tag-coherence** — every allocation-tag sidecar copy (L1/L2 lines,
  filled LFB entries) matches DRAM tag storage, the ground truth SpecASan's
  soundness argument rests on (§3.3.3's coherence obligation).

A failed invariant raises :class:`~repro.errors.InvariantViolation` carrying
a structured snapshot that names the faulty structure — unless a
:class:`~repro.resilience.watchdog.GracefulDegradation` policy absorbs a
*tag-storage* fault by falling back to fence semantics (see watchdog.py).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import InvariantViolation
from repro.pipeline.dyninstr import InstrState
from repro.resilience.snapshot import core_snapshot
from repro.resilience.watchdog import GracefulDegradation

#: (invariant name, structure) pairs the checker validates, in order.
INVARIANTS = (
    ("rob-commit-order", "rob"),
    ("lq-age-order", "lq"),
    ("sq-age-order", "sq"),
    ("lq-wake-bound", "lq"),
    ("iq-age-order", "iq"),
    ("iq-ready-set", "iq"),
    ("unresolved-branch-order", "branches"),
    ("mshr-leak-freedom", "mshr"),
    ("lfb-leak-freedom", "lfb"),
    ("tag-storage-integrity", "tag-storage"),
    ("tag-coherence", "tag-storage"),
)


class InvariantChecker:
    """Pluggable cycle-level invariant validation.

    Args:
        interval: cycles between checks (power of two keeps the modulo cheap).
        degradation: optional fence-fallback policy for tag-storage faults.
        future_slack: how far in the future a miss-completion stamp may
            legitimately sit (covers worst-case DRAM + injected delays).
    """

    def __init__(self, interval: int = 256,
                 degradation: Optional[GracefulDegradation] = None,
                 future_slack: int = 50_000):
        self.interval = interval
        self.degradation = degradation
        self.future_slack = future_slack
        self.checks_run = 0
        #: Violations raised (or absorbed), as (cycle, invariant, message).
        self.log: List[Tuple[int, str, str]] = []
        self._tag_checks_enabled = True

    def attach(self, core) -> "InvariantChecker":
        core.invariant_checker = self
        return self

    # ------------------------------------------------------------------

    def check(self, core) -> None:
        """Validate every invariant; raise or degrade on the first failure."""
        self.checks_run += 1
        problem = (self._check_rob(core)
                   or self._check_lsq(core)
                   or self._check_lq_wakes(core)
                   or self._check_iq(core)
                   or self._check_ready(core)
                   or self._check_branches(core)
                   or self._check_mshrs(core)
                   or self._check_lfb(core))
        if problem is None and self._tag_checks_enabled:
            problem = (self._check_tag_integrity(core)
                       or self._check_tag_coherence(core))
        if problem is None:
            return
        invariant, structure, message = problem
        self.log.append((core.cycle, invariant, message))
        if (self.degradation is not None
                and self.degradation.absorb(core, invariant, structure,
                                            message)):
            # Fenced from here on: tag state is no longer consulted, so
            # tag-storage invariants are moot for the rest of the run.
            self._tag_checks_enabled = False
            return
        raise InvariantViolation(invariant, message, structure=structure,
                                 snapshot=core_snapshot(core))

    # -- pipeline ------------------------------------------------------

    def _check_rob(self, core):
        last_seq = -1
        for dyn in core.rob:
            if dyn.seq <= last_seq:
                return ("rob-commit-order", "rob",
                        f"ROB out of age order: #{dyn.seq} after #{last_seq}")
            last_seq = dyn.seq
            if dyn.squashed:
                return ("rob-commit-order", "rob",
                        f"squashed #{dyn.seq} still occupies the ROB")
            if dyn.state is InstrState.COMMITTED:
                return ("rob-commit-order", "rob",
                        f"committed #{dyn.seq} still occupies the ROB")
        if len(core.rob) > core.config.core.rob_entries:
            return ("rob-commit-order", "rob",
                    f"ROB over capacity: {len(core.rob)}")
        return None

    def _check_lsq(self, core):
        rob_ids = {id(d) for d in core.rob}
        for name, queue, capacity, want_load in (
                ("lq-age-order", core.lsq.lq, core.lsq.lq_capacity, True),
                ("sq-age-order", core.lsq.sq, core.lsq.sq_capacity, False)):
            structure = "lq" if want_load else "sq"
            if len(queue) > capacity:
                return (name, structure,
                        f"{structure.upper()} over capacity: {len(queue)}")
            last_seq = -1
            for dyn in queue:
                if dyn.seq <= last_seq:
                    return (name, structure,
                            f"{structure.upper()} out of age order: "
                            f"#{dyn.seq} after #{last_seq}")
                last_seq = dyn.seq
                if (dyn.is_load if want_load else dyn.is_store) is False:
                    return (name, structure,
                            f"#{dyn.seq} ({dyn.static.op.value}) does not "
                            f"belong in the {structure.upper()}")
                if id(dyn) not in rob_ids:
                    return (name, structure,
                            f"#{dyn.seq} sits in the {structure.upper()} "
                            f"but not in the ROB (leaked entry)")
        return None

    def _check_lq_wakes(self, core):
        lsq = core.lsq
        for load in lsq.lq:
            due = lsq._load_wake(load, core.cycle + 1)
            if load.lsq_wake > due:
                return ("lq-wake-bound", "lq",
                        f"load #{load.seq} sleeps until cycle "
                        f"{load.lsq_wake} but is due at {due}")
        return None

    def _check_iq(self, core):
        last_seq = -1
        for dyn in core.iq:
            if dyn.seq <= last_seq:
                return ("iq-age-order", "iq",
                        f"IQ out of age order: #{dyn.seq} after #{last_seq}")
            last_seq = dyn.seq
            if dyn.squashed:
                return ("iq-age-order", "iq",
                        f"squashed #{dyn.seq} still occupies the IQ")
        return None

    def _check_ready(self, core):
        expected = [d for d in core.iq if not d.issue_waits]
        if (len(core._ready) != len(expected)
                or any(a is not b for a, b in zip(core._ready, expected))):
            return ("iq-ready-set", "iq",
                    f"ready list {[d.seq for d in core._ready]} is not the "
                    f"IQ entries with their operands "
                    f"{[d.seq for d in expected]}")
        for dyn in core.iq:
            for producer in dyn.issue_waits:
                if producer.completed:
                    return ("iq-ready-set", "iq",
                            f"#{dyn.seq} still waits on completed "
                            f"#{producer.seq}")
                if (producer.consumers.count(dyn)
                        != dyn.issue_waits.count(producer)):
                    return ("iq-ready-set", "iq",
                            f"#{dyn.seq} waits on #{producer.seq} "
                            f"{dyn.issue_waits.count(producer)} time(s) but "
                            f"is registered as its consumer "
                            f"{producer.consumers.count(dyn)} time(s)")
        return None

    def _check_branches(self, core):
        window = {id(d) for d in core.rob}
        window.update(id(d) for d in core.fetch_queue)
        last_seq = -1
        for seq, dyn in core._unresolved_branches.items():
            if seq <= last_seq:
                return ("unresolved-branch-order", "branches",
                        f"unresolved branches out of age order: #{seq} "
                        f"after #{last_seq}")
            last_seq = seq
            if id(dyn) not in window:
                return ("unresolved-branch-order", "branches",
                        f"unresolved branch #{seq} is in neither the ROB "
                        f"nor the fetch queue")
        index = core._rob_by_seq
        if (len(index) != len(core.rob)
                or any(index.get(d.seq) is not d for d in core.rob)):
            return ("unresolved-branch-order", "branches",
                    f"seq index ({len(index)} entries) does not hold "
                    f"exactly the ROB ({len(core.rob)} entries)")
        return None

    # -- memory machinery ----------------------------------------------

    def _check_mshrs(self, core):
        hierarchy = core.hierarchy
        files = [(f"l1[{i}]", f) for i, f in enumerate(hierarchy.l1_mshrs)]
        files.append(("l2", hierarchy.l2_mshrs))
        for label, mshrs in files:
            # Lazy structures: settle anything already ripe, exactly as the
            # next access would, then judge what remains.
            mshrs.drain(core.cycle)
            occupied = len(mshrs) + mshrs.reserved
            if occupied > mshrs.capacity:
                return ("mshr-leak-freedom", "mshr",
                        f"{label} MSHRs over capacity: {occupied}"
                        f"/{mshrs.capacity}")
            for entry in mshrs._by_line.values():
                if entry.ready_cycle > core.cycle + self.future_slack:
                    return ("mshr-leak-freedom", "mshr",
                            f"{label} MSHR for line {entry.line_address:#x} "
                            f"ready at {entry.ready_cycle}, "
                            f"{entry.ready_cycle - core.cycle} cycles out "
                            f"(leaked entry)")
        return None

    def _check_lfb(self, core):
        hierarchy = core.hierarchy
        hierarchy.drain(core.cycle)  # settle ripe fills first
        lfb = hierarchy.lfbs[core.core_id]
        if len(lfb.entries) > lfb.capacity:
            return ("lfb-leak-freedom", "lfb",
                    f"LFB over capacity: {len(lfb.entries)}")
        for entry in lfb.entries:
            if entry.phantom or entry.filled:
                continue
            if entry.fill_ready_cycle < 0:
                return ("lfb-leak-freedom", "lfb",
                        f"LFB slot {entry.index} in flight with no fill "
                        f"stamp (leaked entry)")
            if entry.fill_ready_cycle > core.cycle + self.future_slack:
                return ("lfb-leak-freedom", "lfb",
                        f"LFB slot {entry.index} fill at "
                        f"{entry.fill_ready_cycle}, "
                        f"{entry.fill_ready_cycle - core.cycle} cycles out "
                        f"(leaked entry)")
        return None

    # -- tag state ------------------------------------------------------

    def _check_tag_integrity(self, core):
        tags = core.hierarchy.memory.tags
        corrupted = getattr(tags, "corrupted_granules", None)
        if corrupted:
            granule = next(iter(corrupted))
            return ("tag-storage-integrity", "tag-storage",
                    f"{len(corrupted)} corrupted granule(s) in DRAM tag "
                    f"storage (e.g. granule {granule}, "
                    f"address {granule * tags.granule_bytes:#x})")
        return None

    def _check_tag_coherence(self, core):
        hierarchy = core.hierarchy
        memory = hierarchy.memory
        line_bytes = hierarchy.line_bytes
        caches = [(f"L1[{i}]", c) for i, c in enumerate(hierarchy.l1ds)]
        caches.append(("L2", hierarchy.l2))
        for label, cache in caches:
            for line in cache.iter_lines():
                if not line.locks:
                    continue  # untagged level (ablation) keeps no sidecar
                truth = memory.line_locks(line.line_address, line_bytes)
                if tuple(line.locks) != tuple(truth):
                    return ("tag-coherence", "tag-storage",
                            f"{label} line {line.line_address:#x} holds "
                            f"locks {tuple(line.locks)} but DRAM tag "
                            f"storage says {tuple(truth)}")
        for core_id, lfb in enumerate(hierarchy.lfbs):
            for entry in lfb.entries:
                if (entry.phantom or not entry.filled or not entry.locks
                        or entry.line_address < 0):
                    continue
                truth = memory.line_locks(entry.line_address, line_bytes)
                if tuple(entry.locks) != tuple(truth):
                    return ("tag-coherence", "tag-storage",
                            f"LFB[{core_id}] slot {entry.index} line "
                            f"{entry.line_address:#x} holds locks "
                            f"{tuple(entry.locks)} but DRAM tag storage "
                            f"says {tuple(truth)}")
        return None
