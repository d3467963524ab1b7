"""The cycle-level out-of-order core.

One :class:`Core` models an 8-wide Cortex-A76-like machine (Table 2):

- a branch-predicting front end (PHT/BTB/RSB over a global BHB) that fetches
  down the *predicted* path, so wrong-path instructions genuinely execute
  and perturb the memory hierarchy — the raw material of every TEA;
- rename/dispatch into a 40-entry ROB and 32-entry issue queue;
- issue with per-class execution ports (the contention observable);
- a split LSQ with store-to-load forwarding and memory-dependence
  speculation (:mod:`repro.pipeline.lsq`);
- in-order commit with squash recovery, where stores become architectural
  and MTE tag faults are raised (§3.4: a tag-check fault is raised only once
  the unsafe access is bound to commit).

The active :class:`~repro.core.policy.DefensePolicy` is consulted at each of
the intervention points described in Figure 1.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.errors import DeadlockError, SimulationError, TagCheckFault
from repro.core.policy import DefensePolicy, NoDefense
from repro.isa.instructions import (
    Cond,
    FLAGS_REG,
    InstrClass,
    INSTR_BYTES,
    Opcode,
    RENAME_REGS,
)
from repro.isa.program import Program
from repro.isa.registers import LR, SP, XZR
from repro.memory.hierarchy import MemoryHierarchy
from repro.mte.tags import key_of, strip_tag, with_key
from repro.pipeline.dyninstr import (
    DynInstr,
    InstrState,
    NO_EVENT,
    TagCheckStatus,
)
from repro.pipeline.exec_units import ExecPorts
from repro.pipeline.lsq import LoadStoreQueues
from repro.pipeline.predictors import (
    BranchHistoryBuffer,
    BranchTargetBuffer,
    MemoryDependencePredictor,
    PatternHistoryTable,
    ReturnStackBuffer,
)
from repro.pipeline.stats import CoreStats

_WORD_MASK = (1 << 64) - 1


def _to_signed(value: int) -> int:
    return value - (1 << 64) if value >> 63 else value


class Core:
    """One out-of-order core attached to a shared memory hierarchy."""

    def __init__(self, config: SystemConfig, hierarchy: MemoryHierarchy,
                 program: Program, policy: Optional[DefensePolicy] = None,
                 core_id: int = 0):
        self.config = config
        self.hierarchy = hierarchy
        self.program = program.link()
        self.policy = policy or NoDefense()
        self.policy.attach(self)
        self.core_id = core_id
        self.stats = CoreStats()
        self._rng = random.Random(config.mte.seed + core_id)

        # Architectural state.
        self.arf: List[int] = [0] * RENAME_REGS
        self.arf[SP] = 0x0F0000 + core_id * 0x10000  # per-core stack region

        # Pipeline structures.
        self.cycle = 0
        self.seq = 0
        self.rob: List[DynInstr] = []
        self.iq: List[DynInstr] = []
        #: The IQ entries whose ``issue_waits`` is empty, in seq order (see
        #: :meth:`_wake_consumers`).
        self._ready: List[DynInstr] = []
        self.fetch_queue: List[DynInstr] = []
        self.rename: Dict[int, DynInstr] = {}
        self.lsq = LoadStoreQueues(self)
        self.ports = ExecPorts()
        core = config.core
        #: Execute latency by ``Instruction.klass_key``.
        self._latencies: Dict[str, int] = {
            InstrClass.ALU.value: core.alu_latency,
            InstrClass.MUL.value: core.mul_latency,
            InstrClass.DIV.value: core.div_latency,
            InstrClass.BRANCH.value: core.branch_latency,
            InstrClass.MTE.value: core.alu_latency,
            InstrClass.LOAD.value: core.agu_latency,
            InstrClass.STORE.value: core.agu_latency,
        }
        #: The ROB indexed by seq (:meth:`in_flight`).
        self._rob_by_seq: Dict[int, DynInstr] = {}
        self._completions: Dict[int, List[DynInstr]] = {}
        #: Fetched, unresolved branches in seq order (insertion order), so
        #: the first key is the oldest (:meth:`is_speculative`).
        self._unresolved_branches: Dict[int, DynInstr] = {}
        self._pending_sb: List[DynInstr] = []
        self._unsafe_broadcasts: List[Tuple[int, DynInstr]] = []

        # Front-end state.
        self.fetch_pc = self.program.entry_address
        self.fetch_resume_cycle = 0
        self.fetch_blocked_on: Optional[DynInstr] = None
        self._fetch_stopped = False

        # Predictors.
        self.bhb = BranchHistoryBuffer(config.core.bhb_bits)
        self.pht = PatternHistoryTable(config.core.pht_entries, self.bhb)
        self.btb = BranchTargetBuffer(config.core.btb_entries, self.bhb)
        self.rsb = ReturnStackBuffer(config.core.rsb_entries)
        self.mdp = MemoryDependencePredictor(config.core.mdp_entries)

        # Run state.
        self.halted = False
        self.fault: Optional[TagCheckFault] = None
        self._last_commit_cycle = 0
        self.last_commit_pc: Optional[int] = None

        # Resilience hooks (opt-in; attached by repro.resilience objects).
        #: Cycle-level invariant checker consulted periodically by run().
        self.invariant_checker = None
        #: Livelock watchdog notified at each retire.
        self.watchdog = None
        #: Microarchitectural fault injector driven once per cycle by run().
        self.fault_injector = None
        #: Campaign liveness probe pulsed every ``interval`` cycles by run()
        #: (see :class:`repro.campaign.heartbeat.Heartbeat`).  Beats track
        #: *simulated* progress, so a wedged simulation loop stops beating
        #: and the campaign straggler detector can reap the worker.
        self.heartbeat = None

        # Telemetry hooks (opt-in; see repro.telemetry).  Both default to
        # None and every call site is guarded on that, so an untraced run
        # pays one attribute test per event site.
        #: Pipeline event trace sink (:class:`repro.telemetry.trace.TraceSink`).
        self.trace = None
        #: Occupancy profiler sampled from tick()
        #: (:class:`repro.telemetry.occupancy.OccupancyProfiler`).
        self.occupancy = None

        # Attack-oracle state (§4.3): secret address ranges and the log of
        # secret-dependent speculative activity the detector inspects.
        self.secret_ranges: List[Tuple[int, int]] = []
        self.leak_log: List[Dict] = []

    # ==================================================================
    # public driving API
    # ==================================================================

    def tick(self) -> None:
        """Advance the core one cycle."""
        self.cycle += 1
        self.stats.cycles = self.cycle
        occupancy = self.occupancy
        if occupancy is not None and self.cycle % occupancy.interval == 0:
            occupancy.sample(self)
        self.ports.new_cycle()
        self._commit()
        self._writeback()
        self._deliver_unsafe_broadcasts()
        self.lsq.tick(self.cycle)
        self._issue()
        self._dispatch()
        self._fetch()

    def run(self, max_cycles: Optional[int] = None,
            until_cycle: Optional[int] = None) -> None:
        """Run until HALT commits, a tag fault halts the core, or timeout.

        ``max_cycles`` defaults to the configured cycle budget
        (:attr:`~repro.config.CoreConfig.max_cycles`), so campaigns can set
        per-workload budgets through the config instead of threading an
        argument through every call site.

        ``until_cycle`` pauses the run once ``cycle`` reaches it *without*
        raising: the core is left mid-program in a consistent inter-cycle
        state and a later ``run()`` call continues where it stopped.  This
        is the checkpoint/restore seam — callers checkpoint at the pause,
        and a restored core resumes through the same loop.

        This is :func:`run_cores` over this one core, with its own
        ``heartbeat``.
        """
        run_cores([self], max_cycles, until_cycle, self.heartbeat)

    def _next_event_cycle(self) -> int:
        """The first cycle after this one whose tick may change any state
        (``cycle + 1`` when the next tick may do work; :data:`NO_EVENT`
        when nothing is due at a known cycle).

        Every stage is blocked until the returned cycle: commit waits on an
        incomplete head (or on a faulting load's ready cycle), writeback on
        the next scheduled completion, the unsafe broadcast on its delivery
        cycle, the LSQ on its entries' cycles (:meth:`LoadStoreQueues.
        next_event_cycle`), issue on unfinished producers or an older SB,
        dispatch on a full structure, and fetch on a stop, a stall, its
        resume cycle or a full queue.  A new cycle-dependent condition read
        by :meth:`tick` must add its wake cycle here or return ``cycle + 1``.
        """
        busy = self.cycle + 1
        wake = NO_EVENT
        # commit
        rob = self.rob
        if rob:
            head = rob[0]
            if not head.is_load:
                if head.completed:
                    return busy
            elif head.completed:
                if not head.verify_pending:
                    return busy
            else:
                response = head.response
                if response is not None and (
                        response.faulted
                        or (self.policy.mte_enabled
                            and head.tcs is TagCheckStatus.UNSAFE
                            and response.data_withheld)):
                    wake = response.ready_cycle
        # fetch
        fetch_queue = self.fetch_queue
        if not self._fetch_stopped and self.fetch_blocked_on is None:
            if busy < self.fetch_resume_cycle:
                wake = min(wake, self.fetch_resume_cycle)
            elif (len(fetch_queue) < 2 * self.config.core.fetch_width
                  and self.program.fetch(self.fetch_pc) is not None):
                return busy
        # dispatch
        config = self.config.core
        if fetch_queue and len(rob) < config.rob_entries:
            head = fetch_queue[0]
            if ((not head.needs_issue or len(self.iq) < config.iq_entries)
                    and self.lsq.can_dispatch(head)):
                return busy
        # issue
        ready = self._ready
        if ready and not (self._pending_sb and all(
                self._blocked_by_sb(dyn) for dyn in ready)):
            return busy
        # writeback and the unsafe broadcast
        if self._completions:
            wake = min(wake, min(self._completions))
        for deliver_at, _ in self._unsafe_broadcasts:
            wake = min(wake, deliver_at)
        if wake <= busy:
            return busy
        return min(wake, self.lsq.next_event_cycle(busy))

    # ==================================================================
    # values and speculation queries
    # ==================================================================

    def value_of(self, dyn: DynInstr, reg: int) -> int:
        """Operand value for ``dyn`` reading architectural register ``reg``."""
        if reg == XZR:
            return 0
        producer = dyn.producers.get(reg)
        if producer is None:
            return self.arf[reg]
        if producer.result is None:
            raise SimulationError(
                f"#{dyn.seq} read {reg} from incomplete producer #{producer.seq}")
        return producer.result

    def read_store_value(self, store: DynInstr) -> Optional[int]:
        """The data a store will write, or ``None`` if not yet produced."""
        reg = store.static.rd
        if reg is None or reg == XZR:
            return 0
        producer = store.producers.get(reg)
        if producer is None:
            return self.arf[reg]
        return producer.result if producer.completed else None

    def is_speculative(self, dyn: DynInstr) -> bool:
        """True while any older branch is unresolved (the speculation window)."""
        branches = self._unresolved_branches
        return bool(branches) and next(iter(branches)) < dyn.seq

    def in_flight(self, seq: int) -> Optional[DynInstr]:
        """The ROB entry with ``seq``, if it is still in flight."""
        return self._rob_by_seq.get(seq)

    def taint_root_still_speculative(self, root_seq: int) -> bool:
        """STT untainting rule: a root load stops being tainted once it is
        no longer covered by an unresolved branch (its visibility point)."""
        root = self.in_flight(root_seq)
        if root is None:
            return False
        return self.is_speculative(root) or bool(root.bypassed_store_seqs
                                                 and self._any_bypassed_unresolved(root))

    def _any_bypassed_unresolved(self, load: DynInstr) -> bool:
        for store in self.lsq.sq:
            if store.seq in load.bypassed_store_seqs and store.addr is None:
                return True
        return False

    # ==================================================================
    # defense restriction accounting (Fig. 8 + telemetry)
    # ==================================================================

    def mark_restricted(self, dyn: DynInstr) -> None:
        """Route every defense delay through one place: the policy's
        restricted set, the Figure-8 flag, the restriction timestamp, and
        (when tracing) the ``restrict`` event."""
        self.policy.restrict(dyn)
        if not dyn.was_restricted:
            dyn.was_restricted = True
            dyn.restricted_cycle = self.cycle
            self.stats.restricted_events += 1
            if self.trace is not None:
                self.trace.on_defense_event(dyn, self.cycle, "restrict",
                                            policy=self.policy.name)

    def _note_restriction_lift(self, dyn: DynInstr) -> None:
        """A restricted instruction finally proceeded: record the delay."""
        if dyn.restriction_lifted_cycle >= 0:
            return
        dyn.restriction_lifted_cycle = self.cycle
        delay = self.cycle - dyn.restricted_cycle
        if self.occupancy is not None:
            self.occupancy.note_restriction_delay(delay)
        if self.trace is not None:
            self.trace.on_defense_event(dyn, self.cycle, "lift", delay=delay)

    # ==================================================================
    # fetch
    # ==================================================================

    def _fetch(self) -> None:
        if (self._fetch_stopped or self.fetch_blocked_on is not None
                or self.cycle < self.fetch_resume_cycle):
            return
        budget = self.config.core.fetch_width
        capacity = 2 * self.config.core.fetch_width
        while budget > 0 and len(self.fetch_queue) < capacity:
            static = self.program.fetch(self.fetch_pc)
            if static is None:
                return  # ran past the text segment; wait for a redirect
            dyn = DynInstr(self.seq, static, self.fetch_pc, self.cycle)
            self.seq += 1
            self.stats.fetched += 1
            if self.trace is not None:
                self.trace.on_fetch(dyn, self.cycle)
            redirected = self._predict_and_advance(dyn)
            self.fetch_queue.append(dyn)
            budget -= 1
            if self._fetch_stopped or self.fetch_blocked_on is not None:
                return
            if redirected:
                return  # taken-branch fetch bubble: stop this cycle

    def _predict_and_advance(self, dyn: DynInstr) -> bool:
        """Set the next fetch PC; returns True when fetch redirected."""
        static = dyn.static
        op = static.op
        next_pc = dyn.pc + INSTR_BYTES
        if op is Opcode.HALT:
            self._fetch_stopped = True
            self.fetch_pc = next_pc
            return False
        if not static.is_branch:
            self.fetch_pc = next_pc
            return False

        dyn.bhb_snapshot = self.bhb.snapshot()
        if op is Opcode.B:
            dyn.resolved = True
            dyn.actual_taken = True
            dyn.actual_target = static.target_addr
            self.fetch_pc = static.target_addr
            return True
        if op is Opcode.BL:
            dyn.resolved = True
            dyn.actual_taken = True
            dyn.actual_target = static.target_addr
            self.rsb.push(dyn.pc + INSTR_BYTES)
            self.policy.on_call_fetched(dyn, dyn.pc + INSTR_BYTES)
            self.fetch_pc = static.target_addr
            return True
        if op in (Opcode.B_COND, Opcode.CBZ, Opcode.CBNZ):
            taken = self.pht.predict(dyn.pc)
            dyn.pred_taken = taken
            dyn.pred_target = static.target_addr
            self.bhb.update(taken)
            self._unresolved_branches[dyn.seq] = dyn
            self.fetch_pc = static.target_addr if taken else next_pc
            return taken
        # Indirect branches and returns.
        if op in (Opcode.BR, Opcode.BLR):
            predicted = self.btb.predict(dyn.pc)
            if op is Opcode.BLR:
                self.rsb.push(dyn.pc + INSTR_BYTES)
                self.policy.on_call_fetched(dyn, dyn.pc + INSTR_BYTES)
        else:  # RET
            predicted = self.policy.predict_return(dyn, self.rsb.pop())
        self._unresolved_branches[dyn.seq] = dyn
        if predicted is None:
            self.fetch_blocked_on = dyn  # no prediction: stall until resolve
            return False
        if not self.policy.fetch_may_follow_indirect(dyn, predicted):
            # SpecCFI: the predicted target is not a valid landing pad —
            # speculation down it is refused; fetch stalls until resolution.
            self.mark_restricted(dyn)
            self.stats.cfi_fetch_stalls += 1
            self.fetch_blocked_on = dyn
            return False
        dyn.pred_taken = True
        dyn.pred_target = predicted
        self.fetch_pc = predicted
        bubble = self.policy.cfi_validation_bubble
        if bubble:
            # SpecCFI's landing-pad / shadow-stack validation sits in the
            # fetch path: one bubble per validated indirect prediction.
            self.fetch_resume_cycle = max(self.fetch_resume_cycle,
                                          self.cycle + 1 + bubble)
        return True

    def target_is_landing_pad(self, target: int) -> bool:
        """Whether ``target`` decodes to a BTI instruction (SpecCFI check)."""
        static = self.program.fetch(target)
        return static is not None and static.op is Opcode.BTI

    # ==================================================================
    # dispatch (rename + allocate)
    # ==================================================================

    def _dispatch(self) -> None:
        budget = self.config.core.issue_width
        while budget > 0 and self.fetch_queue:
            dyn = self.fetch_queue[0]
            if len(self.rob) >= self.config.core.rob_entries:
                return
            needs_issue = dyn.needs_issue
            if needs_issue and len(self.iq) >= self.config.core.iq_entries:
                return
            if not self.lsq.can_dispatch(dyn):
                return
            self.fetch_queue.pop(0)
            dyn.dispatch_cycle = self.cycle
            self._rename(dyn)
            self.rob.append(dyn)
            self._rob_by_seq[dyn.seq] = dyn
            self.lsq.dispatch(dyn)
            if dyn.static.op is Opcode.SB:
                self._pending_sb.append(dyn)
            if needs_issue:
                dyn.state = InstrState.DISPATCHED
                self.iq.append(dyn)
                if self._register_waits(dyn):
                    self._ready.append(dyn)  # the youngest: seq order holds
            else:
                dyn.state = InstrState.COMPLETED
                dyn.complete_cycle = self.cycle
                if dyn.static.op is Opcode.BL:
                    dyn.result = dyn.pc + INSTR_BYTES
            budget -= 1

    def _rename(self, dyn: DynInstr) -> None:
        rename = self.rename
        producers = dyn.producers
        for reg in dyn.static.src_regs:
            producers[reg] = rename.get(reg)
        # Taint roots: the union of the producers' roots plus each load
        # producer's own seq.  When a single non-load producer contributes,
        # its (immutable) set is shared rather than copied.
        contributors = [p for p in producers.values()
                        if p is not None and (p.taint_roots or p.is_load)]
        if len(contributors) == 1 and not contributors[0].is_load:
            dyn.taint_roots = contributors[0].taint_roots
        elif contributors:
            roots = set()
            for producer in contributors:
                roots |= producer.taint_roots
                if producer.is_load:
                    roots.add(producer.seq)
            dyn.taint_roots = frozenset(roots)
        for reg in dyn.static.dst_regs:
            rename[reg] = dyn

    @staticmethod
    def _register_waits(dyn: DynInstr) -> bool:
        """Set ``dyn.issue_waits`` to the producers its issue waits on that
        have not completed, and add ``dyn`` to each one's ``consumers`` (a
        producer feeding two operands appears twice on both sides).  True
        when there is none: the operands are ready."""
        static = dyn.static
        # Stores issue their address once base/index are ready; the data
        # operand may arrive later (checked at forward/commit time).  A
        # register with no producer entry (None, XZR) reads the ARF.
        regs = (static.rn, static.rm) if dyn.is_store else static.src_regs
        producers = dyn.producers
        waits = []
        for reg in regs:
            producer = producers.get(reg)
            if producer is not None and not producer.completed:
                waits.append(producer)
                producer.consumers.append(dyn)
        dyn.issue_waits = waits
        return not waits

    # ==================================================================
    # issue + execute
    # ==================================================================

    def _blocked_by_sb(self, dyn: DynInstr) -> bool:
        return any(sb.seq < dyn.seq and sb.state is not InstrState.COMMITTED
                   for sb in self._pending_sb)

    def _issue(self) -> None:
        # ``_ready`` holds exactly the IQ entries with their operands, in
        # seq order, so walking it is the oldest-first walk of the IQ that
        # skips the entries still waiting: nothing completes during issue.
        budget = self.config.core.issue_width
        pending_sb = self._pending_sb
        policy = self.policy
        claim = self.ports.claim
        issued = []
        for dyn in self._ready:
            if pending_sb and self._blocked_by_sb(dyn):
                continue
            if not policy.may_issue(dyn):
                self.mark_restricted(dyn)
                continue
            if not claim(dyn.static.klass_key):
                continue
            dyn.state = InstrState.ISSUED
            dyn.issue_cycle = self.cycle
            if dyn.restricted_cycle >= 0 and not dyn.is_load:
                # Issue-side restrictions (STT, DoM-style holds) lift the
                # moment the instruction issues; load restrictions lift when
                # the data is finally released in complete_load.
                self._note_restriction_lift(dyn)
            self._execute(dyn)
            issued.append(dyn)
            if len(issued) >= budget:
                break
        for dyn in issued:
            self._ready.remove(dyn)
            self.iq.remove(dyn)

    def _execute(self, dyn: DynInstr) -> None:
        """Compute ``dyn``'s result (or address) and schedule completion."""
        static = dyn.static
        op = static.op
        # Oracle taint flows through every computed value.
        if not dyn.secret_tainted:
            for producer in dyn.producers.values():
                if producer is not None and producer.secret_tainted:
                    dyn.secret_tainted = True
                    break
        if dyn.secret_tainted and self.is_speculative(dyn):
            self.leak_log.append({
                "kind": "contention", "seq": dyn.seq, "pc": dyn.pc,
                "klass": static.klass.value, "cycle": self.cycle})

        if dyn.is_memory:
            base = self.value_of(dyn, static.rn) if static.rn is not None else 0
            offset = (self.value_of(dyn, static.rm)
                      if static.rm is not None else (static.imm or 0))
            dyn.addr = (base + offset) & _WORD_MASK
            dyn.addr_ready_cycle = self.cycle + self.config.core.agu_latency
            if dyn.is_store:
                self._schedule_completion(dyn, dyn.addr_ready_cycle)
            else:
                # Loads complete later, via the LSQ, which first looks at
                # the load once its address is ready.
                dyn.lsq_wake = dyn.addr_ready_cycle
            return

        latency = self._latencies.get(static.klass_key, 1)
        if dyn.is_branch:
            if dyn.resolved:  # B/BL resolved at fetch; BL just writes LR
                if op in (Opcode.BL,):
                    dyn.result = dyn.pc + INSTR_BYTES
            else:
                self._compute_branch_outcome(dyn)
            self._schedule_completion(dyn, self.cycle + latency)
            return
        dyn.result = self._compute_alu(dyn)
        self._schedule_completion(dyn, self.cycle + latency)

    def _compute_alu(self, dyn: DynInstr) -> int:
        static = dyn.static
        op = static.op
        a = self.value_of(dyn, static.rn) if static.rn is not None else 0
        b = (self.value_of(dyn, static.rm) if static.rm is not None
             else (static.imm or 0))
        if op is Opcode.ADD:
            return (a + b) & _WORD_MASK
        if op is Opcode.SUB:
            return (a - b) & _WORD_MASK
        if op is Opcode.AND:
            return a & b
        if op is Opcode.ORR:
            return a | b
        if op is Opcode.EOR:
            return a ^ b
        if op is Opcode.LSL:
            return (a << (b & 63)) & _WORD_MASK
        if op is Opcode.LSR:
            return (a >> (b & 63)) & _WORD_MASK
        if op is Opcode.ASR:
            return (_to_signed(a) >> (b & 63)) & _WORD_MASK
        if op is Opcode.MUL:
            return (a * b) & _WORD_MASK
        if op is Opcode.UDIV:
            return (a // b) & _WORD_MASK if b else 0
        if op is Opcode.MOV:
            return b if static.rn is None else a
        if op is Opcode.CMP:
            return self._flags_of_sub(a, b)
        if op is Opcode.IRG:
            tag = self._rng.randrange(self.config.mte.num_tags)
            return with_key(a, tag, self.config.mte.tag_bits)
        if op is Opcode.ADDG:
            key = key_of(a, self.config.mte.tag_bits)
            new_key = (key + (static.tag_imm or 0)) % self.config.mte.num_tags
            return with_key((a + (static.imm or 0)) & _WORD_MASK, new_key,
                            self.config.mte.tag_bits)
        if op is Opcode.SUBG:
            key = key_of(a, self.config.mte.tag_bits)
            new_key = (key - (static.tag_imm or 0)) % self.config.mte.num_tags
            return with_key((a - (static.imm or 0)) & _WORD_MASK, new_key,
                            self.config.mte.tag_bits)
        raise SimulationError(f"unhandled ALU opcode {op.value}")

    @staticmethod
    def _flags_of_sub(a: int, b: int) -> int:
        """NZCV encoded as an integer value (N=8, Z=4, C=2, V=1)."""
        result = (a - b) & _WORD_MASK
        n = result >> 63
        z = int(result == 0)
        c = int(a >= b)
        sa, sb, sr = a >> 63, b >> 63, result >> 63
        v = int(sa != sb and sr != sa)
        return (n << 3) | (z << 2) | (c << 1) | v

    @staticmethod
    def _cond_holds(cond: Cond, flags: int) -> bool:
        n = bool(flags & 8)
        z = bool(flags & 4)
        c = bool(flags & 2)
        v = bool(flags & 1)
        if cond is Cond.EQ:
            return z
        if cond is Cond.NE:
            return not z
        if cond is Cond.LO:
            return not c
        if cond is Cond.HS:
            return c
        if cond is Cond.LT:
            return n != v
        if cond is Cond.GE:
            return n == v
        if cond is Cond.LE:
            return z or (n != v)
        if cond is Cond.GT:
            return (not z) and (n == v)
        if cond is Cond.MI:
            return n
        if cond is Cond.PL:
            return not n
        raise KeyError(cond)

    def _compute_branch_outcome(self, dyn: DynInstr) -> None:
        static = dyn.static
        op = static.op
        next_pc = dyn.pc + INSTR_BYTES
        if op is Opcode.B_COND:
            flags = self.value_of(dyn, FLAGS_REG)
            dyn.actual_taken = self._cond_holds(static.cond, flags)
            dyn.actual_target = static.target_addr if dyn.actual_taken else next_pc
        elif op in (Opcode.CBZ, Opcode.CBNZ):
            value = self.value_of(dyn, static.rn)
            zero = value == 0
            dyn.actual_taken = zero if op is Opcode.CBZ else not zero
            dyn.actual_target = static.target_addr if dyn.actual_taken else next_pc
        elif op in (Opcode.BR, Opcode.BLR):
            dyn.actual_taken = True
            dyn.actual_target = strip_tag(self.value_of(dyn, static.rn))
            if op is Opcode.BLR:
                dyn.result = next_pc  # LR
        elif op is Opcode.RET:
            dyn.actual_taken = True
            dyn.actual_target = strip_tag(self.value_of(dyn, LR))
        else:  # pragma: no cover - B/BL resolve at fetch
            raise SimulationError(f"unexpected branch {op.value} at execute")

    def _schedule_completion(self, dyn: DynInstr, cycle: int) -> None:
        cycle = max(cycle, self.cycle + 1)
        dyn.complete_cycle = cycle
        self._completions.setdefault(cycle, []).append(dyn)

    # ==================================================================
    # writeback
    # ==================================================================

    def _writeback(self) -> None:
        for dyn in self._completions.pop(self.cycle, ()):
            if dyn.squashed:
                continue
            dyn.state = InstrState.COMPLETED
            if dyn.consumers:
                self._wake_consumers(dyn)
            dyn.speculative_at_complete = (
                self.is_speculative(dyn) or bool(dyn.bypassed_store_seqs))
            self.policy.on_execute(dyn)
            if dyn.is_branch and not dyn.resolved:
                self._resolve_branch(dyn)

    def _wake_consumers(self, producer: DynInstr) -> None:
        """``producer`` completed: drop it from each consumer's
        ``issue_waits`` and insert each consumer left waiting on nothing
        into ``_ready`` by seq.  Completion is final, so ``_ready`` stays
        the IQ entries with their operands; a squashed consumer is no
        longer in the IQ and stays out."""
        ready = self._ready
        for consumer in producer.consumers:
            waits = consumer.issue_waits
            waits.remove(producer)
            if waits or consumer.squashed:
                continue
            seq = consumer.seq
            index = len(ready)
            while index and ready[index - 1].seq > seq:
                index -= 1
            ready.insert(index, consumer)
        producer.consumers.clear()

    def _resolve_branch(self, dyn: DynInstr) -> None:
        dyn.resolved = True
        self._unresolved_branches.pop(dyn.seq, None)
        self.stats.branches += 1
        if self.occupancy is not None and dyn.fetch_cycle >= 0:
            self.occupancy.note_shadow(self.cycle - dyn.fetch_cycle)
        static = dyn.static
        history = dyn.bhb_snapshot
        if static.op in (Opcode.B_COND, Opcode.CBZ, Opcode.CBNZ):
            self.pht.train(dyn.pc, dyn.actual_taken, history)
        elif static.op in (Opcode.BR, Opcode.BLR):
            self.btb.train(dyn.pc, dyn.actual_target, history)

        if self.fetch_blocked_on is dyn:
            # Fetch was stalled waiting for this target: resume, no squash.
            self.fetch_blocked_on = None
            self.fetch_pc = dyn.actual_target
            self.fetch_resume_cycle = self.cycle + 1
            self.policy.on_branch_resolved(dyn, mispredicted=False)
            return

        mispredicted = (dyn.actual_taken != dyn.pred_taken
                        or (dyn.actual_taken
                            and dyn.actual_target != dyn.pred_target))
        dyn.mispredicted = mispredicted
        if mispredicted:
            self.stats.branch_mispredicts += 1
            if static.op in (Opcode.B_COND, Opcode.CBZ, Opcode.CBNZ):
                self.bhb.restore(history)
                self.bhb.update(dyn.actual_taken)
            self.squash_from(dyn.seq + 1, dyn.actual_target,
                             reason="mispredict")
        self.policy.on_branch_resolved(dyn, mispredicted)

    # ==================================================================
    # squash
    # ==================================================================

    def squash_from(self, seq: int, redirect_pc: int, reason: str = "") -> None:
        """Squash every instruction with sequence >= ``seq`` and refetch."""
        trace = self.trace
        for dyn in self.rob:
            if dyn.seq >= seq:
                dyn.squashed = True
                dyn.squash_cycle = self.cycle
                self.stats.squashed += 1
                del self._rob_by_seq[dyn.seq]
                if trace is not None:
                    trace.on_squash(dyn, self.cycle, reason)
        for dyn in self.fetch_queue:
            dyn.squashed = True
            dyn.squash_cycle = self.cycle
            self.stats.squashed += 1
            if trace is not None:
                trace.on_squash(dyn, self.cycle, reason)
        self.rob = [d for d in self.rob if d.seq < seq]
        self.iq = [d for d in self.iq if d.seq < seq]
        self._ready = [d for d in self._ready if d.seq < seq]
        self.fetch_queue = [d for d in self.fetch_queue if d.seq < seq]
        self.lsq.squash_from(seq)
        self._pending_sb = [d for d in self._pending_sb if d.seq < seq]
        self._unresolved_branches = {
            s: d for s, d in self._unresolved_branches.items() if s < seq}
        self._unsafe_broadcasts = [
            (c, d) for c, d in self._unsafe_broadcasts if d.seq < seq]
        self._rebuild_rename()
        self.fetch_pc = redirect_pc
        self.fetch_resume_cycle = self.cycle + self.config.core.mispredict_penalty
        self.fetch_blocked_on = None
        self._fetch_stopped = False
        self.policy.on_squash(seq)

    def _rebuild_rename(self) -> None:
        self.rename = {}
        for dyn in self.rob:
            for reg in dyn.static.dst_regs:
                self.rename[reg] = dyn

    # ==================================================================
    # load completion + SpecASan plumbing
    # ==================================================================

    def complete_load(self, load: DynInstr, value: int, ready_cycle: int,
                      source_address: Optional[int] = None,
                      stale: bool = False,
                      forwarded_store: Optional[DynInstr] = None) -> None:
        """Deliver a load's value and schedule its completion."""
        load.result = value
        address = strip_tag(load.addr)
        if self._in_secret_range(address) or (
                source_address is not None
                and self._in_secret_range(source_address)):
            load.secret_tainted = True
            self.leak_log.append({
                "kind": "secret-access", "seq": load.seq, "pc": load.pc,
                "addr": address, "stale": stale, "cycle": self.cycle,
                "speculative": self.is_speculative(load)})
        if forwarded_store is not None and forwarded_store.secret_tainted:
            load.secret_tainted = True
        if load.restricted_cycle >= 0:
            self._note_restriction_lift(load)
        self._schedule_completion(load, max(ready_cycle, self.cycle + 1))

    def _in_secret_range(self, address: int) -> bool:
        return any(lo <= address < hi for lo, hi in self.secret_ranges)

    def note_memory_issue(self, load: DynInstr, speculative: bool) -> None:
        """Oracle hook: a load reached the memory subsystem.

        If its *address* derives from the secret, its cache footprint is a
        transmission (the TRANSMIT stage of Figure 1).
        """
        address_tainted = any(
            p is not None and p.secret_tainted
            for r, p in load.producers.items()
            if r in (load.static.rn, load.static.rm))
        if address_tainted:
            self.leak_log.append({
                "kind": "cache-transmit", "seq": load.seq, "pc": load.pc,
                "addr": strip_tag(load.addr), "cycle": self.cycle,
                "speculative": speculative})

    def schedule_unsafe_broadcast(self, unsafe: DynInstr) -> None:
        """§3.4: the ROB marks dependent memory instructions unsafe; the
        broadcast takes ``unsafe_broadcast_latency`` cycles."""
        deliver_at = self.cycle + self.config.core.unsafe_broadcast_latency
        self._unsafe_broadcasts.append((deliver_at, unsafe))

    def _deliver_unsafe_broadcasts(self) -> None:
        remaining = []
        for deliver_at, unsafe in self._unsafe_broadcasts:
            if deliver_at > self.cycle:
                remaining.append((deliver_at, unsafe))
                continue
            # An access whose own check already passed stays SAFE: a root
            # marked unsafe by a blocked forward may still pass its own
            # check at memory, and the dependent then commits normally.
            for dyn in self.rob:
                if (dyn.seq > unsafe.seq and dyn.is_memory
                        and unsafe.seq in dyn.taint_roots
                        and dyn.tcs is not TagCheckStatus.SAFE):
                    dyn.tcs = TagCheckStatus.UNSAFE
                    dyn.unsafe_dependent = True
                    dyn.ssa = False
        self._unsafe_broadcasts = remaining

    # ==================================================================
    # commit
    # ==================================================================

    def _commit(self) -> None:
        budget = self.config.core.commit_width
        while budget > 0 and self.rob:
            head = self.rob[0]
            if head.is_load and not head.completed:
                if self._load_faults_at_head(head):
                    return
                break
            if head.is_load and head.verify_pending:
                break  # transient value awaiting its full-address/fill check
            if not head.completed:
                break
            if head.is_store:
                if not self._commit_store(head):
                    return
            if head.static.op is Opcode.HALT:
                self._retire(head)
                self.halted = True
                return
            if head.is_load:
                self.stats.loads_committed += 1
                self.mdp.decay(head.pc)
            self._retire(head)
            budget -= 1

    def _load_faults_at_head(self, head: DynInstr) -> bool:
        """A withheld (unsafe) load that reached the ROB head is bound to
        commit: its mismatch is architectural — raise the MTE fault (§3.4)."""
        if (self.policy.mte_enabled and head.tcs is TagCheckStatus.UNSAFE
                and head.response is not None and head.response.data_withheld
                and self.cycle >= head.response.ready_cycle):
            self._raise_tag_fault(head)
            return True
        if (head.response is not None and head.response.faulted
                and self.cycle >= head.response.ready_cycle):
            # Architectural access to unmapped memory: fatal (SIGSEGV).
            self.fault = TagCheckFault(strip_tag(head.addr or 0), 0, 0,
                                       pc=head.pc)
            self.halted = True
            return True
        return False

    def _commit_store(self, store: DynInstr) -> bool:
        """Perform the architectural effects of a store; False on fault."""
        if self.policy.mte_enabled and store.tcs is TagCheckStatus.UNSAFE:
            self._raise_tag_fault(store)
            return False
        value = self.read_store_value(store)
        if value is None:
            raise SimulationError(
                f"store #{store.seq} committed without data")
        if store.static.op is Opcode.STG:
            tag = key_of(value, self.config.mte.tag_bits)
            self.hierarchy.store_tag(store.addr, tag, self.core_id, self.cycle)
        else:
            data = value.to_bytes(8, "little")[:store.static.memory_bytes]
            self.hierarchy.commit_store(store.addr, data, self.core_id,
                                        self.cycle)
        self.stats.stores_committed += 1
        return True

    def _retire(self, head: DynInstr) -> None:
        self.rob.pop(0)
        del self._rob_by_seq[head.seq]
        head.state = InstrState.COMMITTED
        head.commit_cycle = self.cycle
        if self.trace is not None:
            self.trace.on_retire(head, self.cycle)
        for reg in head.static.dst_regs:
            if head.result is not None:
                self.arf[reg] = head.result
        if head.static.op is Opcode.SB and head in self._pending_sb:
            self._pending_sb.remove(head)
        self.lsq.remove_committed(head)
        self.policy.on_commit(head)
        self.stats.committed += 1
        if head.was_restricted:
            self.stats.restricted_committed += 1
        self._last_commit_cycle = self.cycle
        self.last_commit_pc = head.pc
        if self.watchdog is not None:
            self.watchdog.on_commit(self, head)

    def _raise_tag_fault(self, dyn: DynInstr) -> None:
        """Record the architectural MTE fault and halt the core (the OS
        would deliver SIGSEGV; the harness inspects :attr:`fault`)."""
        lock = self.hierarchy.read_tag(dyn.addr) if dyn.addr is not None else 0
        self.fault = TagCheckFault(
            strip_tag(dyn.addr or 0),
            key_of(dyn.addr or 0, self.config.mte.tag_bits), lock, pc=dyn.pc)
        self.stats.tag_faults += 1
        self.halted = True

    # ==================================================================
    # checkpointing
    # ==================================================================

    def _live_instrs(self) -> Dict[int, DynInstr]:
        """Every DynInstr reachable from core state, keyed by seq.

        The closure starts from all pipeline containers and chases
        ``producers`` edges transitively: committed instructions stay
        reachable through rename/consumer references (commit does not
        clear the rename table), so they must be serialized too for the
        object graph to rebuild identically.
        """
        roots: List[DynInstr] = []
        roots += self.rob
        roots += self.iq
        roots += self.fetch_queue
        roots += self.rename.values()
        roots += self.lsq.lq
        roots += self.lsq.sq
        roots += self.lsq._stale_pending
        for load, store, _cycle in self.lsq._partial_pending:
            roots += (load, store)
        for pending in self._completions.values():
            roots += pending
        roots += self._unresolved_branches.values()
        roots += self._pending_sb
        roots += (dyn for _cycle, dyn in self._unsafe_broadcasts)
        if self.fetch_blocked_on is not None:
            roots.append(self.fetch_blocked_on)
        live: Dict[int, DynInstr] = {}
        stack = roots
        while stack:
            dyn = stack.pop()
            if dyn.seq in live:
                continue
            live[dyn.seq] = dyn
            for producer in dyn.producers.values():
                if producer is not None and producer.seq not in live:
                    stack.append(producer)
        return live

    def state_dict(self) -> dict:
        """Complete serializable core state (one core; hierarchy separate).

        Must be taken between cycles (as :meth:`run`'s ``until_cycle``
        pause guarantees): per-cycle scratch such as the exec ports'
        claimed set is then empty by construction.
        """
        instrs = self._live_instrs()
        rng_state = self._rng.getstate()
        return {
            "core_id": self.core_id,
            "cycle": self.cycle,
            "seq": self.seq,
            "arf": list(self.arf),
            "rng": [rng_state[0], list(rng_state[1]), rng_state[2]],
            "halted": self.halted,
            "fault": None if self.fault is None else {
                "address": self.fault.address, "key": self.fault.key,
                "lock": self.fault.lock, "pc": self.fault.pc},
            "last_commit_cycle": self._last_commit_cycle,
            "last_commit_pc": self.last_commit_pc,
            "fetch_pc": self.fetch_pc,
            "fetch_resume_cycle": self.fetch_resume_cycle,
            "fetch_blocked_on": (None if self.fetch_blocked_on is None
                                 else self.fetch_blocked_on.seq),
            "fetch_stopped": self._fetch_stopped,
            "instrs": [instrs[seq].state_dict() for seq in sorted(instrs)],
            "rob": [d.seq for d in self.rob],
            "iq": [d.seq for d in self.iq],
            "fetch_queue": [d.seq for d in self.fetch_queue],
            "rename": [[reg, d.seq] for reg, d in self.rename.items()],
            "completions": [[cycle, [d.seq for d in pending]]
                            for cycle, pending
                            in sorted(self._completions.items())],
            "unresolved_branches": sorted(self._unresolved_branches),
            "pending_sb": [d.seq for d in self._pending_sb],
            "unsafe_broadcasts": [[cycle, d.seq]
                                  for cycle, d in self._unsafe_broadcasts],
            "lsq": self.lsq.state_dict(),
            "stats": self.stats.state_dict(),
            "ports": self.ports.state_dict(),
            "bhb": self.bhb.state_dict(),
            "pht": self.pht.state_dict(),
            "btb": self.btb.state_dict(),
            "rsb": self.rsb.state_dict(),
            "mdp": self.mdp.state_dict(),
            "policy": self.policy.state_dict(),
            "secret_ranges": [[lo, hi] for lo, hi in self.secret_ranges],
            "leak_log": [dict(entry) for entry in self.leak_log],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this freshly built core.

        The core must have been constructed against the *same* program and
        config (the checkpoint header's config hash enforces this); static
        instructions are rehydrated from the program text by pc.
        """
        from repro.errors import CheckpointError
        if state["core_id"] != self.core_id:
            raise CheckpointError(
                f"checkpoint is for core {state['core_id']}, "
                f"restoring into core {self.core_id}", kind="state-mismatch")
        # Rebuild every live instruction, then rewire seq cross-references
        # into object references in a second pass.
        instrs: Dict[int, DynInstr] = {}
        for entry in state["instrs"]:
            static = self.program.fetch(entry["pc"])
            if static is None:
                raise CheckpointError(
                    f"checkpointed instruction #{entry['seq']} at "
                    f"pc={entry['pc']:#x} is outside the program text",
                    kind="state-mismatch")
            instrs[entry["seq"]] = DynInstr.from_state_dict(entry, static)
        for entry in state["instrs"]:
            dyn = instrs[entry["seq"]]
            dyn.producers = {
                reg: (None if seq is None else instrs[seq])
                for reg, seq in entry["producers"]}

        self.cycle = state["cycle"]
        self.seq = state["seq"]
        self.arf = list(state["arf"])
        rng = state["rng"]
        self._rng.setstate((rng[0], tuple(rng[1]), rng[2]))
        self.halted = state["halted"]
        fault = state["fault"]
        self.fault = None if fault is None else TagCheckFault(
            fault["address"], fault["key"], fault["lock"], pc=fault["pc"])
        self._last_commit_cycle = state["last_commit_cycle"]
        self.last_commit_pc = state["last_commit_pc"]
        self.fetch_pc = state["fetch_pc"]
        self.fetch_resume_cycle = state["fetch_resume_cycle"]
        self.fetch_blocked_on = (
            None if state["fetch_blocked_on"] is None
            else instrs[state["fetch_blocked_on"]])
        self._fetch_stopped = state["fetch_stopped"]

        self.rob = [instrs[seq] for seq in state["rob"]]
        self._rob_by_seq = {dyn.seq: dyn for dyn in self.rob}
        self.iq = [instrs[seq] for seq in state["iq"]]
        # Derived, not stored: the restored instructions have no consumers
        # yet, so registering the IQ in order rebuilds both sides.
        self._ready = [dyn for dyn in self.iq if self._register_waits(dyn)]
        self.fetch_queue = [instrs[seq] for seq in state["fetch_queue"]]
        self.rename = {reg: instrs[seq] for reg, seq in state["rename"]}
        self._completions = {
            cycle: [instrs[seq] for seq in seqs]
            for cycle, seqs in state["completions"]}
        self._unresolved_branches = {
            seq: instrs[seq] for seq in state["unresolved_branches"]}
        self._pending_sb = [instrs[seq] for seq in state["pending_sb"]]
        self._unsafe_broadcasts = [
            (cycle, instrs[seq])
            for cycle, seq in state["unsafe_broadcasts"]]
        self.lsq.load_state_dict(state["lsq"], instrs)
        self.stats.load_state_dict(state["stats"])
        self.ports.load_state_dict(state["ports"])
        self.bhb.load_state_dict(state["bhb"])
        self.pht.load_state_dict(state["pht"])
        self.btb.load_state_dict(state["btb"])
        self.rsb.load_state_dict(state["rsb"])
        self.mdp.load_state_dict(state["mdp"])
        self.policy.load_state_dict(state["policy"])
        self.secret_ranges = [(lo, hi) for lo, hi in state["secret_ranges"]]
        self.leak_log = [dict(entry) for entry in state["leak_log"]]


def run_cores(cores: List[Core], max_cycles: Optional[int] = None,
              until_cycle: Optional[int] = None, heartbeat=None) -> None:
    """The cycle loop: tick ``cores`` in lockstep until every one halts.

    Each cycle ticks every live core in core-id order (its fault injector
    first, its invariant checker after), then pulses ``heartbeat`` (every
    ``interval`` cycles) and checks each live core for a deadlock.  A
    halted core is never ticked again, so its ``cycle`` stays at its halt
    cycle.  ``max_cycles`` defaults to the configured budget
    (:attr:`~repro.config.CoreConfig.max_cycles`); exceeding it raises
    :class:`SimulationError`.  ``until_cycle`` pauses between cycles
    without raising (see :meth:`Core.run`).

    Cycles in which no core can change any state are not ticked: after a
    cycle, the smallest :meth:`Core._next_event_cycle` over the live cores
    is the first cycle that may do work, and the loop jumps to the cycle
    before it.  Cores interact only through the shared hierarchy, which
    changes only when a core ticks, and every wake is computed after all
    cores have ticked, so the minimum over cores is as exact as one core's
    wake.  The jump never passes ``until_cycle``, ``max_cycles``, a
    core's deadlock check or an interval observer's next firing, and is
    off while a fault injector or an occupancy profiler is attached, so
    every observable result is that of ticking each cycle.
    """
    config = cores[0].config.core
    if max_cycles is None:
        max_cycles = config.max_cycles
    threshold = config.deadlock_threshold
    stop = NO_EVENT if until_cycle is None else until_cycle
    skip = all(core.fault_injector is None and core.occupancy is None
               for core in cores)
    observers = [observer for observer in
                 [heartbeat] + [core.invariant_checker for core in cores]
                 if observer is not None]
    live = [core for core in cores if not core.halted]
    while live:
        cycle = live[0].cycle
        if cycle >= max_cycles:
            raise SimulationError(
                f"program did not halt within {max_cycles} cycles")
        if cycle >= stop:
            return  # paused, resumable
        for core in live:
            if core.fault_injector is not None:
                core.fault_injector.tick(core)
            core.tick()
            checker = core.invariant_checker
            if checker is not None and core.cycle % checker.interval == 0:
                checker.check(core)
        cycle += 1
        if heartbeat is not None and cycle % heartbeat.interval == 0:
            heartbeat.beat(cycle)
        for core in live:
            if cycle - core._last_commit_cycle > threshold:
                from repro.resilience.snapshot import core_snapshot, summarize
                snapshot = core_snapshot(core, restorable=True)
                raise DeadlockError(cycle - core._last_commit_cycle,
                                    summarize(snapshot), snapshot=snapshot)
        live = [core for core in live if not core.halted]
        if not (skip and live):
            continue
        busy = cycle + 1
        wake = NO_EVENT
        for core in live:
            wake = min(wake, core._next_event_cycle())
            if wake <= busy:
                break
        if wake <= busy:
            continue
        target = min(wake - 1, max_cycles, stop)
        for core in live:
            target = min(target, core._last_commit_cycle + threshold)
        for observer in observers:
            interval = observer.interval
            target = min(target, (cycle // interval + 1) * interval - 1)
        if target > cycle:
            for core in live:
                core.cycle = target
                core.stats.cycles = target
                core.ports.new_cycle()
