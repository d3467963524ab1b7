"""Invariant checking, snapshots, and graceful degradation."""

from types import SimpleNamespace

import pytest

from repro import build_system, CORTEX_A76, DefenseKind
from repro.errors import InvariantViolation
from repro.isa import assemble
from repro.pipeline.dyninstr import InstrState, NO_EVENT
from repro.resilience import (core_snapshot, GracefulDegradation, INVARIANTS,
                              InvariantChecker, summarize)

PROGRAM = """
    .data arr 0x5000 zero 4096
    MOV X1, #0x5000
    MOV X2, #0
    MOV X3, #16
loop:
    LDR X4, [X1, X2]
    ADD X2, X2, #64
    SUB X3, X3, #1
    CBNZ X3, loop
    HALT
"""


def _prepared_core(defense=DefenseKind.SPECASAN, source=PROGRAM):
    system = build_system(CORTEX_A76.with_defense(defense))
    return system, system.prepare(assemble(source))


def _busy_core():
    """A core paused mid-loop with two or more entries in the IQ and in
    the unresolved-branch table."""
    _, core = _prepared_core()
    core.run(until_cycle=120)
    assert len(core.iq) >= 2 and len(core._unresolved_branches) >= 2
    return core


def _core_paused_when(condition):
    """A core paused at the first cycle from 100 on at which
    ``condition(core)`` holds."""
    _, core = _prepared_core()
    for cycle in range(100, 400):
        core.run(until_cycle=cycle)
        if condition(core):
            return core
    raise AssertionError("the condition never held")


def _due(core, load):
    return core.lsq._load_wake(load, core.cycle + 1)


class TestCleanRuns:
    @pytest.mark.parametrize("defense", [
        DefenseKind.NONE, DefenseKind.FENCE, DefenseKind.SPECASAN])
    def test_benign_program_has_zero_violations(self, defense):
        system, core = _prepared_core(defense)
        checker = InvariantChecker(interval=16).attach(core)
        core.run()
        assert core.halted
        assert checker.checks_run > 0
        assert checker.log == []

    @pytest.mark.parametrize("defense", [
        DefenseKind.NONE, DefenseKind.FENCE, DefenseKind.STT,
        DefenseKind.SPECASAN_CFI])
    def test_workload_keeps_queue_orders(self, defense):
        # A branchy, pointer-chasing workload (mispredicts, squashes,
        # replays) checked every 8 cycles.
        from repro.workloads import build_spec
        program = build_spec("505.mcf_r", seed=3,
                             target_instructions=600).program
        system = build_system(CORTEX_A76.with_defense(defense))
        core = system.prepare(program)
        checker = InvariantChecker(interval=8).attach(core)
        core.run()
        assert core.halted and core.stats.squashed > 0
        assert checker.checks_run >= core.cycle // 8
        assert checker.log == []

    def test_attach_returns_self_and_wires_core(self):
        _, core = _prepared_core()
        checker = InvariantChecker().attach(core)
        assert core.invariant_checker is checker


class TestViolationDetection:
    def test_tag_corruption_raises_typed_violation(self):
        system, core = _prepared_core()
        checker = InvariantChecker(interval=16).attach(core)
        core.hierarchy.memory.tags.flip_bit(0x5000, 1)
        with pytest.raises(InvariantViolation) as excinfo:
            core.run()
        error = excinfo.value
        assert error.invariant == "tag-storage-integrity"
        assert error.structure == "tag-storage"
        assert error.snapshot["cycle"] == core.cycle
        assert checker.log

    def test_rob_disorder_detected(self):
        _, core = _prepared_core()
        checker = InvariantChecker().attach(core)
        fake = lambda seq: SimpleNamespace(
            seq=seq, squashed=False, state=InstrState.ISSUED)
        core.rob.extend([fake(5), fake(3)])
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(core)
        assert excinfo.value.invariant == "rob-commit-order"
        assert excinfo.value.structure == "rob"

    def test_iq_disorder_detected(self):
        core = _busy_core()
        checker = InvariantChecker().attach(core)
        checker.check(core)  # the real IQ is in order
        core.iq[0], core.iq[1] = core.iq[1], core.iq[0]
        with pytest.raises(InvariantViolation, match="IQ out of age order") \
                as excinfo:
            checker.check(core)
        assert excinfo.value.invariant == "iq-age-order"
        assert excinfo.value.structure == "iq"

    def test_squashed_entry_in_iq_detected(self):
        core = _busy_core()
        checker = InvariantChecker().attach(core)
        youngest = core.iq[-1]
        core.squash_from(youngest.seq, youngest.pc)
        core.iq.append(youngest)  # a squash that missed the IQ
        with pytest.raises(InvariantViolation, match="squashed") as excinfo:
            checker.check(core)
        assert excinfo.value.invariant == "iq-age-order"

    def test_ready_list_missing_an_entry_detected(self):
        core = _core_paused_when(lambda core: core._ready)
        checker = InvariantChecker().attach(core)
        checker.check(core)  # the real ready list is consistent
        core._ready.pop()  # an entry with its operands that issue skips
        with pytest.raises(InvariantViolation, match="ready list") \
                as excinfo:
            checker.check(core)
        assert excinfo.value.invariant == "iq-ready-set"
        assert excinfo.value.structure == "iq"

    def test_unregistered_consumer_detected(self):
        core = _core_paused_when(
            lambda core: any(d.issue_waits for d in core.iq))
        checker = InvariantChecker().attach(core)
        checker.check(core)
        waiting = next(d for d in core.iq if d.issue_waits)
        # The producer's completion would no longer wake the entry.
        waiting.issue_waits[0].consumers.remove(waiting)
        with pytest.raises(InvariantViolation,
                           match="registered as its consumer") as excinfo:
            checker.check(core)
        assert excinfo.value.invariant == "iq-ready-set"

    def test_load_sleeping_past_its_wake_detected(self):
        core = _core_paused_when(lambda core: any(
            _due(core, load) < NO_EVENT for load in core.lsq.lq))
        checker = InvariantChecker().attach(core)
        checker.check(core)
        load = next(load for load in core.lsq.lq
                    if _due(core, load) < NO_EVENT)
        load.lsq_wake = 0  # waking early is harmless
        checker.check(core)
        load.lsq_wake = _due(core, load) + 1  # a visit would be skipped
        with pytest.raises(InvariantViolation, match="sleeps until") \
                as excinfo:
            checker.check(core)
        assert excinfo.value.invariant == "lq-wake-bound"
        assert excinfo.value.structure == "lq"

    def test_unresolved_branch_disorder_detected(self):
        core = _busy_core()
        checker = InvariantChecker().attach(core)
        branches = core._unresolved_branches
        core._unresolved_branches = dict(reversed(list(branches.items())))
        with pytest.raises(InvariantViolation,
                           match="unresolved branches out of age order") \
                as excinfo:
            checker.check(core)
        assert excinfo.value.invariant == "unresolved-branch-order"
        assert excinfo.value.structure == "branches"

    def test_unresolved_branch_outside_the_window_detected(self):
        core = _busy_core()
        checker = InvariantChecker().attach(core)
        seq = next(reversed(core._unresolved_branches))
        branch = core._unresolved_branches[seq]
        core.rob = [d for d in core.rob if d is not branch]
        core.fetch_queue = [d for d in core.fetch_queue if d is not branch]
        core._rob_by_seq.pop(seq, None)
        with pytest.raises(InvariantViolation,
                           match="neither the ROB nor the fetch queue") \
                as excinfo:
            checker.check(core)
        assert excinfo.value.invariant == "unresolved-branch-order"

    def test_seq_index_disagreeing_with_the_rob_detected(self):
        core = _busy_core()
        checker = InvariantChecker().attach(core)
        head = core.rob[0]
        del core._rob_by_seq[head.seq]
        with pytest.raises(InvariantViolation, match="seq index") as excinfo:
            checker.check(core)
        assert excinfo.value.invariant == "unresolved-branch-order"
        core._rob_by_seq[head.seq] = core.rob[1]
        with pytest.raises(InvariantViolation, match="seq index"):
            checker.check(core)

    def test_squashed_entry_in_rob_detected(self):
        _, core = _prepared_core()
        checker = InvariantChecker().attach(core)
        core.rob.append(SimpleNamespace(
            seq=1, squashed=True, state=InstrState.ISSUED))
        with pytest.raises(InvariantViolation, match="squashed"):
            checker.check(core)

    def test_lsq_orphan_detected(self):
        _, core = _prepared_core()
        checker = InvariantChecker().attach(core)
        orphan = SimpleNamespace(seq=2, is_load=True, is_store=False,
                                 static=SimpleNamespace(
                                     op=SimpleNamespace(value="LDR")))
        core.lsq.lq.append(orphan)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(core)
        assert excinfo.value.invariant == "lq-age-order"
        assert "leaked entry" in str(excinfo.value)

    def test_leaked_mshr_detected(self):
        system, core = _prepared_core()
        checker = InvariantChecker(future_slack=1_000).attach(core)
        system.hierarchy.l2_mshrs.allocate(0x9000, ready_cycle=10_000_000)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(core)
        assert excinfo.value.invariant == "mshr-leak-freedom"
        assert excinfo.value.structure == "mshr"

    def test_tag_coherence_drift_detected(self):
        system, core = _prepared_core()
        checker = InvariantChecker().attach(core)
        # Warm the cache with the tagged array, then silently change the
        # DRAM truth without the STG coherence path.
        core.run()
        core.halted = False
        tags = system.hierarchy.memory.tags
        tags._tags[0x5000 // 16] ^= 0x1
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(core)
        assert excinfo.value.invariant == "tag-coherence"
        assert excinfo.value.structure == "tag-storage"


class TestGracefulDegradation:
    def test_tag_fault_degrades_to_fence_and_completes(self):
        system, core = _prepared_core()
        degradation = GracefulDegradation()
        InvariantChecker(interval=16, degradation=degradation).attach(core)
        core.hierarchy.memory.tags.flip_bit(0x5000, 1)
        core.run()
        assert core.halted
        assert degradation.degraded
        event = degradation.events[0]
        assert event.policy_before == "specasan"
        assert event.policy_after == "fence"
        assert core.policy.name == "fence"

    def test_pipeline_faults_are_never_absorbed(self):
        _, core = _prepared_core()
        degradation = GracefulDegradation()
        checker = InvariantChecker(degradation=degradation).attach(core)
        core.rob.append(SimpleNamespace(
            seq=1, squashed=True, state=InstrState.ISSUED))
        with pytest.raises(InvariantViolation):
            checker.check(core)
        assert not degradation.degraded

    def test_raise_mode_never_absorbs(self):
        from repro.resilience import DegradationMode
        system, core = _prepared_core()
        degradation = GracefulDegradation(mode=DegradationMode.RAISE)
        InvariantChecker(interval=16, degradation=degradation).attach(core)
        core.hierarchy.memory.tags.flip_bit(0x5000, 1)
        with pytest.raises(InvariantViolation):
            core.run()
        assert not degradation.degraded


class TestSnapshot:
    def test_snapshot_structure(self):
        system, core = _prepared_core()
        core.run()
        snapshot = core_snapshot(core)
        assert snapshot["halted"] is True
        assert snapshot["cycle"] == core.cycle
        for key in ("rob", "lq", "sq", "mshr", "policy", "last_commit_pc"):
            assert key in snapshot
        assert snapshot["rob"]["occupancy"] == 0

    def test_summarize_is_one_line(self):
        _, core = _prepared_core()
        core.run()
        text = summarize(core_snapshot(core))
        assert "\n" not in text
        assert "rob" in text

    def test_invariant_table_is_complete(self):
        names = {name for name, _ in INVARIANTS}
        assert names == {
            "rob-commit-order", "lq-age-order", "sq-age-order",
            "lq-wake-bound", "iq-age-order", "iq-ready-set",
            "unresolved-branch-order",
            "mshr-leak-freedom", "lfb-leak-freedom",
            "tag-storage-integrity", "tag-coherence"}
