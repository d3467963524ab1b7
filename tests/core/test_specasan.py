"""SpecASan's mechanism: tcs transitions, withholding, faults, forwarding."""

import pytest

from repro import build_system, CORTEX_A76, DefenseKind
from repro.isa import assemble, ProgramBuilder
from repro.mte.tags import with_key
from repro.pipeline.dyninstr import TagCheckStatus

SPECASAN = CORTEX_A76.with_defense(DefenseKind.SPECASAN)


def run(source, **kwargs):
    return build_system(SPECASAN).run(assemble(source), **kwargs)


class TestCommittedPath:
    def test_matching_access_is_clean(self):
        result = run("""
            .data buf 0x4000 tag=5 words 42
            MOV X1, #0x4000
            ADDG X1, X1, #0, #5
            LDR X2, [X1]
            HALT
        """)
        assert result.register("X2") == 42
        assert not result.faulted

    def test_untagged_access_is_clean(self):
        result = run("""
            MOV X1, #0x4000
            MOV X2, #9
            STR X2, [X1]
            LDR X3, [X1]
            HALT
        """)
        assert result.register("X3") == 9

    def test_committed_mismatch_faults(self):
        """A load on the committed path with the wrong key is the
        architectural MTE fault (§3.4)."""
        result = run("""
            .data buf 0x4000 tag=5 words 42
            MOV X1, #0x4000
            ADDG X1, X1, #0, #3
            LDR X2, [X1]
            HALT
        """)
        assert result.faulted
        assert result.fault.lock == 5
        assert result.fault.key == 3

    def test_committed_store_mismatch_faults(self):
        result = run("""
            .data buf 0x4000 tag=5 words 0
            MOV X1, #0x4000
            ADDG X1, X1, #0, #2
            MOV X2, #1
            STR X2, [X1]
            HALT
        """)
        assert result.faulted

    def test_use_after_free_pattern_faults(self):
        """Retag (free) then access through the stale pointer."""
        result = run("""
            .data buf 0x4000 tag=5 words 7
            MOV X1, #0x4000
            ADDG X1, X1, #0, #5
            LDR X2, [X1]        // fine
            ADDG X3, X1, #0, #9 // allocator retags on free
            STG X3, [X3]
            LDR X4, [X1]        // stale pointer -> fault
            HALT
        """)
        assert result.faulted


class TestSpeculativeWithholding:
    def _mismatch_program(self):
        """A mistrained branch guarding an access with the wrong key."""
        builder = ProgramBuilder()
        builder.bytes_segment("victim", 0x4100, bytes([9] * 16), tag=0x5)
        builder.words_segment("slow", 0x200000, [1])
        builder.li("X20", with_key(0x4100, 0x5))
        builder.ldrb("X21", "X20", note="warm with the right key")
        builder.sb()
        builder.li("X2", with_key(0x4100, 0x2), note="wrong key")
        builder.li("X15", 0x200000)
        builder.ldr("X0", "X15", note="slow guard value")
        builder.cbnz("X0", "skip")       # actually taken; cold predicts not
        builder.ldrb("X5", "X2", note="speculative mismatched ACCESS")
        builder.add("X6", "X5", imm=1, note="dependent")
        builder.label("skip")
        builder.halt()
        return builder.build()

    def test_wrong_path_mismatch_is_squashed_not_faulted(self):
        system = build_system(SPECASAN)
        result = system.run(self._mismatch_program())
        assert not result.faulted          # squashed silently (§3.4)
        assert result.halted

    def test_unsafe_access_recorded_by_tsh(self):
        system = build_system(SPECASAN)
        core = system.prepare(self._mismatch_program())
        core.run()
        assert core.policy.tsh.unsafe_outcomes >= 1
        events = [event for _, _, event in core.policy.tsh.trace]
        assert any("unsafe" in event for event in events)

    def test_unsafe_delay_counted_as_restricted(self):
        system = build_system(SPECASAN)
        core = system.prepare(self._mismatch_program())
        core.run()
        assert core.stats.unsafe_delays >= 1
        assert len(core.policy.restricted_seqs) >= 1

    def test_dependent_marking_broadcast(self):
        """§3.4: the ROB marks dependent memory instructions unsafe."""
        builder = ProgramBuilder()
        builder.bytes_segment("victim", 0x4100, bytes([9] * 16), tag=0x5)
        builder.zero_segment("probe", 0x8000, 0x1000)
        builder.words_segment("slow", 0x200000, [1])
        builder.li("X20", with_key(0x4100, 0x5))
        builder.ldrb("X21", "X20")
        builder.sb()
        builder.li("X2", with_key(0x4100, 0x2))
        builder.li("X3", 0x8000)
        builder.li("X15", 0x200000)
        builder.ldr("X0", "X15")
        builder.cbnz("X0", "skip")
        builder.ldrb("X5", "X2", note="unsafe ACCESS")
        builder.lsl("X6", "X5", imm=6)
        builder.add("X7", "X3", "X6")
        builder.ldrb("X8", "X7", note="dependent TRANSMIT")
        builder.label("skip")
        builder.halt()
        system = build_system(SPECASAN)
        core = system.prepare(builder.build())
        saw_dependent_unsafe = []
        while not core.halted:
            core.tick()
            for load in core.lsq.lq:
                if load.unsafe_dependent:
                    saw_dependent_unsafe.append(load.seq)
        assert saw_dependent_unsafe  # the TRANSMIT was marked by the ROB


class TestForwardingRule:
    def test_key_mismatch_blocks_forwarding(self):
        """§3.4: store-to-load forwarding requires matching address keys."""
        result = run("""
            .data slot 0x4040 tag=5 words 0
            .data slow 0x200000 words 7
            MOV X15, #0x200000
            MOV X1, #0x4040
            ADDG X1, X1, #0, #5
            MOV X2, #33
            LDR X0, [X15]        // commit blocker keeps the store in the SQ
            STR X2, [X1]
            LDR X3, [X1]         // same key: forwarding allowed
            HALT
        """)
        assert result.register("X3") == 33
        assert not result.faulted

    def test_cross_key_load_waits_and_then_faults_at_commit(self):
        result = run("""
            .data slot 0x4040 tag=5 words 0
            .data slow 0x200000 words 7
            MOV X15, #0x200000
            MOV X1, #0x4040
            ADDG X1, X1, #0, #5
            ADDG X9, X1, #0, #2  // same address, wrong key
            MOV X2, #33
            LDR X0, [X15]
            STR X2, [X1]
            LDR X3, [X9]         // forward blocked; memory check also fails
            HALT
        """)
        assert result.faulted

    def test_blocked_forward_keeps_checked_dependent_safe(self):
        """A load whose page-offset-aliased forward is blocked (keys
        differ) is marked unsafe and broadcasts, then passes its own check
        at memory.  The younger store it feeds already passed its own
        check; the broadcast must not turn that into a commit-time fault
        (found on 520.omnetpp_r seed 16 at 20k instructions)."""
        system = build_system(SPECASAN)
        core = system.prepare(assemble("""
            .data slow 0x200000 words 7
            .data other 0x5040 tag=3 words 0
            .data slot 0x4040 tag=5 words 11
            .data out 0x6000 words 0
            MOV X15, #0x200000
            MOV X1, #0x5040
            ADDG X1, X1, #0, #3
            MOV X2, #0x4040
            ADDG X2, X2, #0, #5
            MOV X5, #0x6000
            MOV X6, #99
            MOV X12, #1
            LDR X0, [X15]        // commit blocker keeps the store in the SQ
            STR X6, [X1]         // page offset aliases the load below
            UDIV X3, X2, X12     // the load's address arrives late
            UDIV X3, X3, X12
            LDR X4, [X3]         // forward blocked, own check passes
            STR X4, [X5]         // checked SAFE before the broadcast
            HALT
        """))
        core.run()
        events = [event for _, _, event in core.policy.tsh.trace]
        assert "stl-forward blocked, tcs=unsafe" in events
        result = system.result()
        assert not result.faulted
        assert result.register("X4") == 11
        assert result.instructions == 15


class TestSpectreSTLHold:
    def test_tagged_bypass_data_held_until_disambiguation(self):
        """§4.1: a tagged load's data waits for the SQ to disambiguate."""
        import struct
        builder = ProgramBuilder()
        pointer = with_key(0x4040, 0x5)
        builder.bytes_segment("slot", 0x4040, struct.pack("<Q", 99) + bytes(8),
                              tag=0x5)
        builder.bytes_segment("slow", 0x200000,
                              struct.pack("<Q", pointer) + bytes(4088))
        builder.li("X20", pointer)
        builder.ldrb("X21", "X20", note="warm")
        builder.sb()
        builder.li("X2", pointer)
        builder.li("X12", 55)
        builder.li("X15", 0x200000)
        builder.ldr("X11", "X15", note="store address arrives late")
        builder.str_("X12", "X11")
        builder.ldr("X5", "X2", note="bypassing tagged load")
        builder.halt()
        system = build_system(SPECASAN)
        result = system.run(builder.build())
        # After the ordering violation replays, the load must see the
        # store's value, and the stale (99) must never architecturally land.
        assert result.register("X5") == 55
        assert not result.faulted
