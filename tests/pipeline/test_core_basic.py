"""End-to-end core behaviour: control flow, calls, memory, halting."""

from dataclasses import replace

import pytest

from repro import build_system, CORTEX_A76
from repro.errors import SimulationError
from repro.isa import assemble, ProgramBuilder


def run(source, **kwargs):
    return build_system(CORTEX_A76).run(assemble(source), **kwargs)


class TestControlFlow:
    def test_loop_with_counter(self):
        result = run("""
            MOV X0, #0
            MOV X1, #25
        loop:
            ADD X0, X0, #2
            SUB X1, X1, #1
            CBNZ X1, loop
            HALT
        """)
        assert result.register("X0") == 50

    def test_nested_branches(self):
        result = run("""
            MOV X0, #0
            MOV X1, #0
        outer:
            MOV X2, #0
        inner:
            ADD X0, X0, #1
            ADD X2, X2, #1
            CMP X2, #3
            B.LO inner
            ADD X1, X1, #1
            CMP X1, #4
            B.LO outer
            HALT
        """)
        assert result.register("X0") == 12

    def test_direct_call_and_return(self):
        result = run("""
            MOV X0, #5
            BL double
            BL double
            HALT
        double:
            ADD X0, X0, X0
            RET
        """)
        assert result.register("X0") == 20

    def test_nested_calls_with_stack(self):
        result = run("""
            MOV X28, #0x9000
            MOV X0, #1
            BL f1
            HALT
        f1:
            SUB X28, X28, #8
            STR LR, [X28]
            ADD X0, X0, #10
            BL f2
            LDR LR, [X28]
            ADD X28, X28, #8
            RET
        f2:
            ADD X0, X0, #100
            RET
        """)
        assert result.register("X0") == 111

    def test_indirect_branch(self):
        builder = ProgramBuilder()
        builder.li("X0", 0)
        builder.li("X9", 0)  # patched below
        li = builder.build().instructions[-1]
        builder.blr("X9")
        builder.halt()
        builder.label("target")
        builder.bti()
        builder.li("X0", 77)
        builder.ret()
        program = builder.build()
        li.imm = program.address_of("target")
        result = build_system(CORTEX_A76).run(program)
        assert result.register("X0") == 77

    def test_cbz_taken_and_not_taken(self):
        result = run("""
            MOV X0, #0
            MOV X1, #0
            CBZ X1, took
            MOV X0, #99
        took:
            ADD X0, X0, #1
            HALT
        """)
        assert result.register("X0") == 1


class TestMemoryOps:
    def test_store_load_roundtrip(self):
        result = run("""
            MOV X1, #0x3000
            MOV X2, #1234
            STR X2, [X1]
            LDR X3, [X1]
            HALT
        """)
        assert result.register("X3") == 1234

    def test_byte_ops(self):
        result = run("""
            MOV X1, #0x3000
            MOV X2, #0x1FF
            STRB X2, [X1]
            LDRB X3, [X1]
            HALT
        """)
        assert result.register("X3") == 0xFF

    def test_store_to_load_forwarding_value(self):
        """A load right behind a store to the same address must see it."""
        result = run("""
            MOV X1, #0x3000
            MOV X2, #42
            STR X2, [X1]
            LDR X3, [X1]
            ADD X4, X3, #1
            HALT
        """)
        assert result.register("X4") == 43

    def test_data_segment_initialisation(self):
        result = run("""
            .data tbl 0x4000 words 11 22 33
            MOV X1, #0x4000
            LDR X2, [X1, #8]
            HALT
        """)
        assert result.register("X2") == 22

    def test_register_offset_addressing(self):
        result = run("""
            .data tbl 0x4000 words 5 6 7
            MOV X1, #0x4000
            MOV X2, #16
            LDR X3, [X1, X2]
            HALT
        """)
        assert result.register("X3") == 7


class TestMTEInstructions:
    def test_addg_subg_adjust_key_and_address(self):
        result = run("""
            MOV X1, #0x4000
            ADDG X2, X1, #32, #3
            SUBG X3, X2, #16, #1
            HALT
        """)
        x2 = result.register("X2")
        x3 = result.register("X3")
        assert x2 & (1 << 56) - 1 == 0x4020
        assert (x2 >> 56) & 0xF == 3
        assert x3 & (1 << 56) - 1 == 0x4010
        assert (x3 >> 56) & 0xF == 2

    def test_stg_ldg_roundtrip(self):
        result = run("""
            MOV X1, #0x4000
            ADDG X2, X1, #0, #5
            STG X2, [X2]
            LDG X3, [X1]
            HALT
        """)
        assert (result.register("X3") >> 56) & 0xF == 5

    def test_irg_produces_valid_tagged_pointer(self):
        result = run("""
            MOV X1, #0x4000
            IRG X2, X1
            HALT
        """)
        assert result.register("X2") & ((1 << 56) - 1) == 0x4000


class TestRunControl:
    def test_halt_stops_cleanly(self):
        result = run("NOP\nHALT")
        assert result.halted

    def test_timeout_raises(self):
        with pytest.raises(SimulationError):
            run("loop:\nB loop\nHALT", max_cycles=500)

    def test_cycle_budget_defaults_to_the_config(self):
        # A configured budget bounds a run called with no max_cycles.
        config = replace(CORTEX_A76,
                         core=replace(CORTEX_A76.core, max_cycles=10))
        core = build_system(config).prepare(assemble("""
            .data arr 0x5000 zero 1024
            MOV X1, #0x5000
            LDR X2, [X1]
            ADD X0, X2, #7
            HALT
        """))
        with pytest.raises(SimulationError, match="10 cycles"):
            core.run()

    def test_ipc_reported(self):
        result = run("NOP\nNOP\nNOP\nHALT")
        assert result.instructions == 4
        assert 0 < result.ipc <= 8

    def test_barrier_program_still_correct(self):
        result = run("""
            MOV X0, #1
            SB
            ADD X0, X0, #1
            SB
            ADD X0, X0, #1
            HALT
        """)
        assert result.register("X0") == 3
