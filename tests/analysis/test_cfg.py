"""CFG construction: blocks, edges, address-taken targets, well-formedness."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cfg import address_taken, build_cfg, successors
from repro.isa import assemble
from repro.isa.instructions import INSTR_BYTES, Instruction, Opcode
from repro.isa.program import TEXT_BASE, DataSegment, Program
from repro.mte.tags import strip_tag, with_key


def test_straight_line_is_one_block():
    program = assemble("MOV X0, #1\nADD X0, X0, #1\nHALT")
    cfg = build_cfg(program)
    assert len(cfg.blocks) == 1
    assert [i.op.value for i in cfg.blocks[0].instructions] == [
        "MOV", "ADD", "HALT"]


def test_conditional_branch_splits_blocks_and_edges():
    program = assemble("""
        CMP X0, #4
        B.LO low
        MOV X1, #1
    low:
        HALT
    """)
    cfg = build_cfg(program)
    assert len(cfg.blocks) == 3
    entry = cfg.entry_block
    kinds = sorted(kind for _, kind in entry.successors)
    assert kinds == ["fall", "taken"]
    low = cfg.block_at(program.address_of("low"))
    assert len(low.predecessors) == 2


def test_loop_back_edge():
    program = assemble("""
    loop:
        SUB X0, X0, #1
        CBNZ X0, loop
        HALT
    """)
    cfg = build_cfg(program)
    head = cfg.block_at(program.address_of("loop"))
    assert (head.index, "taken") in head.successors


def test_call_edge_and_fall_through_return_site():
    program = assemble("""
        BL fn
        HALT
    fn:
        RET
    """)
    cfg = build_cfg(program)
    entry = cfg.entry_block
    kinds = {kind for _, kind in entry.successors}
    assert kinds == {"call", "fall"}
    ret_block = cfg.block_at(program.address_of("fn"))
    assert ret_block.successors == []  # RET: no static successors


def test_address_taken_from_immediate_and_data_words():
    program = assemble("""
        .data tbl 0x4000 words 0x1008
        MOV X9, #0x100c
        BR X9
        NOP
        HALT
    """)
    taken = address_taken(program)
    assert 0x1008 in taken          # via the data word
    assert 0x100C in taken          # via the MOV immediate
    assert 0x4000 not in taken      # data addresses are not text


def test_address_taken_strips_mte_key():
    tagged = (0x3 << 56) | 0x1004
    program = assemble(f"""
        .data tbl 0x4000 words {tagged:#x}
        NOP
        NOP
        HALT
    """)
    assert 0x1004 in address_taken(program)


def test_indirect_edges_follow_address_taken():
    program = assemble("""
        MOV X9, #0x100c
        BR X9
        HALT
    target:
        HALT
    """)
    cfg = build_cfg(program)
    br_block = cfg.block_at(0x1004)
    assert (cfg.block_of_addr[0x100C], "indirect") in br_block.successors


def test_unreachable_block_reported():
    program = assemble("""
        B out
        MOV X1, #1
        HALT
    out:
        HALT
    """)
    problems = build_cfg(program).check_well_formed()
    assert any(p.kind == "unreachable-block" for p in problems)


def test_address_taken_block_counts_as_reachable():
    # fn is never called, but its address escapes into a table.
    program = assemble("""
        .data fns 0x4000 words 0x1008
        HALT
        NOP
    fn:
        RET
    """)
    problems = build_cfg(program).check_well_formed()
    reported = {p.address for p in problems
                if p.kind == "unreachable-block"}
    assert program.address_of("fn") not in reported


def test_fall_off_end_reported():
    program = assemble("MOV X0, #1\nADD X0, X0, #1")
    problems = build_cfg(program).check_well_formed()
    assert any(p.kind == "fall-off-end" for p in problems)


def test_well_formed_program_has_no_problems():
    program = assemble("""
        CMP X0, #1
        B.LO done
        MOV X1, #2
    done:
        HALT
    """)
    assert build_cfg(program).check_well_formed() == []


def test_successors_of_halt_and_ret_are_empty():
    program = assemble("HALT")
    assert successors(program, program.instructions[0]) == []


def test_empty_program_rejected():
    from repro.isa.program import Program
    with pytest.raises(ValueError):
        build_cfg(Program())


# ----------------------------------------------------------------------
# per-branch indirect-edge pruning (refined CFGs)
# ----------------------------------------------------------------------

TWO_TABLES = """
    .data table_a 0x4000 words 0x100c
    .data table_b 0x4008 words 0x1018
    MOV X1, #0x4000
    LDR X9, [X1]
    BR X9
fn_a:
    MOV X2, #0x4008
    LDR X10, [X2]
    BR X10
fn_b:
    HALT
"""


def test_unrefined_two_table_branches_cross_link():
    # Baseline over-approximation: both BRs reach both tables' targets.
    program = assemble(TWO_TABLES)
    cfg = build_cfg(program)
    fn_a = cfg.block_of_addr[program.address_of("fn_a")]
    fn_b = cfg.block_of_addr[program.address_of("fn_b")]
    for br_addr in (0x1008, 0x1014):
        succs = cfg.block_at(br_addr).successors
        assert (fn_a, "indirect") in succs
        assert (fn_b, "indirect") in succs


def test_refined_two_table_branches_do_not_cross_link():
    from repro.analysis.modular import refine_cfg

    program = assemble(TWO_TABLES)
    cfg = refine_cfg(program)
    fn_a = cfg.block_of_addr[program.address_of("fn_a")]
    fn_b = cfg.block_of_addr[program.address_of("fn_b")]
    first = cfg.block_at(0x1008).successors
    second = cfg.block_at(0x1014).successors
    assert (fn_a, "indirect") in first
    assert (fn_b, "indirect") not in first
    assert (fn_b, "indirect") in second
    assert (fn_a, "indirect") not in second


def test_unresolvable_branch_falls_back_to_over_approximation():
    from repro.analysis.modular import refine_cfg

    # X9 is never defined: its constant set is unbounded, so the refined
    # CFG must keep the full address-taken set for this branch.
    program = assemble("""
        .data fns 0x4000 words 0x1008 0x100c
        BR X9
        HALT
    fn_a:
        HALT
    fn_b:
        HALT
    """)
    cfg = refine_cfg(program)
    succs = cfg.block_at(0x1000).successors
    fn_a = cfg.block_of_addr[program.address_of("fn_a")]
    fn_b = cfg.block_of_addr[program.address_of("fn_b")]
    assert (fn_a, "indirect") in succs
    assert (fn_b, "indirect") in succs


# -- address_taken against a per-word reference scan -------------------------


def _reference_address_taken(program):
    """One check per immediate and per aligned 8-byte data word."""
    program.link()
    taken = set()
    values = [instr.imm for instr in program.instructions
              if instr.imm is not None]
    for segment in program.data_segments:
        usable = len(segment.data) - len(segment.data) % 8
        values.extend(word for (word,) in
                      struct.iter_unpack("<Q", segment.data[:usable]))
    for value in values:
        address = strip_tag(value & (2**64 - 1))
        if program.fetch(address) is not None:
            taken.add(address)
    return frozenset(taken)


@st.composite
def _programs(draw):
    count = draw(st.integers(1, 8))
    end = TEXT_BASE + count * INSTR_BYTES
    # Instruction starts, mid-instruction bytes, one past the text end,
    # below the text, MTE-keyed and arbitrary 64-bit values.
    address = st.integers(TEXT_BASE - INSTR_BYTES, end)
    value = st.one_of(
        address,
        st.builds(with_key, address, st.integers(0, 15)),
        st.integers(0, 2**64 - 1))
    # Negative immediates, some of them a sign-extended tagged pointer.
    negative = st.one_of(
        st.integers(-2**63, -1),
        st.builds(lambda a: (a | 0xFF << 56) - 2**64, address))
    immediate = st.one_of(st.none(), value, negative)
    # A ragged tail (never scanned): random bytes or a cut-off word.
    tail = st.one_of(
        st.binary(max_size=7),
        st.builds(lambda word, keep: struct.pack("<Q", word)[:keep],
                  value, st.integers(1, 7)))
    program = Program()
    for _ in range(count):
        program.add(Instruction(Opcode.MOV, rd=0, imm=draw(immediate)))
    for index in range(draw(st.integers(0, 4))):
        words = draw(st.lists(value, max_size=12))
        if draw(st.booleans()):   # a run of repeats, like a probe array
            words = words * draw(st.integers(2, 50))
        data = b"".join(struct.pack("<Q", word) for word in words)
        data += draw(tail)
        program.add_segment(DataSegment(f"seg{index}",
                                        0x10000 * (index + 1), data))
    return program


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_programs())
def test_address_taken_matches_per_word_scan(program):
    assert address_taken(program) == _reference_address_taken(program)
