"""Taint/constant dataflow: values, loads, secrets, delayed branches."""

from hypothesis import given, settings, strategies as st

from repro.analysis.cfg import build_cfg
from repro.analysis.taint import Value, _Context, analyze, const_value
from repro.isa import assemble
from repro.isa.program import DataSegment

SECRET = [(0x4100, 0x4110)]


def test_value_join_bounds_constants():
    a = const_value(*range(10))
    b = const_value(*range(8, 20))
    assert a.join(b).consts is None  # 20 members > CONST_CAP
    assert a.join(const_value(3)).consts == a.consts


def test_constants_fold_through_alu():
    program = assemble("""
        MOV X0, #6
        ADD X1, X0, #4
        LSL X2, X1, #2
        HALT
    """)
    result = analyze(program)
    # No loads/branches, but the state is observable via a store fact.
    program2 = assemble("""
        MOV X0, #6
        ADD X1, X0, #4
        LSL X2, X1, #2
        STR X2, [X1]
        HALT
    """)
    result = analyze(program2)
    store = result.stores[0x100C]
    assert store.data.consts == (40,)
    assert store.pointers == (10,)


def test_load_resolves_initial_data_exactly():
    program = assemble("""
        .data tbl 0x4000 words 7 9
        MOV X1, #0x4000
        LDR X0, [X1, #8]
        STR X0, [X1]
        HALT
    """)
    result = analyze(program)
    load = result.loads[0x1004]
    assert load.resolved and load.result.consts == (9,)
    assert load.result.attacker and load.result.loaded


def test_unknown_offset_load_summarizes_segment():
    program = assemble("""
        .data tbl 0x4000 words 1 2 3
        MOV X1, #0x4000
        LDR X9, [X2]
        LDR X0, [X1, X9]
        HALT
    """)
    result = analyze(program)
    load = result.loads[0x1008]
    assert not load.resolved
    assert load.result.consts == (1, 2, 3)


def test_same_named_segments_summarize_their_own_words():
    # The assembler checks segments for overlap, not for unique names, so
    # the per-segment summary must not be shared by name.
    program = assemble("""
        .data tbl 0x10000 words 1 2 3
        .data tbl 0x20000 words 7 8 9
        LDR X3, [X9]
        MOV X1, #0x10000
        LDR X2, [X1, X3]
        MOV X4, #0x20000
        LDR X5, [X4, X3]
        HALT
    """)
    result = analyze(program)
    assert result.loads[0x1008].result.consts == (1, 2, 3)
    assert result.loads[0x1010].result.consts == (7, 8, 9)


def test_transient_out_of_segment_offset_still_summarizes():
    # A loop counter sweeps past the table end mid-fixpoint; the final
    # result must still be the segment summary, not bottomed-out unknown.
    program = assemble("""
        .data tbl 0x4000 words 5 6 7 8
        MOV X1, #0x4000
        MOV X2, #0
    loop:
        LSL X3, X2, #3
        LDR X0, [X1, X3]
        ADD X2, X2, #1
        CMP X2, #4
        B.LO loop
        STR X0, [X1]
        HALT
    """)
    result = analyze(program)
    store = result.stores[0x101C]
    assert store.data.consts == (5, 6, 7, 8)


def test_secret_range_load_sets_secret_and_access():
    tagged = (0x2 << 56) | 0x4100
    program = assemble(f"""
        .data arr 0x4100 tag=5 bytes 11 0 0 0 0 0 0 0
        MOV X1, #{tagged:#x}
        LDRB X0, [X1]
        HALT
    """)
    result = analyze(program, SECRET)
    load = result.loads[0x1004]
    assert load.result.secret
    assert load.secret_accesses == ((tagged, 0x2, 5),)


def test_secret_taint_propagates_to_dependent_address():
    program = assemble("""
        .data sec 0x4100 tag=5 bytes 11
        MOV X1, #0x4100
        LDRB X0, [X1]
        LSL X6, X0, #12
        ADD X7, X1, X6
        LDRB X8, [X7]
        HALT
    """)
    result = analyze(program, SECRET)
    assert result.loads[0x1010].address.secret


def test_absorbing_zero_drops_taint():
    program = assemble("""
        .data sec 0x4100 tag=5 bytes 11
        MOV X1, #0x4100
        LDRB X0, [X1]
        AND X2, X0, XZR
        STR X2, [X1]
        HALT
    """)
    result = analyze(program, SECRET)
    store = result.stores[0x100C]
    assert store.data.consts == (0,)
    assert not store.data.secret and not store.data.loaded


def test_delayed_branch_detection():
    program = assemble("""
        .data cell 0x4000 words 1
        MOV X1, #0x4000
        LDR X0, [X1]
        CMP X0, #4
        B.LO somewhere
    somewhere:
        CMP X1, #4
        B.LO done
    done:
        HALT
    """)
    result = analyze(program)
    assert result.branches[0x100C].delayed       # compares a loaded value
    assert not result.branches[0x1014].delayed   # compares a constant


def test_cbnz_on_loaded_register_is_delayed():
    program = assemble("""
        .data cell 0x4000 words 1
        MOV X1, #0x4000
        LDR X0, [X1]
        CBNZ X0, done
    done:
        HALT
    """)
    assert analyze(program).branches[0x1008].delayed


def test_contention_facts_record_mul_operands():
    program = assemble("""
        .data sec 0x4100 tag=5 bytes 11
        MOV X1, #0x4100
        LDRB X0, [X1]
        MUL X2, X0, X0
        HALT
    """)
    result = analyze(program, SECRET)
    assert result.contention[0x1008].secret


def test_store_with_loaded_address_flagged():
    program = assemble("""
        .data ptr 0x4000 words 0x5000
        MOV X1, #0x4000
        LDR X2, [X1]
        STR X0, [X2]
        HALT
    """)
    result = analyze(program)
    assert result.stores[0x1008].address.loaded


def test_interprocedural_flow_through_call_and_return():
    program = assemble("""
        MOV X0, #3
        BL fn
        STR X1, [X0]
        HALT
    fn:
        ADD X1, X0, #2
        RET
    """)
    result = analyze(program)
    assert result.stores[0x1008].data.consts == (5,)


def test_stale_loads_mark_results():
    program = assemble("""
        .data t 0x4000 words 1
        MOV X1, #0x4000
        LDR X0, [X1]
        LSL X2, X0, #2
        STR X2, [X1]
        HALT
    """)
    result = analyze(program, stale_loads={0x1004})
    assert result.loads[0x1004].result.stale
    assert result.stores[0x100C].data.stale


def test_repr_is_compact():
    assert repr(Value()) == "Value(?)"
    assert "0x4" in repr(const_value(4))


# -- the segment index against the linear scan it replaced -------------------


def _linear_segment_at(program, address, width):
    for seg in program.data_segments:
        if seg.address <= address and address + width <= seg.end:
            return seg
    return None


def _context(program):
    return _Context(program, build_cfg(program), (), frozenset())


def test_segment_index_skips_an_empty_segment_at_the_same_start():
    # add_segment lets an empty segment share a start with a full one (they
    # share no byte); a bisect over every start would land on the empty one.
    program = assemble("HALT")
    full = program.add_segment(DataSegment("full", 0x4000, bytes(16)))
    program.add_segment(DataSegment("empty", 0x4000))
    program.add_segment(DataSegment("after", 0x4010))
    ctx = _context(program)
    assert ctx.segment_at(0x4000, 8) is full
    assert ctx.segment_at(0x400F) is full
    assert ctx.segment_at(0x4010) is None


@st.composite
def _segment_layouts(draw):
    """Non-overlapping segments (empty ones included, some sharing a start
    with the next) added in any order, plus the addresses to look up."""
    spans, cursor = [], 0x4000
    for _ in range(draw(st.integers(0, 6))):
        cursor += draw(st.sampled_from([0, 0, 1, 8, 24]))
        size = draw(st.sampled_from([0, 0, 1, 7, 8, 16, 24]))
        spans.append((cursor, size))
        cursor += size
    program = assemble("HALT")
    for index, (start, size) in enumerate(draw(st.permutations(spans))):
        program.add_segment(DataSegment(f"s{index}", start, bytes(size)))
    probes = [0x3FFF, cursor, cursor + 1]
    for start, size in spans:
        probes += [start - 1, start, start + 1, start + size - 8,
                   start + size - 1, start + size]
    probes += draw(st.lists(st.integers(0x3FF0, cursor + 16), max_size=8))
    return program, probes


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_segment_layouts())
def test_segment_index_matches_linear_scan(layout):
    program, probes = layout
    ctx = _context(program)
    for address in probes:
        for width in (1, 8, 16):
            assert ctx.segment_at(address, width) \
                is _linear_segment_at(program, address, width)
