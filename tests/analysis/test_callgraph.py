"""Call-graph construction: partition, edges, SCC condensation."""

from repro.analysis.cfg import build_cfg
from repro.analysis.modular import build_callgraph, entry_addresses
from repro.analysis.modular.callgraph import _tarjan
from repro.isa import assemble


def _graph(source):
    program = assemble(source)
    return program, build_callgraph(program)


def test_bl_targets_partition_into_functions():
    program, cg = _graph("""
        BL helper
        HALT
    helper:
        MOV X0, #1
        RET
    """)
    names = {fn.name for fn in cg.functions.values()}
    assert names == {"helper", f"fn_{program.entry_address:#x}"}
    helper = cg.function_named("helper")
    assert helper.entry == program.address_of("helper")
    assert helper.has_ret


def test_every_bl_has_a_call_edge():
    program, cg = _graph("""
        BL one
        BL two
        HALT
    one:
        RET
    two:
        BL one
        RET
    """)
    main = cg.function_at(program.entry_address)
    one = program.address_of("one")
    two = program.address_of("two")
    assert set(cg.edges[main.entry]) == {one, two}
    assert set(cg.edges[two]) == {one}


def test_mutual_recursion_is_one_scc():
    program, cg = _graph("""
        BL f
        HALT
    f:
        BL g
        RET
    g:
        BL f
        RET
    """)
    f = program.address_of("f")
    g = program.address_of("g")
    assert cg.component_of[f] == cg.component_of[g]
    # main sits in its own trivial component.
    assert cg.component_of[program.entry_address] != cg.component_of[f]


def test_scc_condensation_is_acyclic():
    program, cg = _graph("""
        BL f
        HALT
    f:
        BL g
        RET
    g:
        BL f
        BL leaf
        RET
    leaf:
        RET
    """)
    seen = set()
    for component in cg.sccs:
        for entry in component:
            for callee in cg.edges.get(entry, ()):
                target = cg.component_of[callee]
                if target != cg.component_of[entry]:
                    # Callee components come earlier (bottom-up order).
                    assert target in seen
        seen.add(cg.component_of[component[0]])


def test_entry_addresses_cover_entry_bl_and_address_taken():
    program = assemble("""
        .data fns 0x4000 words 0x100c
        BL callee
        HALT
    callee:
        RET
    fnptr:
        HALT
    """)
    entries = entry_addresses(program, build_cfg(program))
    assert program.entry_address in entries
    assert program.address_of("callee") in entries
    assert program.address_of("fnptr") in entries   # address-taken


def test_shared_tail_merges_entries_conservatively():
    # Both entries fall into the same tail region: one function, two
    # declared entries, so the partition stays a partition.
    program, cg = _graph("""
        BL a
        BL b
        HALT
    a:
        MOV X0, #1
        B tail
    b:
        MOV X0, #2
    tail:
        RET
    """)
    a = program.address_of("a")
    b = program.address_of("b")
    assert cg.function_at(a) is cg.function_at(b)
    assert set(cg.function_at(a).entries) == {a, b}


def test_tarjan_handles_self_loop_and_chain():
    sccs = _tarjan([1, 2, 3], {1: [2], 2: [2, 3], 3: []})
    assert [list(c) for c in sccs] == [[3], [2], [1]]
