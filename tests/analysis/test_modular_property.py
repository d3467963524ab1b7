"""Property tests: call-graph well-formedness and summary-cache parity.

Generative coverage over the same program spaces the repo already owns:
SPEC/PARSEC workload generation (realistic call-heavy programs) and the
fuzzer's candidate spec space (adversarial gadget compositions).  Three
invariants:

- every direct ``BL`` in the text owns a call edge in the call graph;
- the SCC condensation is acyclic in bottom-up order;
- ``find_gadgets`` through a summary cache shared across every example is
  byte-identical to a run with no cache.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.analysis.gadgets import find_gadgets  # noqa: E402
from repro.analysis.modular import (  # noqa: E402
    SummaryCache,
    build_callgraph,
)
from repro.analysis.options import AnalysisOptions  # noqa: E402
from repro.fuzz.generator import (  # noqa: E402
    build,
    CandidateSpec,
    normalize,
    SectionSpec,
    SINGLETONS,
    SPLICEABLE,
)
from repro.isa.instructions import Opcode  # noqa: E402
from repro.workloads import PARSEC_BY_NAME, SPEC_BY_NAME  # noqa: E402
from repro.workloads.generator import generate  # noqa: E402

WORKLOADS = st.tuples(
    st.sampled_from(sorted(SPEC_BY_NAME) + sorted(PARSEC_BY_NAME)),
    st.integers(min_value=0, max_value=3))

FUZZ_SPECS = st.sampled_from(SPLICEABLE + SINGLETONS).flatmap(
    lambda template: st.builds(
        lambda **kw: CandidateSpec(sections=(
            normalize(SectionSpec(template=template, **kw)),)),
        residual=st.booleans(),
        barrier=st.booleans()))


def _check_callgraph(program):
    callgraph = build_callgraph(program)
    # 1. Every BL has a call edge from its containing function.
    for instr in program.instructions:
        if instr.op is Opcode.BL:
            function = callgraph.function_at(instr.address)
            assert function is not None
            assert instr.address in {site for site, _ in
                                     function.call_sites}
            callee = callgraph.function_at(instr.target_addr)
            assert callee is not None
            assert callee.entry in callgraph.edges[function.entry]
    # 2. The condensation is acyclic: callee components strictly precede
    #    caller components in the bottom-up order.
    position = {}
    for index, component in enumerate(callgraph.sccs):
        for entry in component:
            position[callgraph.component_of[entry]] = index
    for entry, callees in callgraph.edges.items():
        for callee in callees:
            a = callgraph.component_of[entry]
            b = callgraph.component_of[callee]
            if a != b:
                assert position[b] < position[a]


#: One cache for every example: a record computed for one program must
#: never change another program's answer.
SHARED = AnalysisOptions(cache=SummaryCache())


def _check_parity(program, secret_ranges):
    cold = [g.render() for g in find_gadgets(program, secret_ranges)]
    shared = [g.render() for g in
              find_gadgets(program, secret_ranges, options=SHARED)]
    assert shared == cold


@settings(max_examples=10, deadline=None, derandomize=True)
@given(workload=WORKLOADS)
def test_workload_callgraph_well_formed_and_parity(workload):
    name, seed = workload
    profile = (SPEC_BY_NAME[name] if name in SPEC_BY_NAME
               else PARSEC_BY_NAME[name].profile)
    generated = generate(profile, seed=seed, target_instructions=200)
    _check_callgraph(generated.program)
    # Workload programs carry no planted secret; parity must hold anyway.
    _check_parity(generated.program, [])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(spec=FUZZ_SPECS)
def test_fuzz_candidate_callgraph_well_formed_and_parity(spec):
    candidate = build(spec)
    program = candidate.attack.builder_program
    _check_callgraph(program)
    _check_parity(program, list(candidate.secret_ranges))
