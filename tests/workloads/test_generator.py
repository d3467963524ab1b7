"""Workload generation: determinism, structure, and runnability."""

import pytest

from repro import build_system, CORTEX_A76, DefenseKind
from repro.checkpoint import program_fingerprint
from repro.workloads import SPEC_BY_NAME, WorkloadProfile, build_parsec
from repro.workloads.generator import generate


@pytest.fixture(scope="module")
def profile():
    return WorkloadProfile("testload", working_set=32 * 1024,
                           branch_entropy=0.1, pointer_chase=0.2,
                           call_fraction=0.08, indirect_fraction=0.5)


class TestDeterminism:
    def test_same_seed_same_program(self, profile):
        first = generate(profile, seed=3, target_instructions=1500)
        second = generate(profile, seed=3, target_instructions=1500)
        assert ([i.render() for i in first.program.instructions]
                == [i.render() for i in second.program.instructions])
        assert first.iterations == second.iterations

    def test_different_seed_different_body(self, profile):
        first = generate(profile, seed=1, target_instructions=1500)
        second = generate(profile, seed=2, target_instructions=1500)
        assert ([i.render() for i in first.program.instructions]
                != [i.render() for i in second.program.instructions])


class TestPinnedPrograms:
    """Generated programs are pinned byte for byte (instructions and data
    segments): every simulated result, golden digest and checkpoint
    fingerprint depends on them, so a faster generator must draw the same
    random numbers in the same order and lay out the same words."""

    @pytest.mark.parametrize("name,fingerprint", [
        ("505.mcf_r", "ef4e14f58ffc9290"),
        ("520.omnetpp_r", "b25d286b3bae08a3"),
    ])
    def test_spec_program(self, name, fingerprint):
        workload = generate(SPEC_BY_NAME[name], seed=0,
                            target_instructions=10_000,
                            mte_instrumented=True)
        assert program_fingerprint(workload.program) == fingerprint

    def test_parsec_thread(self):
        # The second thread: its own heap base and the shared region, in
        # the plain and the MTE-instrumented build.
        thread = build_parsec("canneal", num_threads=2, seed=1,
                              target_instructions=400)[1]
        assert program_fingerprint(thread.program) == "5a25eeb6a153e8f1"
        tagged = build_parsec("canneal", num_threads=2, seed=1,
                              target_instructions=400,
                              mte_instrumented=True)[1]
        assert program_fingerprint(tagged.program) == "9983dd172c627f25"


class TestStructure:
    def test_iterations_scale_with_target(self, profile):
        small = generate(profile, target_instructions=1000)
        big = generate(profile, target_instructions=4000)
        assert big.iterations > small.iterations

    def test_indirect_targets_have_landing_pads(self, profile):
        workload = generate(profile, target_instructions=1500)
        program = workload.program
        import struct
        table = program.segment("functable")
        for offset in range(0, table.size, 8):
            target = struct.unpack_from("<Q", table.data, offset)[0]
            assert program.fetch(target).op.value == "BTI"

    def test_chase_chain_is_a_cycle_of_tagged_pointers(self, profile):
        import struct
        from repro.mte.tags import key_of, strip_tag
        workload = generate(profile, target_instructions=1500)
        chase = workload.program.segment("chase")
        start = chase.address
        seen = set()
        cursor = start
        for _ in range(chase.size // 8):
            offset = cursor - start
            pointer = struct.unpack_from("<Q", chase.data, offset)[0]
            assert key_of(pointer) == chase.tag
            cursor = strip_tag(pointer)
            assert chase.address <= cursor < chase.address + chase.size
            assert cursor not in seen  # a single cycle, no early repeats
            seen.add(cursor)

    def test_instrumented_build_matches_plain_work(self, profile):
        plain = generate(profile, target_instructions=1500)
        tagged = generate(profile, target_instructions=1500,
                          mte_instrumented=True)
        assert tagged.iterations == plain.iterations
        ops_plain = [i.op.value for i in plain.program.instructions]
        ops_tagged = [i.op.value for i in tagged.program.instructions]
        assert "IRG" in ops_tagged and "STG" in ops_tagged
        assert "IRG" not in ops_plain
        # The plain body is a subsequence of the instrumented one.
        iterator = iter(ops_tagged)
        assert all(op in iterator for op in ops_plain)


class TestRunnability:
    @pytest.mark.parametrize("defense", [
        DefenseKind.NONE, DefenseKind.FENCE, DefenseKind.SPECASAN])
    def test_runs_to_completion_without_faults(self, profile, defense):
        workload = generate(profile, target_instructions=1200,
                            mte_instrumented=defense.uses_specasan)
        result = build_system(CORTEX_A76.with_defense(defense)).run(
            workload.program, max_cycles=5_000_000)
        assert result.halted
        assert result.fault is None
        assert result.instructions > 500

    def test_shared_region_traffic(self):
        shared_profile = WorkloadProfile("sharer", working_set=32 * 1024)
        workload = generate(shared_profile, target_instructions=1200,
                            shared_base=0xA00000, shared_size=16 * 1024,
                            shared_fraction=0.5, shared_store_fraction=0.3)
        renders = [i.note for i in workload.program.instructions]
        assert any("shared-region" in note for note in renders)
        result = build_system(CORTEX_A76).run(workload.program,
                                              max_cycles=5_000_000)
        assert result.halted and result.fault is None
