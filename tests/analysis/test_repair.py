"""Automatic repair: counterexample-guided fix selection and verification."""

from dataclasses import replace

import pytest

from repro.analysis import repair
from repro.analysis.gadgets import leaks_under
from repro.analysis.repair import (
    FIX_ORDER,
    FixKind,
    GadgetId,
    measure_overhead,
    overhead_registry,
    plan,
)
from repro.analysis.windows import EntryKind, Window
from repro.analysis.witness import (
    WITNESS_KINDS,
    secret_ranges_of,
    synthesize,
    variant_name,
)
from repro.attacks.common import run_attack_program
from repro.config import DefenseKind
from repro.errors import AnalysisError
from repro.isa import assemble

SECRET = [(0x4100, 0x4110)]

# The same-key (TikTag residual) Spectre-v1 shape from test_gadgets: the
# pointer's key matches the secret's lock, so SpecASan misses it statically.
V1_SAME_KEY = """
    .data arr 0x4000 tag=5 bytes 1 1 1 1
    .data sec 0x4100 tag=5 bytes 11
    .data idx 0x6000 words 0x100
    .data probe 0x100000 zero 4096
    .data cell 0x200000 words 4
    MOV X2, #{base:#x}
    MOV X3, #0x100000
    MOV X6, #0x6000
    LDR X0, [X6]
    MOV X15, #0x200000
    LDR X1, [X15]
    CMP X0, X1
    B.HS skip
    LDRB X5, [X2, X0]
    LSL X6, X5, #12
    ADD X7, X3, X6
    LDRB X8, [X7]
skip:
    HALT
""".format(base=(0x5 << 56) | 0x4000)


@pytest.fixture(scope="module")
def residuals():
    return {kind: synthesize(kind, residual=True) for kind in WITNESS_KINDS}


@pytest.fixture(scope="module")
def repairs(residuals):
    return {kind: plan(witness.attack.builder_program,
                       secret_ranges_of(witness.attack))
            for kind, witness in residuals.items()}


@pytest.mark.parametrize("kind", WITNESS_KINDS, ids=lambda k: k.value)
def test_every_residual_witness_repairs_under_specasan(repairs, kind):
    result = repairs[kind]
    assert result.leaking_before            # there was something to fix
    assert result.fixes                     # a fix was applied
    assert result.verified                  # and the static verdict flipped
    assert result.leaking_after == []


@pytest.mark.parametrize("kind", WITNESS_KINDS, ids=lambda k: k.value)
def test_fixes_only_target_leaking_gadgets(repairs, kind):
    # "Never repair already-sanitized": every fixed gadget leaked.
    result = repairs[kind]
    assert all(leaks_under(fix.gadget, result.defense)
               for fix in result.fixes)


@pytest.mark.parametrize("kind", (EntryKind.SBB, EntryKind.LFB),
                         ids=lambda k: k.value)
def test_mds_gadgets_repair_by_retag_only(repairs, kind):
    # Bound-to-commit leaks have no window to cut and no index to mask.
    assert [fix.kind for fix in repairs[kind].fixes] == [FixKind.RETAG]


def test_pht_residual_takes_the_cheapest_fix(repairs):
    # RETAG costs zero instructions and suffices for the same-key shape.
    assert repairs[EntryKind.PHT].fixes[0].kind is FixKind.RETAG
    assert repairs[EntryKind.PHT].fixes[0].inserted == ()


def test_barrier_fix_inserts_an_instruction(repairs):
    result = repairs[EntryKind.BTB]
    barrier_fixes = [f for f in result.fixes if f.kind is FixKind.BARRIER]
    assert barrier_fixes and all(f.inserted for f in barrier_fixes)
    assert (len(result.repaired.instructions)
            > len(result.original.instructions))


def test_repaired_pht_witness_no_longer_leaks_dynamically(residuals, repairs):
    witness = residuals[EntryKind.PHT]
    before = run_attack_program(witness.attack, DefenseKind.SPECASAN)
    assert before.leaked                    # the counterexample is real
    repaired = replace(witness.attack,
                       builder_program=repairs[EntryKind.PHT].repaired)
    after = run_attack_program(repaired, DefenseKind.SPECASAN)
    assert not after.leaked                 # and the repair kills it


def test_sanitized_witness_needs_no_fix():
    witness = synthesize(EntryKind.PHT, residual=False)
    assert variant_name(EntryKind.PHT, False) == witness.variant
    result = plan(witness.attack.builder_program,
                  secret_ranges_of(witness.attack))
    assert result.fixes == [] and result.verified
    assert result.repaired is witness.attack.builder_program


def test_mds_without_tag_checks_has_no_sufficient_fix(residuals):
    witness = residuals[EntryKind.SBB]
    with pytest.raises(AnalysisError, match="no sufficient fix"):
        plan(witness.attack.builder_program,
             secret_ranges_of(witness.attack), defense=DefenseKind.FENCE)


def test_handwritten_same_key_v1_repairs_by_retag():
    result = plan(assemble(V1_SAME_KEY), SECRET)
    assert result.verified
    assert [fix.kind for fix in result.fixes] == [FixKind.RETAG]
    assert "retag sec" in result.fixes[0].detail
    # The secret granule moved to a fresh lock, so the same-key OOB access
    # became a cross-allocation mismatch; the array stays where it was.
    arr = next(s for s in result.repaired.data_segments if s.name == "arr")
    sec = next(s for s in result.repaired.data_segments if s.name == "sec")
    assert sec.tag != 5 and arr.tag == 5


def test_render_names_fix_and_verdict(repairs):
    text = repairs[EntryKind.PHT].render()
    assert "[retag]" in text and "all gadgets sanitized" in text


def test_fix_order_is_cheapest_first():
    assert FIX_ORDER == (FixKind.RETAG, FixKind.MASK, FixKind.BARRIER)


def test_no_barrier_cut_when_a_transmitter_lies_past_a_barrier():
    # A window body that runs past an SB (as under the drop-sb-cut drill)
    # holds a transmitter the entry cannot reach: no single cut point.
    program = assemble("""
        CMP X2, #16
        LDRB X4, [X3, X2]
        SB
        LDRB X5, [X5, X4]
        HALT
    """)
    program.link()
    body = tuple(i.address for i in program.instructions[:4])
    entry, first, _, past = body
    window = Window(kind=EntryKind.PHT, source=entry, entry=entry,
                    body=body)
    assert repair._window_cut_point(program, window, [first]) == first
    assert repair._window_cut_point(program, window, [first, past]) is None


def test_gadget_id_roundtrips_through_identity():
    gid = GadgetId("pht", 0x1000, 0x1010)
    assert gid == GadgetId("pht", 0x1000, 0x1010)
    assert gid != GadgetId("btb", 0x1000, 0x1010)


class TestOverhead:
    def test_registry_shape_and_values(self):
        registry = overhead_registry(
            "pht-same-key", 1000,
            [("retag @ 0x1000", 1000), ("barrier @ 0x1010", 1250)])
        get = lambda name: registry.get(name).value  # noqa: E731
        assert get("repair.pht-same-key.baseline_cycles") == 1000
        assert get("repair.pht-same-key.fix1.delta_cycles") == 0
        assert get("repair.pht-same-key.fix2.delta_cycles") == 250
        assert get("repair.pht-same-key.fix2.overhead") == pytest.approx(0.25)
        assert get("repair.pht-same-key.repaired_cycles") == 1250
        assert get("repair.pht-same-key.overhead") == pytest.approx(0.25)

    def test_no_fixes_means_no_repaired_cycles(self):
        registry = overhead_registry("clean", 500, [])
        assert "repair.clean.baseline_cycles" in registry
        assert "repair.clean.repaired_cycles" not in registry

    def test_measure_overhead_runs_every_stage(self, repairs):
        result = repairs[EntryKind.PHT]
        registry = measure_overhead(result, subject="pht/same-key")
        assert registry.get("repair.pht-same-key.baseline_cycles").value > 0
        for index in range(1, len(result.fixes) + 1):
            assert f"repair.pht-same-key.fix{index}.cycles" in registry
        table = registry.render("repair overhead")
        assert "baseline_cycles" in table

    def test_run_cycles_counts_under_defense(self, residuals):
        cycles = repair._run_cycles(
            residuals[EntryKind.PHT].attack.builder_program,
            DefenseKind.SPECASAN)
        assert cycles > 0
