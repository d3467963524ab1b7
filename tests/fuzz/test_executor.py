"""Executor: config round-trip and validation, a tiny agreeing run,
determinism (also of the findings), and a run under an injected analyzer
defect."""

from dataclasses import replace

import pytest

from repro.config import DefenseKind
from repro.errors import FuzzError
from repro.fuzz.__main__ import main
from repro.fuzz.executor import FuzzConfig, FuzzExecutor, static_verdict
from repro.fuzz.generator import build, CandidateSpec, SectionSpec
from repro.analysis.gadgets import find_gadgets
from repro.telemetry.registry import StatsRegistry

TINY = FuzzConfig(seed=0x51, budget=6, sim_every=3, warmup=2,
                  repair_budget=1)


def test_config_dict_round_trip():
    config = FuzzConfig(seed=7, budget=12,
                        defenses=(DefenseKind.SPECASAN,),
                        inject=("drop-sb-cut",))
    assert FuzzConfig.from_dict(config.to_dict()) == config


def test_config_rejects_sim_every_zero_and_a_negative_budget(tmp_path):
    with pytest.raises(FuzzError, match="sim_every"):
        FuzzConfig(sim_every=0)
    with pytest.raises(FuzzError, match="budget"):
        FuzzConfig(budget=-3)
    # A harness error, not a finding (exit 1) or a ZeroDivisionError.
    assert main(["--run", "--sim-every", "0", "--budget", "60",
                 "--out", str(tmp_path / "run")]) == 2


def test_static_verdict_filters_by_channel():
    candidate = build(CandidateSpec(
        sections=(SectionSpec(template="pht", residual=True),)))
    gadgets = find_gadgets(candidate.attack.builder_program,
                           candidate.secret_ranges)
    assert static_verdict(gadgets, "cache", DefenseKind.NONE)
    # A cache-only probe gadget cannot serve a contention oracle.
    assert not static_verdict(gadgets, "contention", DefenseKind.NONE)


def test_tiny_run_agrees_and_grows_coverage():
    result = FuzzExecutor(TINY, StatsRegistry()).run()
    assert result.executed == TINY.budget
    assert result.build_errors == 0
    assert result.disagreements == []
    assert result.coverage.frontier > 0
    assert result.admitted  # the first candidates always light features


def test_same_seed_runs_are_identical():
    run_a = FuzzExecutor(TINY, StatsRegistry()).run()
    run_b = FuzzExecutor(TINY, StatsRegistry()).run()
    assert run_a.admitted == run_b.admitted
    assert run_a.coverage.to_dict() == run_b.coverage.to_dict()
    assert run_a.simulated == run_b.simulated


def test_same_seed_runs_find_the_same_disagreements():
    # A clean analyzer finds nothing, so inject a defect that yields a
    # finding; a small minimizer budget keeps the two runs cheap.
    config = replace(TINY, budget=10, minimize_evals=5,
                     inject=("drop-contention-transmitter",))
    run_a = FuzzExecutor(config, StatsRegistry()).run()
    run_b = FuzzExecutor(config, StatsRegistry()).run()
    assert run_a.disagreements
    assert run_a.disagreements == run_b.disagreements
    assert run_a.coverage.to_dict() == run_b.coverage.to_dict()


def test_different_seeds_draw_different_streams():
    other = FuzzConfig(seed=0x52, budget=6, sim_every=3, warmup=2,
                       repair_budget=1)
    run_a = FuzzExecutor(TINY, StatsRegistry()).run()
    run_b = FuzzExecutor(other, StatsRegistry()).run()
    assert run_a.admitted != run_b.admitted


def test_a_run_under_an_injected_defect_completes():
    # Under drop-sb-cut a window body runs past an SB, so the repair
    # audit meets transmitters that share no dominator for a barrier cut.
    config = FuzzConfig(budget=10, inject=("drop-sb-cut",))
    result = FuzzExecutor(config).run()
    assert result.executed == config.budget
    assert result.repair_audits > 0
