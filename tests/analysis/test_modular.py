"""Summary-based modular analysis: a cache-backed run answers as a run
without a cache, and a warm cache replays a cold run."""

import os

import pytest

from repro.analysis.gadgets import find_gadgets, leaks_under
from repro.analysis.modular import SummaryCache, modular_analysis
from repro.analysis.options import AnalysisOptions
from repro.analysis.witness import secret_ranges_of, synthesize_all
from repro.config import DefenseKind


def _uncached(program, secret_ranges):
    return [g.render() for g in find_gadgets(program, secret_ranges)]


def _modular(program, secret_ranges, options):
    run = modular_analysis(program, secret_ranges, options=options)
    return [g.render() for g in
            find_gadgets(program, secret_ranges, taint=run.result,
                         options=options)]


@pytest.mark.parametrize("witness", synthesize_all(),
                         ids=lambda w: w.subject)
def test_witness_reports_byte_identical(witness):
    program = witness.attack.builder_program
    secret_ranges = list(secret_ranges_of(witness.attack))
    options = AnalysisOptions.summary_backed(cache=SummaryCache())
    assert _modular(program, secret_ranges, options) == \
        _uncached(program, secret_ranges)


def test_verdicts_byte_identical_on_a_residual_witness():
    witness = synthesize_all()[1]
    program = witness.attack.builder_program
    secret_ranges = list(secret_ranges_of(witness.attack))
    options = AnalysisOptions.summary_backed(cache=SummaryCache())
    run = modular_analysis(program, secret_ranges, options=options)
    cached = find_gadgets(program, secret_ranges, taint=run.result,
                          options=options)
    uncached = find_gadgets(program, secret_ranges)
    for defense in DefenseKind:
        assert [leaks_under(g, defense) for g in cached] == \
            [leaks_under(g, defense) for g in uncached]


def test_warm_cache_replay_is_all_hits_and_identical(tmp_path):
    witness = synthesize_all()[0]
    program = witness.attack.builder_program
    secret_ranges = list(secret_ranges_of(witness.attack))
    path = os.path.join(tmp_path, "summaries.jsonl")

    cold_cache = SummaryCache(path)
    cold = _modular(program, secret_ranges,
                    AnalysisOptions.summary_backed(cache=cold_cache))
    assert cold_cache.misses > 0
    cold_cache.flush()

    warm_cache = SummaryCache(path)
    warm = _modular(program, secret_ranges,
                    AnalysisOptions.summary_backed(cache=warm_cache))
    assert warm == cold
    assert warm_cache.misses == 0
    assert warm_cache.hits == cold_cache.misses + cold_cache.hits
