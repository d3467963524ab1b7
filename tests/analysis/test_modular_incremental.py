"""Incremental re-linting: cache durability, one-function edits."""

import json
import os

from repro import store
from repro.analysis.gadgets import find_gadgets
from repro.analysis.modular import (
    SUMMARY_SCHEMA,
    SummaryCache,
    modular_analysis,
)
from repro.analysis.modular import incremental
from repro.analysis.modular.fixtures import bench_program
from repro.analysis.options import AnalysisOptions
from repro.analysis.taint import analyze
from repro.isa.assembler import assemble


def _lint(program, secret_ranges, cache):
    options = AnalysisOptions.summary_backed(cache=cache)
    run = modular_analysis(program, secret_ranges, options=options)
    gadgets = find_gadgets(program, secret_ranges, taint=run.result,
                           options=options)
    return run, [g.render() for g in gadgets]


# ----------------------------------------------------------------------
# SummaryCache durability
# ----------------------------------------------------------------------

def test_cache_round_trips_through_disk(tmp_path):
    path = os.path.join(tmp_path, "summaries.jsonl")
    cache = SummaryCache(path)
    cache.put("k1", {"payload": 1})
    cache.put("k2", {"payload": 2})
    cache.flush()
    reloaded = SummaryCache(path)
    assert len(reloaded) == 2
    assert reloaded.get("k1") == {"payload": 1}
    assert reloaded.hits == 1 and reloaded.misses == 0
    assert reloaded.get("nope") is None
    assert reloaded.misses == 1


def test_cache_skips_corrupt_lines_without_failing(tmp_path):
    path = os.path.join(tmp_path, "summaries.jsonl")
    cache = SummaryCache(path)
    cache.put("good", {"payload": "ok"})
    cache.flush()
    with open(path, encoding="utf-8") as handle:
        good_line = handle.read()
    tampered = json.loads(good_line)
    tampered["key"] = "evil"            # checksum no longer matches
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("this is not json\n")
        handle.write(json.dumps({"schema": "wrong/9", "key": "x",
                                 "payload": {}, "sha256": "0"}) + "\n")
        handle.write(json.dumps(tampered) + "\n")
        handle.write(good_line)
    survivor = SummaryCache(path)
    assert len(survivor) == 1
    assert survivor.get("good") == {"payload": "ok"}
    assert survivor.rejected == 3       # bad json + bad schema + checksum


def test_cache_missing_file_is_empty_not_an_error(tmp_path):
    cache = SummaryCache(os.path.join(tmp_path, "absent.jsonl"))
    assert len(cache) == 0


def test_schema_is_versioned():
    assert SUMMARY_SCHEMA == "repro-summary/2"


#: Two segments share a name; the second load must read its own words
#: (7, 8, 9), which puts ``0x5000 + X5`` on the secret inside the window.
TWO_TBL = """
    .data tbl 0x10000 words 1 2 3
    .data tbl 0x20000 words 7 8 9
    LDR X3, [X9]
    MOV X1, #0x10000
    LDR X2, [X1, X3]
    MOV X4, #0x20000
    LDR X5, [X4, X3]
    CMP X3, #16
    B.HS done
    MOV X6, #0x5000
    LDRB X7, [X6, X5]
    LSL X7, X7, #6
    MOV X8, #0x6000
    LDRB X8, [X8, X7]
done:
    HALT
"""
TWO_TBL_SECRET = [(0x5008, 0x5009)]


def _second_load(program, cache):
    options = AnalysisOptions.summary_backed(cache=cache)
    run = modular_analysis(program, TWO_TBL_SECRET, options=options)
    return run.result.loads[0x1010].result.consts


def test_summaries_from_an_older_analyzer_are_stale(tmp_path, monkeypatch):
    program = assemble(TWO_TBL)
    path = str(tmp_path / "summaries.jsonl")
    with monkeypatch.context() as old:
        old.setattr(incremental, "SUMMARY_SCHEMA", "repro-summary/1")
        # Before segment summaries were keyed by address, both loads read
        # the first tbl's words: the facts of the program whose second
        # tbl holds 1 2 3, under this program's key.
        keyed = SummaryCache(str(tmp_path / "keyed.jsonl"))
        _second_load(program, keyed)
        stand_in = SummaryCache(str(tmp_path / "stand_in.jsonl"))
        _second_load(assemble(TWO_TBL.replace("7 8 9", "1 2 3")), stand_in)
        keyed.flush()
        stand_in.flush()
        [mine], _ = store.load_records(keyed.path, "repro-summary/1")
        [stale], _ = store.load_records(stand_in.path, "repro-summary/1")
        store.write_records(path, [dict(stale, key=mine["key"])])
        control = SummaryCache(path)
        assert _second_load(program, control) == (1, 2, 3)
        assert (control.hits, control.misses) == (1, 0)
    fresh = SummaryCache(path)
    assert (len(fresh), fresh.rejected) == (0, 1)
    assert _second_load(program, fresh) == (7, 8, 9)
    assert fresh.hits == 0


# ----------------------------------------------------------------------
# one cache file per analysis environment
# ----------------------------------------------------------------------

def test_for_program_names_the_environment_file(tmp_path):
    program, secret_ranges = bench_program(functions=2)
    cache = SummaryCache.for_program(str(tmp_path), program, secret_ranges)
    env = incremental.environment_fingerprint(program, secret_ranges)
    assert cache.path == os.path.join(str(tmp_path), f"{env}.jsonl")
    # A code edit keeps the environment; other secret ranges do not.
    edited, _ = bench_program(functions=2, edits={1: 7})
    assert SummaryCache.for_program(
        str(tmp_path), edited, secret_ranges).path == cache.path
    assert SummaryCache.for_program(
        str(tmp_path), program, [(0, 8)]).path != cache.path


def test_caches_of_two_environments_keep_both_records(tmp_path):
    directory = str(tmp_path)
    program, secret_ranges = bench_program(functions=2)
    other_ranges = [(0x40000, 0x40008)]
    first = SummaryCache.for_program(directory, program, secret_ranges)
    second = SummaryCache.for_program(directory, program, other_ranges)
    _lint(program, secret_ranges, first)
    _lint(program, other_ranges, second)
    first.flush()
    second.flush()      # must not drop what ``first`` just wrote

    for ranges, cold in ((secret_ranges, first), (other_ranges, second)):
        warm = SummaryCache.for_program(directory, program, ranges)
        assert len(warm) == len(cold)
        _lint(program, ranges, warm)
        assert warm.misses == 0
        assert warm.hits == cold.hits + cold.misses


def test_overlapping_runs_of_one_environment_keep_both_records(tmp_path):
    directory = str(tmp_path)
    first_program, ranges = bench_program(functions=2, edits={0: 5})
    second_program, _ = bench_program(functions=2, edits={1: 7})
    # Both open the environment's file before either flushes.
    first = SummaryCache.for_program(directory, first_program, ranges)
    second = SummaryCache.for_program(directory, second_program, ranges)
    assert first.path == second.path
    _lint(first_program, ranges, first)
    _lint(second_program, ranges, second)
    union = SummaryCache()
    _lint(first_program, ranges, union)
    _lint(second_program, ranges, union)
    assert (len(first), len(second), len(union)) == (10, 10, 12)
    first.flush()
    second.flush()      # must keep the records ``first`` just wrote
    assert len(SummaryCache(first.path)) == len(union)


# ----------------------------------------------------------------------
# warm incremental re-lint on the bench fixture
# ----------------------------------------------------------------------

def test_one_function_edit_reanalyzes_only_that_function(tmp_path):
    path = os.path.join(tmp_path, "summaries.jsonl")
    program, secret_ranges = bench_program()
    cold_cache = SummaryCache(path)
    _lint(program, secret_ranges, cold_cache)
    cold_cache.flush()

    edited, edited_ranges = bench_program(edits={3: 7})
    warm_cache = SummaryCache(path)
    run, warm_report = _lint(edited, edited_ranges, warm_cache)
    assert sorted(run.reanalyzed) == ["fn3"]
    assert warm_cache.misses == 1
    assert warm_cache.hits > 0

    # The warm verdicts are byte-identical to linting the edit cold.
    whole = [g.render() for g in
             find_gadgets(edited, edited_ranges,
                          taint=analyze(edited, edited_ranges))]
    assert warm_report == whole


def test_edit_is_address_stable():
    program, _ = bench_program()
    edited, _ = bench_program(edits={3: 7})
    assert len(program.instructions) == len(edited.instructions)
    assert [i.address for i in program.instructions] == \
        [i.address for i in edited.instructions]
    differing = [a.address for a, b in zip(program.instructions,
                                           edited.instructions) if a != b]
    assert len(differing) == 1
