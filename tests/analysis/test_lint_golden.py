"""Golden digests of spec-lint: the identity gate for analyzer changes.

Each case below is one program, pinned to a sha256 over everything a
verdict or a report can observe of it: the rendered gadget reports and
the pass-1 :class:`~repro.analysis.taint.TaintResult` facts (loads,
stores, branches, contention).  Widening counts stay out: they depend on
the engine's region order and are diagnostics only
(``test_widening_report.py`` checks them).  The corpus is fixed fuzz
generator candidates, every Table-1 variant, the twelve witnesses and
edits of the modular bench fixture, each linted with no summary cache.
A change to ``cfg``/``taint`` that moves one constant set or one flag
fails here.

The second gate lints the 20 Table-1 variants (every verdict of the 66
Table-1 cells derives from their gadgets), the twelve witnesses and the
drill-corpus candidates with no cache and through one summary cache
shared by all of them, and the corpus candidates once more with the fuzz
executor's label boundaries: a cache is a memo and boundaries only
split the partition, so neither may change a report or a verdict.

A deliberate model change regenerates the digests with

    PYTHONPATH=src python tests/analysis/test_lint_golden.py

pastes the printed table over ``GOLDEN`` and says so in CHANGES.md.
"""

import functools
import hashlib
import json
import os

import pytest

from repro.analysis.gadgets import find_gadgets, leaks_under
from repro.analysis.modular import SummaryCache
from repro.analysis.modular.fixtures import bench_boundaries, bench_program
from repro.analysis.options import AnalysisOptions
from repro.analysis.taint import analyze
from repro.analysis.witness import (
    WITNESS_KINDS, secret_ranges_of, synthesize, variant_name)
from repro.attacks import REGISTRY, TABLE1_ROWS
from repro.config import DefenseKind
from repro.rng import stream

#: Fuzz generator candidates drawn (distinct ``.s`` text).
FUZZ_CANDIDATES = 16
#: bench_program edits: function index -> constant delta.
BENCH_EDITS = {"base": {}, "fn3+7": {3: 7}, "fn11+500": {11: 500}}
#: The fuzz tests' committed drill run.
DRILL_CORPUS = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                            "fuzz", "data", "drill-corpus")


@functools.lru_cache(maxsize=None)
def _fuzz_sources():
    """The fixed candidates, as ``.s`` text plus secret ranges."""
    from repro.fuzz.generator import build, sample_spec
    rng = stream(0, "lint-golden")
    out, texts = [], set()
    while len(out) < FUZZ_CANDIDATES:
        candidate = build(sample_spec(rng))
        if candidate.source_text not in texts:
            texts.add(candidate.source_text)
            out.append((candidate.source_text,
                        [tuple(r) for r in candidate.secret_ranges]))
    return out


def _program(case: str):
    """A fresh build of ``case``: (program, secret ranges)."""
    suite, _, name = case.partition("/")
    if suite == "fuzz":
        from repro.isa import assemble
        source, ranges = _fuzz_sources()[int(name)]
        return assemble(source), ranges
    if suite == "table1":
        attack, _, variant = name.partition("/")
        builder = dict(REGISTRY[attack])[variant]
        poc = builder()
        return poc.builder_program, [
            (poc.secret_address, poc.secret_address + poc.secret_size)]
    if suite == "witness":
        kind, _, variant = name.partition("/")
        for entry in WITNESS_KINDS:
            for residual in (False, True):
                if (entry.value, variant_name(entry, residual)) \
                        == (kind, variant):
                    attack = synthesize(entry, residual).attack
                    return attack.builder_program, secret_ranges_of(attack)
    if suite == "bench":
        return bench_program(edits=BENCH_EDITS[name])
    raise KeyError(case)


CASES = ([f"fuzz/{k:02d}" for k in range(FUZZ_CANDIDATES)]
         + [f"table1/{attack}/{variant}" for attack in TABLE1_ROWS
            for variant, _ in REGISTRY[attack]]
         + [f"witness/{kind.value}/{variant_name(kind, residual)}"
            for kind in WITNESS_KINDS for residual in (False, True)]
         + [f"bench/{name}" for name in BENCH_EDITS])


def _value(value):
    if value is None:
        return None
    return [list(value.consts) if value.consts is not None else None,
            value.attacker, value.secret, value.loaded, value.stale]


def _facts(result) -> dict:
    return {
        "loads": [[addr, _value(f.address), _value(f.result), f.width,
                   f.resolved, [list(a) for a in f.secret_accesses],
                   f.line_crossing]
                  for addr, f in sorted(result.loads.items())],
        "stores": [[addr, _value(f.address), _value(f.data), f.width,
                    list(f.pointers)]
                   for addr, f in sorted(result.stores.items())],
        "branches": [[addr, _value(f.condition), _value(f.target)]
                     for addr, f in sorted(result.branches.items())],
        "contention": [[addr, _value(value)]
                       for addr, value in sorted(result.contention.items())],
    }


def lint_digest(case: str) -> str:
    program, ranges = _program(case)
    reports = [g.render() for g in find_gadgets(program, ranges)]
    payload = {"reports": reports, "facts": _facts(analyze(program, ranges))}
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


GOLDEN = {
    'fuzz/00':
        '26103d7ff2d236b57d5b8f1453dad485c735c50104e3450528d631d52ef41d2e',
    'fuzz/01':
        '25e151e702c3ffe1090a903797c9ce915ab45cd8f3b59a96391eab5870412fb5',
    'fuzz/02':
        'd099b134a31ac82582c52d3ddaffaa7dc69a868513e0e64341898f09ebb03ac0',
    'fuzz/03':
        '14d977639f3641dbb35bf43dd1a05210477a7aa97f8a51d8bcaec38fc229158a',
    'fuzz/04':
        'de1dad244ff5d262765be097a64a403f0681ce5c4f1dd6973745e74cc6381b11',
    'fuzz/05':
        '2564988dd7dc103948376ce95fe589dfe4b47c2495baa4e4f1f97af466a61b41',
    'fuzz/06':
        '2e126207d32a317679c25f063a5e7046db4877ec8498df72487cb778002ae722',
    'fuzz/07':
        '5dedde873b02e87818aa6af20bba10ace632dbfbe2284a157fb898f2034e8b44',
    'fuzz/08':
        '6c461370d845ab2d4e1b47db9628c5c81888a73cbd338851601f95acc27869a8',
    'fuzz/09':
        '26103d7ff2d236b57d5b8f1453dad485c735c50104e3450528d631d52ef41d2e',
    'fuzz/10':
        '977c9626e2c8d19b5daebe705031af59b7891e978abf47bb70edcc75fd94f896',
    'fuzz/11':
        '8331c94e34879c6d28fc7f7a38a9f4f7b4e6bdf96f8e4c4b860358814cae85ef',
    'fuzz/12':
        '1ba773f6cf771558262bfecdc2028e0a77bef56ef8354ac55baaf87842e59efa',
    'fuzz/13':
        '6e0bbd19f69f25867d121dc0d4072ea7fc4e5f10a0e4d4a9bba494d6e22fd069',
    'fuzz/14':
        '291b32ebffdaa0a2e47e59a9f6318846f1372ed613ce883b76ca6b1607d2eba8',
    'fuzz/15':
        'a2654289bd25fdcd7cf20f2ad03a5db179681bc9b1dcb4e66f5591bc0378e242',
    'table1/spectre-v1/classic':
        '96cb734f4cbdde4515d01b30f8fdcaec8a628c0b2c45351f29943c4faf511064',
    'table1/spectre-v2/mismatched-tag':
        '2e126207d32a317679c25f063a5e7046db4877ec8498df72487cb778002ae722',
    'table1/spectre-v2/matched-tag':
        'a2654289bd25fdcd7cf20f2ad03a5db179681bc9b1dcb4e66f5591bc0378e242',
    'table1/spectre-v5/mismatched-tag':
        '6e0bbd19f69f25867d121dc0d4072ea7fc4e5f10a0e4d4a9bba494d6e22fd069',
    'table1/spectre-v5/matched-tag':
        '5dedde873b02e87818aa6af20bba10ace632dbfbe2284a157fb898f2034e8b44',
    'table1/spectre-v4/classic':
        'af4cd5d091577d4a2537b44503db3e9342615306c8ae25bd5208c11645a1092a',
    'table1/spectre-bhb/mismatched-tag':
        '1211f895786935c853f576dfee96c05f919d1c4f06f1de4a80aa4854ac38289d',
    'table1/spectre-bhb/matched-tag':
        '3f7113173762428e14ead842347381577812adda579773d838255cb6d4a0b44e',
    'table1/fallout/classic':
        '1d9e3fc1bf4a3fa135de098bbb9c9ac49d403b994028e3006f5c29ce0f2e730c',
    'table1/ridl/classic':
        '607e2afe4919681119f229fd4c1ea87596b834f44e6c2b91b5e45b6e5a3496a5',
    'table1/zombieload/classic':
        'e60183a02aa170926d58906ce56f2c28306e532606c9aca43355b87398b41195',
    'table1/smotherspectre/alu-contention':
        '0759711f1a56fa7e76d7842e99342634589b381c89219b1cfa9d26cddbe79c4c',
    'table1/smotherspectre/load-contention':
        '2e126207d32a317679c25f063a5e7046db4877ec8498df72487cb778002ae722',
    'table1/smotherspectre/matched-tag':
        'c91ff2e23df75432d6cb4abece1156fa04f60d77d52772c8c54f617803a06931',
    'table1/interference/alu-contention':
        'ffaba69d3c0eb3ea00c45f63dc2e801bc8f114ee4bc9ab4f03fea4bda0fa468e',
    'table1/interference/load-contention':
        '2e126207d32a317679c25f063a5e7046db4877ec8498df72487cb778002ae722',
    'table1/interference/matched-tag':
        'b249ded6a44bc95dfc4e751f75a01f2f76a77cd53edd9ee5523a5cbf9d9d514b',
    'table1/rewind/alu-contention':
        '9553665f3ae2995005b26aa04b3e4f34d45841ce5900a6d0856f367f52d44cd3',
    'table1/rewind/load-contention':
        '2e126207d32a317679c25f063a5e7046db4877ec8498df72487cb778002ae722',
    'table1/rewind/matched-tag':
        '170bf7f17fda6acfecc6994e9e9295a12cff9aa9583ad3cb6974d7defae78c55',
    'witness/pht/cross-key':
        'a7748917cc474de5cea32bcd724b3873cd360fbd19843f71af752838d8bb3cfe',
    'witness/pht/same-key':
        'fefae7455f05765bfbfcc39a340bbf7211c589622d2b5a1a9864854457a306d6',
    'witness/btb/cross-key':
        '2e126207d32a317679c25f063a5e7046db4877ec8498df72487cb778002ae722',
    'witness/btb/same-key':
        'a2654289bd25fdcd7cf20f2ad03a5db179681bc9b1dcb4e66f5591bc0378e242',
    'witness/rsb/cross-key':
        '6e0bbd19f69f25867d121dc0d4072ea7fc4e5f10a0e4d4a9bba494d6e22fd069',
    'witness/rsb/same-key':
        '5dedde873b02e87818aa6af20bba10ace632dbfbe2284a157fb898f2034e8b44',
    'witness/stl/tagged':
        'af4cd5d091577d4a2537b44503db3e9342615306c8ae25bd5208c11645a1092a',
    'witness/stl/untagged':
        '2c4df8bebc79793fb4230d0ed15ab0f777d92ee7128c340dacbac8d08fe61f05',
    'witness/sbb/cross-key':
        '1d9e3fc1bf4a3fa135de098bbb9c9ac49d403b994028e3006f5c29ce0f2e730c',
    'witness/sbb/same-key':
        '270510c9b09a48a12faa99866a902794f046c98acfcc94e5b573d284bfb3c726',
    'witness/lfb/cross-key':
        '607e2afe4919681119f229fd4c1ea87596b834f44e6c2b91b5e45b6e5a3496a5',
    'witness/lfb/same-key':
        '83a64efffba9ad2a3f42f88697924499d9ce8bf88e766371d0cb33dbd2174cbb',
    'bench/base':
        '689baedfeacfcd71fcbacdccb25e948b9f345aa0917d7cb8a0144b06a54766ff',
    'bench/fn3+7':
        '689baedfeacfcd71fcbacdccb25e948b9f345aa0917d7cb8a0144b06a54766ff',
    'bench/fn11+500':
        '689baedfeacfcd71fcbacdccb25e948b9f345aa0917d7cb8a0144b06a54766ff',
}


@pytest.mark.parametrize("case", CASES)
def test_lint_digest(case):
    assert lint_digest(case) == GOLDEN[case]


def _drill_candidates():
    """(label, program, secret ranges) of the drill corpus candidates."""
    from repro.fuzz.corpus import load_run
    from repro.fuzz.generator import build
    for index, spec in enumerate(load_run(DRILL_CORPUS).specs):
        candidate = build(spec)
        yield (f"corpus/{index}", candidate.attack.builder_program,
               list(candidate.secret_ranges))


def _answer(program, ranges, options=None):
    """Rendered reports plus every gadget's verdict under every defense."""
    gadgets = find_gadgets(program, ranges, options=options)
    return ([g.render() for g in gadgets],
            {defense: [leaks_under(g, defense) for g in gadgets]
             for defense in DefenseKind})


def test_a_shared_summary_cache_changes_no_answer():
    shared = SummaryCache()
    linted = {"table1": 0, "witness": 0, "corpus": 0}
    subjects = [(case,) + tuple(_program(case)) for case in CASES
                if case.startswith(("table1/", "witness/"))]
    for label, program, ranges in subjects + list(_drill_candidates()):
        suite = label.partition("/")[0]
        cold = _answer(program, ranges)
        assert _answer(program, ranges,
                       AnalysisOptions(cache=shared)) == cold, label
        if suite == "corpus":
            labels = tuple(bench_boundaries(program))
            split = AnalysisOptions(cache=shared, boundaries=labels)
            assert _answer(program, ranges, split) == cold, label
        linted[suite] += 1
    assert linted == {"table1": 20, "witness": 12, "corpus": 4}
    assert shared.hits > 0


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}:\n        {lint_digest(case)!r},")
