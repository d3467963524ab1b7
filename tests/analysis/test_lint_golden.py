"""Golden digests of spec-lint: the identity gate for analyzer speedups.

Each case below is one program run through one taint engine, pinned to a
sha256 over everything a verdict, a report or the modular parity gate can
observe of it: the rendered gadget reports and the pass-1
:class:`~repro.analysis.taint.TaintResult` facts (loads, stores, branches,
contention, and for the whole-program engine its widening counts; the
summary engine's widenings depend on region order and stay out, as in
the ``--modular-differential`` contract).  The corpus is fixed fuzz
generator candidates, every Table-1 variant, the twelve witnesses and
edits of the modular bench fixture, each through whole-program and
``summary_backed`` analysis.  A change to ``cfg``/``taint`` that moves
one constant set or one flag fails here.

A deliberate model change regenerates the digests with

    PYTHONPATH=src python tests/analysis/test_lint_golden.py

pastes the printed table over ``GOLDEN`` and says so in CHANGES.md.
"""

import functools
import hashlib
import json

import pytest

from repro.analysis.gadgets import find_gadgets
from repro.analysis.modular import analyze_modular
from repro.analysis.modular.fixtures import bench_program
from repro.analysis.options import AnalysisOptions
from repro.analysis.taint import analyze
from repro.analysis.witness import (
    WITNESS_KINDS, secret_ranges_of, synthesize, variant_name)
from repro.attacks import REGISTRY, TABLE1_ROWS
from repro.rng import stream

#: Fuzz generator candidates drawn (distinct ``.s`` text).
FUZZ_CANDIDATES = 16
#: bench_program edits: function index -> constant delta.
BENCH_EDITS = {"base": {}, "fn3+7": {3: 7}, "fn11+500": {11: 500}}
ENGINES = ("whole", "modular")


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


def _facts(result, widenings: bool) -> dict:
    facts = {
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
    if widenings:
        facts["widenings"] = sorted([list(key), count] for key, count
                                    in result.widenings.items())
    return facts


def lint_digest(case: str, engine: str) -> str:
    program, ranges = _program(case)
    if engine == "whole":
        result = analyze(program, ranges)
        options = None
    else:
        result = analyze_modular(program, ranges)
        options = AnalysisOptions.summary_backed()
    reports = [g.render() for g in find_gadgets(program, ranges,
                                                options=options)]
    payload = {"reports": reports,
               "facts": _facts(result, widenings=engine == "whole")}
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


GOLDEN = {
    'fuzz/00 whole':
        '2052a211e409b4fd4685e93d44867310a58eaa1cc713e14f109ad6943c334a15',
    'fuzz/00 modular':
        '26103d7ff2d236b57d5b8f1453dad485c735c50104e3450528d631d52ef41d2e',
    'fuzz/01 whole':
        'cdef7fcc82e9714d1abde8ab2252bcc9d6d4c9bb1ee31bd829e90768ddc22cc6',
    'fuzz/01 modular':
        '25e151e702c3ffe1090a903797c9ce915ab45cd8f3b59a96391eab5870412fb5',
    'fuzz/02 whole':
        'fef75e0f7b4deb92ee8b260b84b178e3f2a8b7989446ae5a5c1aa8a6b7937a68',
    'fuzz/02 modular':
        'd099b134a31ac82582c52d3ddaffaa7dc69a868513e0e64341898f09ebb03ac0',
    'fuzz/03 whole':
        '61f060636c41af5deccff93595d08ffd4b33b3782389deffa9664b9e7067c21d',
    'fuzz/03 modular':
        '14d977639f3641dbb35bf43dd1a05210477a7aa97f8a51d8bcaec38fc229158a',
    'fuzz/04 whole':
        'e4fc5669bdf46c613c5a0666886fb2f3cb23af2b00f30a5add7b3e768100b83b',
    'fuzz/04 modular':
        'de1dad244ff5d262765be097a64a403f0681ce5c4f1dd6973745e74cc6381b11',
    'fuzz/05 whole':
        '4bc0bf88ffe07eeb8f8a9b6aae34b30678158728c5d57115b1e7fbbce1d8224e',
    'fuzz/05 modular':
        '2564988dd7dc103948376ce95fe589dfe4b47c2495baa4e4f1f97af466a61b41',
    'fuzz/06 whole':
        '055b96fa4023af2ed5a063a3583b3c0b2619107ca8c8b17f2b196ce52f8d06fc',
    'fuzz/06 modular':
        '2e126207d32a317679c25f063a5e7046db4877ec8498df72487cb778002ae722',
    'fuzz/07 whole':
        'eb3c76db7f3e475bf1f46ea2896421b566d9b924bbfa15f125d709eb7a5d38f0',
    'fuzz/07 modular':
        '5dedde873b02e87818aa6af20bba10ace632dbfbe2284a157fb898f2034e8b44',
    'fuzz/08 whole':
        '829ea706cff1ffc75b202af754046d97acb6e801f76493841e665cb36fe5b1aa',
    'fuzz/08 modular':
        '6c461370d845ab2d4e1b47db9628c5c81888a73cbd338851601f95acc27869a8',
    'fuzz/09 whole':
        '2052a211e409b4fd4685e93d44867310a58eaa1cc713e14f109ad6943c334a15',
    'fuzz/09 modular':
        '26103d7ff2d236b57d5b8f1453dad485c735c50104e3450528d631d52ef41d2e',
    'fuzz/10 whole':
        '877a5b49898dade867704170e44f941b76c65d919a91a2a0c23bb27d1797d740',
    'fuzz/10 modular':
        '977c9626e2c8d19b5daebe705031af59b7891e978abf47bb70edcc75fd94f896',
    'fuzz/11 whole':
        '1ffc2e8592ee4a3b9613ff8ce1babd946a15e24459a0d3e7038de80508fa8338',
    'fuzz/11 modular':
        '8331c94e34879c6d28fc7f7a38a9f4f7b4e6bdf96f8e4c4b860358814cae85ef',
    'fuzz/12 whole':
        '4ef779a6260ba9ba979a930f39e473d46325ae9d4c941ef9b5cfc13f10859502',
    'fuzz/12 modular':
        '1ba773f6cf771558262bfecdc2028e0a77bef56ef8354ac55baaf87842e59efa',
    'fuzz/13 whole':
        'ffd7c6fc4f5fc49d57fd33c98cee1df89297e593e468842d85f64a7fb6095a19',
    'fuzz/13 modular':
        '6e0bbd19f69f25867d121dc0d4072ea7fc4e5f10a0e4d4a9bba494d6e22fd069',
    'fuzz/14 whole':
        'ba17c90409ca5a285f9a44cdbd6ec6113ce81007242c6d392260f4c6e15e3e0f',
    'fuzz/14 modular':
        '291b32ebffdaa0a2e47e59a9f6318846f1372ed613ce883b76ca6b1607d2eba8',
    'fuzz/15 whole':
        '015d817e70eecc673435e09be222200feb7ce731d8c5cea404e8b1704c953de9',
    'fuzz/15 modular':
        'a2654289bd25fdcd7cf20f2ad03a5db179681bc9b1dcb4e66f5591bc0378e242',
    'table1/spectre-v1/classic whole':
        '9ed18e7f47656d789ffa11e6dd32569cae324a77b6e2cb22b382da9384411110',
    'table1/spectre-v1/classic modular':
        '96cb734f4cbdde4515d01b30f8fdcaec8a628c0b2c45351f29943c4faf511064',
    'table1/spectre-v2/mismatched-tag whole':
        '055b96fa4023af2ed5a063a3583b3c0b2619107ca8c8b17f2b196ce52f8d06fc',
    'table1/spectre-v2/mismatched-tag modular':
        '2e126207d32a317679c25f063a5e7046db4877ec8498df72487cb778002ae722',
    'table1/spectre-v2/matched-tag whole':
        '015d817e70eecc673435e09be222200feb7ce731d8c5cea404e8b1704c953de9',
    'table1/spectre-v2/matched-tag modular':
        'a2654289bd25fdcd7cf20f2ad03a5db179681bc9b1dcb4e66f5591bc0378e242',
    'table1/spectre-v5/mismatched-tag whole':
        'ffd7c6fc4f5fc49d57fd33c98cee1df89297e593e468842d85f64a7fb6095a19',
    'table1/spectre-v5/mismatched-tag modular':
        '6e0bbd19f69f25867d121dc0d4072ea7fc4e5f10a0e4d4a9bba494d6e22fd069',
    'table1/spectre-v5/matched-tag whole':
        'eb3c76db7f3e475bf1f46ea2896421b566d9b924bbfa15f125d709eb7a5d38f0',
    'table1/spectre-v5/matched-tag modular':
        '5dedde873b02e87818aa6af20bba10ace632dbfbe2284a157fb898f2034e8b44',
    'table1/spectre-v4/classic whole':
        '2f0faf1d67a7bf757b26c51dcfc8df8833a6dd6c2e8c27f50f74e3a14e879a5d',
    'table1/spectre-v4/classic modular':
        'af4cd5d091577d4a2537b44503db3e9342615306c8ae25bd5208c11645a1092a',
    'table1/spectre-bhb/mismatched-tag whole':
        '685fee7b1f9939587486d7b78031627a6fa91667dbbec4d8424e7572289565a6',
    'table1/spectre-bhb/mismatched-tag modular':
        '1211f895786935c853f576dfee96c05f919d1c4f06f1de4a80aa4854ac38289d',
    'table1/spectre-bhb/matched-tag whole':
        '2b77e37c7db378e0dcd3ec2e63b909b5288ebeb8a08594d9482db85e8edfde3e',
    'table1/spectre-bhb/matched-tag modular':
        '3f7113173762428e14ead842347381577812adda579773d838255cb6d4a0b44e',
    'table1/fallout/classic whole':
        '5ba04ef9a41840b926565dc743b5f1dec2d0412ba3364ea4cd6b57013130ba9d',
    'table1/fallout/classic modular':
        '1d9e3fc1bf4a3fa135de098bbb9c9ac49d403b994028e3006f5c29ce0f2e730c',
    'table1/ridl/classic whole':
        '17422e5354801f4825afec443cb256fa4643668b0f0124ef9b27d17005b41a1a',
    'table1/ridl/classic modular':
        '607e2afe4919681119f229fd4c1ea87596b834f44e6c2b91b5e45b6e5a3496a5',
    'table1/zombieload/classic whole':
        '96065d2e9c09b4f809e508cdf0c2b6e531d3dfca8af9e67fdbf66698a99b0697',
    'table1/zombieload/classic modular':
        'e60183a02aa170926d58906ce56f2c28306e532606c9aca43355b87398b41195',
    'table1/smotherspectre/alu-contention whole':
        'a5cba7b3ea18d66775ee91a28d1412e9c1a0cc431eef772ab21f52f262e6fc6f',
    'table1/smotherspectre/alu-contention modular':
        '0759711f1a56fa7e76d7842e99342634589b381c89219b1cfa9d26cddbe79c4c',
    'table1/smotherspectre/load-contention whole':
        '055b96fa4023af2ed5a063a3583b3c0b2619107ca8c8b17f2b196ce52f8d06fc',
    'table1/smotherspectre/load-contention modular':
        '2e126207d32a317679c25f063a5e7046db4877ec8498df72487cb778002ae722',
    'table1/smotherspectre/matched-tag whole':
        '32a2a5c34ccfe288c5908c26e191ab627d8578d54dd42b867026ef03fce5c602',
    'table1/smotherspectre/matched-tag modular':
        'c91ff2e23df75432d6cb4abece1156fa04f60d77d52772c8c54f617803a06931',
    'table1/interference/alu-contention whole':
        'e4fb3fd7980a4291775769f5548a73641f49533f2f3b027e5bd18c3ddcafca2f',
    'table1/interference/alu-contention modular':
        'ffaba69d3c0eb3ea00c45f63dc2e801bc8f114ee4bc9ab4f03fea4bda0fa468e',
    'table1/interference/load-contention whole':
        '055b96fa4023af2ed5a063a3583b3c0b2619107ca8c8b17f2b196ce52f8d06fc',
    'table1/interference/load-contention modular':
        '2e126207d32a317679c25f063a5e7046db4877ec8498df72487cb778002ae722',
    'table1/interference/matched-tag whole':
        '78ff057742ecc775e3afc6856239c315973efc466cae28d8d877cd31d43bf60f',
    'table1/interference/matched-tag modular':
        'b249ded6a44bc95dfc4e751f75a01f2f76a77cd53edd9ee5523a5cbf9d9d514b',
    'table1/rewind/alu-contention whole':
        'd8d5c4696372c295670773f33dcc95f1371e9046aba887a841ebdf5c3a233d9a',
    'table1/rewind/alu-contention modular':
        '9553665f3ae2995005b26aa04b3e4f34d45841ce5900a6d0856f367f52d44cd3',
    'table1/rewind/load-contention whole':
        '055b96fa4023af2ed5a063a3583b3c0b2619107ca8c8b17f2b196ce52f8d06fc',
    'table1/rewind/load-contention modular':
        '2e126207d32a317679c25f063a5e7046db4877ec8498df72487cb778002ae722',
    'table1/rewind/matched-tag whole':
        'a83e5085c73f27f757ab35edb353f670a2db29790a806c858ac652a7c02cc78b',
    'table1/rewind/matched-tag modular':
        '170bf7f17fda6acfecc6994e9e9295a12cff9aa9583ad3cb6974d7defae78c55',
    'witness/pht/cross-key whole':
        '34d4e71b1b9aa08e8bf1a2b07d73c358c4dcf126f9a3e002d2898dc76390f5dc',
    'witness/pht/cross-key modular':
        'a7748917cc474de5cea32bcd724b3873cd360fbd19843f71af752838d8bb3cfe',
    'witness/pht/same-key whole':
        'a7d1283ba9000f9e6d964946ba6312f54a3fc85031e78e757f16889af94ab346',
    'witness/pht/same-key modular':
        'fefae7455f05765bfbfcc39a340bbf7211c589622d2b5a1a9864854457a306d6',
    'witness/btb/cross-key whole':
        '055b96fa4023af2ed5a063a3583b3c0b2619107ca8c8b17f2b196ce52f8d06fc',
    'witness/btb/cross-key modular':
        '2e126207d32a317679c25f063a5e7046db4877ec8498df72487cb778002ae722',
    'witness/btb/same-key whole':
        '015d817e70eecc673435e09be222200feb7ce731d8c5cea404e8b1704c953de9',
    'witness/btb/same-key modular':
        'a2654289bd25fdcd7cf20f2ad03a5db179681bc9b1dcb4e66f5591bc0378e242',
    'witness/rsb/cross-key whole':
        'ffd7c6fc4f5fc49d57fd33c98cee1df89297e593e468842d85f64a7fb6095a19',
    'witness/rsb/cross-key modular':
        '6e0bbd19f69f25867d121dc0d4072ea7fc4e5f10a0e4d4a9bba494d6e22fd069',
    'witness/rsb/same-key whole':
        'eb3c76db7f3e475bf1f46ea2896421b566d9b924bbfa15f125d709eb7a5d38f0',
    'witness/rsb/same-key modular':
        '5dedde873b02e87818aa6af20bba10ace632dbfbe2284a157fb898f2034e8b44',
    'witness/stl/tagged whole':
        '2f0faf1d67a7bf757b26c51dcfc8df8833a6dd6c2e8c27f50f74e3a14e879a5d',
    'witness/stl/tagged modular':
        'af4cd5d091577d4a2537b44503db3e9342615306c8ae25bd5208c11645a1092a',
    'witness/stl/untagged whole':
        'a34cee9db6fbf863042311d07eaee3ac6a82ed454b3402ecafb6a5ac9e6ee9a6',
    'witness/stl/untagged modular':
        '2c4df8bebc79793fb4230d0ed15ab0f777d92ee7128c340dacbac8d08fe61f05',
    'witness/sbb/cross-key whole':
        '5ba04ef9a41840b926565dc743b5f1dec2d0412ba3364ea4cd6b57013130ba9d',
    'witness/sbb/cross-key modular':
        '1d9e3fc1bf4a3fa135de098bbb9c9ac49d403b994028e3006f5c29ce0f2e730c',
    'witness/sbb/same-key whole':
        '50d6cc906fc5084d8f4cb0b5f2d97261687c407a9dfa7970cd71ceab1f29e547',
    'witness/sbb/same-key modular':
        '270510c9b09a48a12faa99866a902794f046c98acfcc94e5b573d284bfb3c726',
    'witness/lfb/cross-key whole':
        '17422e5354801f4825afec443cb256fa4643668b0f0124ef9b27d17005b41a1a',
    'witness/lfb/cross-key modular':
        '607e2afe4919681119f229fd4c1ea87596b834f44e6c2b91b5e45b6e5a3496a5',
    'witness/lfb/same-key whole':
        '48208c6fdf72f40c167b6ead13c9fbd2a7b2ba8f7765ad6b8ba2599ad67230b7',
    'witness/lfb/same-key modular':
        '83a64efffba9ad2a3f42f88697924499d9ce8bf88e766371d0cb33dbd2174cbb',
    'bench/base whole':
        '1e17ec4d8c044608e1e80ba0f653c28636bead5aaf58145ba144c6ae0740a7ae',
    'bench/base modular':
        '689baedfeacfcd71fcbacdccb25e948b9f345aa0917d7cb8a0144b06a54766ff',
    'bench/fn3+7 whole':
        '1e17ec4d8c044608e1e80ba0f653c28636bead5aaf58145ba144c6ae0740a7ae',
    'bench/fn3+7 modular':
        '689baedfeacfcd71fcbacdccb25e948b9f345aa0917d7cb8a0144b06a54766ff',
    'bench/fn11+500 whole':
        '1e17ec4d8c044608e1e80ba0f653c28636bead5aaf58145ba144c6ae0740a7ae',
    'bench/fn11+500 modular':
        '689baedfeacfcd71fcbacdccb25e948b9f345aa0917d7cb8a0144b06a54766ff',
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", CASES)
def test_lint_digest(case, engine):
    assert lint_digest(case, engine) == GOLDEN[f"{case} {engine}"]


if __name__ == "__main__":
    for case in CASES:
        for engine in ENGINES:
            print(f"    {case + ' ' + engine!r}:\n        "
                  f"{lint_digest(case, engine)!r},")
