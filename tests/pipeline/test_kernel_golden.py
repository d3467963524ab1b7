"""Golden digests of the cycle-level kernel: the identity gate for speedups.

Each run below is pinned to one sha256 over everything a figure, an oracle
or a checkpoint can observe of it: the sorted-key stats-registry dump, the
attack oracle's leak log, the final architectural registers and the fault.
The checkpoint restore tests compare the kernel with itself; this file
compares it with the reference kernel the digests were taken from, so a
"speedup" that moves one counter by one fails here.

A deliberate model change regenerates the digests with

    PYTHONPATH=src python tests/pipeline/test_kernel_golden.py

pastes the printed table over ``GOLDEN`` and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from repro.config import CORTEX_A76, DefenseKind
from repro.system import build_system
from repro.workloads import SPEC_BY_NAME, build_parsec
from repro.workloads import generator

SEED = 3
INSTRUCTIONS = 1500
SPEC_PROFILES = ("505.mcf_r", "520.omnetpp_r", "531.deepsjeng_r",
                 "511.povray_r", "523.xalancbmk_r")
MULTICORE_DEFENSES = (DefenseKind.NONE, DefenseKind.SPECASAN,
                      DefenseKind.GHOSTMINION, DefenseKind.STT)
#: PARSEC workloads pinned on four cores, as Figure 7 runs them.
PARSEC_WORKLOADS = ("blackscholes", "canneal", "ferret", "fluidanimate")


def _fault(fault):
    if fault is None:
        return None
    return [fault.address, fault.key, fault.lock, fault.pc]


def _digest(dump: dict, cores) -> str:
    payload = {"stats": dump,
               "cores": [{"leak_log": core.leak_log, "arf": core.arf,
                          "fault": _fault(core.fault)} for core in cores]}
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def single_core_digest(profile: str, defense: DefenseKind, mte: bool) -> str:
    program = generator.generate(
        SPEC_BY_NAME[profile], seed=SEED, target_instructions=INSTRUCTIONS,
        mte_instrumented=mte).program
    system = build_system(CORTEX_A76.with_defense(defense))
    system.prepare(program).run()
    return _digest(system.stats_registry().dump(), [system.core])


def multicore_digest(defense: DefenseKind, workload: str = "canneal",
                     threads: int = 2) -> str:
    programs = [w.program for w in build_parsec(
        workload, seed=SEED, num_threads=threads,
        target_instructions=INSTRUCTIONS)]
    system = build_system(CORTEX_A76.with_defense(defense)
                          .with_cores(threads))
    system.prepare(programs)
    system.run_prepared()
    return _digest(system.stats_registry().dump(), system.cores)


def _single_id(profile: str, defense: DefenseKind, mte: bool) -> str:
    return f"{profile}/{defense.value}/{'mte' if mte else 'plain'}"


SINGLE_CASES = [(p, d, m) for p in SPEC_PROFILES for d in DefenseKind
                for m in (True, False)]
MULTICORE_CASES = ([(d, "canneal", 2) for d in MULTICORE_DEFENSES]
                   + [(d, w, 4) for w in PARSEC_WORKLOADS
                      for d in MULTICORE_DEFENSES])
FOUR_CORE_CASES = [(w, d) for w in PARSEC_WORKLOADS
                   for d in MULTICORE_DEFENSES]


def _multicore_id(defense: DefenseKind, workload: str, threads: int) -> str:
    return f"{workload} x{threads}/{defense.value}"


GOLDEN = {
    '505.mcf_r/none/mte':
        'a83365c28f2ae1704305a44d6187a41b8fbd06f0419431b9400cc42350bf89b6',
    '505.mcf_r/none/plain':
        '38c8a03e468e87ba00f39ae1a22e3298769dfa7a7072e6b76c3eff0a098f1c32',
    '505.mcf_r/fence/mte':
        '77cbb3ad5b897bed26c452a2e177cc122b65981187c8aff27512429d40792b75',
    '505.mcf_r/fence/plain':
        '583f2c803bd54d05d619754eef8433f12db34d61c8b0bc7f32a670e84d5c5b73',
    '505.mcf_r/stt/mte':
        '81fa6ffdac7a58137789e237e81049cfa9dc00b4a218d0526f71d485e5d582cc',
    '505.mcf_r/stt/plain':
        '85649f534d2134f51a4ca66ebcaeb21cb501fa01d7a2ea43481a3cccfbaa8882',
    '505.mcf_r/ghostminion/mte':
        '4e53d26b2703be50999d461bb28997312176d3dbdd719291e60ea3e88fb17c0b',
    '505.mcf_r/ghostminion/plain':
        '79277f2035878e2c940c27fd17e2e5dc1967611eb5b0ccb5886da12860175e29',
    '505.mcf_r/speccfi/mte':
        '4414262f9ec1c39b08e17b68a2f22696dc39649f2190456b8edf494df6814860',
    '505.mcf_r/speccfi/plain':
        '38c8a03e468e87ba00f39ae1a22e3298769dfa7a7072e6b76c3eff0a098f1c32',
    '505.mcf_r/specasan/mte':
        '54922a99bb6a3c0836c7b68374eaf7c146d32fb5677677c6ab599fdb0a165c4e',
    '505.mcf_r/specasan/plain':
        '7ffd86a38594c5b007b579afc80f182635129c65c66c9322529fcbe58622a117',
    '505.mcf_r/specasan+cfi/mte':
        '3753ab2f5c5c6014bd5ca7673df98ff8c4e0ac2243735097b8711707f0b3e5ce',
    '505.mcf_r/specasan+cfi/plain':
        '7ffd86a38594c5b007b579afc80f182635129c65c66c9322529fcbe58622a117',
    '520.omnetpp_r/none/mte':
        '3ca564bd83855245bc3c569bb510bff5f48e17b0ed52cd934f12203fdb188e2c',
    '520.omnetpp_r/none/plain':
        '3c07979631399531bf4accb92752dd8fceb420995507824b0d46c59da94f2f0c',
    '520.omnetpp_r/fence/mte':
        '0dcb25bc56c2c0073f36b816a41fbbc27da92d5a419a646869c5b04790d5afd2',
    '520.omnetpp_r/fence/plain':
        '694b2a92101b20b8e55ef6f0c8b9a60859de0bbd20c76ee377c3adb8ef5625ee',
    '520.omnetpp_r/stt/mte':
        'b9850134ae40084d48530ebe2ccb27851beaacf3de491352808adb02d5068aa1',
    '520.omnetpp_r/stt/plain':
        '9eec0353a353be5ee957bd7274c95cbe5efc391be5aaa5b5f047bbb52992a8c0',
    '520.omnetpp_r/ghostminion/mte':
        '404ea2b87804298203d68820ee78dd2204253833f7144c4f13bbe4863c15de99',
    '520.omnetpp_r/ghostminion/plain':
        '230de4fbde1f2be5e74d5a4336c568dc1014d5b17f74c68f5ca041d38cecf397',
    '520.omnetpp_r/speccfi/mte':
        '93520f592e700b457a014d24a7b057dfd775f024f2992f2b98ad5b43c0c1a14d',
    '520.omnetpp_r/speccfi/plain':
        '9a953bc0cecee96dca8c4f8ffbd86092b2eec0ab7440fe370284ad949384a4a8',
    '520.omnetpp_r/specasan/mte':
        'ca2fc2f29c1dbabe53d221537d2cfbbb976acb8ac2aefe0814a58e79ec8b2494',
    '520.omnetpp_r/specasan/plain':
        '6f6e5ee70162c5c8f4ea309081e4e60435c87ae331ab71da0cbe0509addbef96',
    '520.omnetpp_r/specasan+cfi/mte':
        '240464d1387cf24fa35ce775906b03a8eb77d3d5d91141ef676b1d90227eac55',
    '520.omnetpp_r/specasan+cfi/plain':
        '5925e64a59ab67e05edc3f8e21c680b82636fb723c5ded3d3ac4a0c615aa9689',
    '531.deepsjeng_r/none/mte':
        'e34cf4bd6856b2ae492cb6dcf3e18e87a6fbb50dcaa60c39ab01fd79a9de81cb',
    '531.deepsjeng_r/none/plain':
        '61c7c8da0fea012d30f4ea3368fea38a31c838fcdb1950525dc8462fe1da38a8',
    '531.deepsjeng_r/fence/mte':
        '6c36f02bef213c27b4d581d5eec4734f183b9cdc2ae5f88629e145cfcd32223e',
    '531.deepsjeng_r/fence/plain':
        'd6ae1998a674837b0142d03ee9210164310206d23d1b7ebf8da615ff1bc45d20',
    '531.deepsjeng_r/stt/mte':
        'cedd32cc5f3e9b30e988d9b26919e957c56a4ea08356736598bb972e03ce73f2',
    '531.deepsjeng_r/stt/plain':
        '62654971f1b0bd75920512281e9b895c8b5b9aa819cd74aabcfadb7583e0ce78',
    '531.deepsjeng_r/ghostminion/mte':
        '56148f92a0067ea9b9795db5bf13cbe30fa9a36a7b6487be1ec112663f910023',
    '531.deepsjeng_r/ghostminion/plain':
        'fe8520bb5c60c0b7e78a1a564d90022fccdc21cdc1d70bb4a65d1ac92861320e',
    '531.deepsjeng_r/speccfi/mte':
        'e34cf4bd6856b2ae492cb6dcf3e18e87a6fbb50dcaa60c39ab01fd79a9de81cb',
    '531.deepsjeng_r/speccfi/plain':
        '61c7c8da0fea012d30f4ea3368fea38a31c838fcdb1950525dc8462fe1da38a8',
    '531.deepsjeng_r/specasan/mte':
        'dc698ccad332e3f614ca176cd05c915297d16a012f8739c909b1c218494c78d2',
    '531.deepsjeng_r/specasan/plain':
        '41c22d5c4123c54c3262d7dd01e4ea69a9b7ba9fea7c8610b45a01e4274eda81',
    '531.deepsjeng_r/specasan+cfi/mte':
        'dc698ccad332e3f614ca176cd05c915297d16a012f8739c909b1c218494c78d2',
    '531.deepsjeng_r/specasan+cfi/plain':
        '41c22d5c4123c54c3262d7dd01e4ea69a9b7ba9fea7c8610b45a01e4274eda81',
    '511.povray_r/none/mte':
        '42d640b89554313d1b8e4a0e75586ed0526982efda213b49021267fce85f648a',
    '511.povray_r/none/plain':
        'eb571fe29a0db96842ed48bdd09b130d8c9ac58b69109158f1a544943dd2bbe6',
    '511.povray_r/fence/mte':
        '6dff4bb9c70a99d17719ea76d914b1240a0229aa2b30a3c49adc5d196d4771ff',
    '511.povray_r/fence/plain':
        'b02ed0818d1ba17b778f1d9a4882baa96e20d947fcc19d7a230f154806dc187e',
    '511.povray_r/stt/mte':
        'bff3922cf78f866f2ee658cc2db5bbed93c8726af5196762b68899fc174f833b',
    '511.povray_r/stt/plain':
        '63d6c05e9d532913b5d5f9563c15229ebbb6dd0956de29f152dbbe974418ded1',
    '511.povray_r/ghostminion/mte':
        '561f34b1268a73a1440809310f7245726d88b6029fbe50048e1c6cfee0f14c80',
    '511.povray_r/ghostminion/plain':
        'a0f767d5e468ed6a422d1711b854cdaf65a1b6b4b1ddca7b251c5b63d388c19f',
    '511.povray_r/speccfi/mte':
        '0b3d58fc02ff0134c40e50add1efe9554df81828c4d889efb9d63d2d54335631',
    '511.povray_r/speccfi/plain':
        '48bb9f123fa36748f001548f090ec4d84dffcf16a2a1ec42e33c4d61322333b5',
    '511.povray_r/specasan/mte':
        '569dfd6b1572315ed4a8408ec3e2348b156588a4212df10c6c5ef660463396c7',
    '511.povray_r/specasan/plain':
        '3c1dd6d948fcf16e78d12e000a3431df648f669f99c0b219d2c2a4060d1d7e1d',
    '511.povray_r/specasan+cfi/mte':
        '19255be67562d55af5ccc7ee2b01389f1272e8e43c46a60dbf6d62955197fac6',
    '511.povray_r/specasan+cfi/plain':
        '5c4fb0d7a21c83eedd8e2df6beb5926f40e157972c6640c16874937bf641dd6e',
    '523.xalancbmk_r/none/mte':
        '7239938fd1ed9ac4afcbca85675a849c87e868781959a4c39924ac6d7197d2bc',
    '523.xalancbmk_r/none/plain':
        'e1b63b6eacb5623b97dfdf7f6c760952c15c57e4f1c7bf6150a1dc1ae40dafda',
    '523.xalancbmk_r/fence/mte':
        'c6509d20e924535a174e33a9fd28ff2ff798353fd6018758d771783577f34eae',
    '523.xalancbmk_r/fence/plain':
        'b2b920092eb0bae77623e691119764b51926f7fd1e2c59d0b892a890570eeb94',
    '523.xalancbmk_r/stt/mte':
        'f7ca50417c7a961c277de5dcabf2803db4ccaaa1e02e46a7e130072ab247c9c3',
    '523.xalancbmk_r/stt/plain':
        '55ee598747625e92a76eea2c7a56f2b221c4088fa0b24feb0e06e8dddafddde9',
    '523.xalancbmk_r/ghostminion/mte':
        '672703e7409118a06284c46b7f0a9c59b2dad42b027cfce1cfb9ee241dfa8700',
    '523.xalancbmk_r/ghostminion/plain':
        '530ce48de3dd76d306b306a118d494fb54b1ca9a54282ed4da1e6fefe653113f',
    '523.xalancbmk_r/speccfi/mte':
        '0c6f12b76226de1d4f0cfcb82a754ae9f8025f9068a42a851b6aadd147595d02',
    '523.xalancbmk_r/speccfi/plain':
        'b58286cf8173033c4df7255f1eeb0856c125f5997f57067b8a7f6e4f8a017cb5',
    '523.xalancbmk_r/specasan/mte':
        'dde50d3e5c2ddbac3ea236945b1a2dc01bcd11ee69296a9cffb26581be890a93',
    '523.xalancbmk_r/specasan/plain':
        '2bf8e8ca5adc2857d5446f1425dd7f0fd40e643158fbdf77aa3a1343b53f07f8',
    '523.xalancbmk_r/specasan+cfi/mte':
        '3a4621f8fcf539f5442b5f5e06252682c05353e6b82b32d9e64dc1e72387e48b',
    '523.xalancbmk_r/specasan+cfi/plain':
        '3862a45becea73c2c95dc749fcacf30d2edbb744d7f2a92c937d6cf1435ce867',
    'canneal x2/none':
        '134a3472100515611de23126ec7955769cd0a57d4820bd9ca3a07b2864b74f5d',
    'canneal x2/specasan':
        '86132a43a0558d41fabe4954b73241ad6d376a388a05ca452d23211cdb4d7a63',
    'canneal x2/ghostminion':
        'f302a2dbf6578f257ca00e560e139a520e0a85d5e91f9abb377cbdae33630591',
    'canneal x2/stt':
        'b57d2c73a186c9f035e1f0c65f5292b4252198639e2b10b8f7852dd0ea7ea31d',
    'blackscholes x4/none':
        'b90e76a2be87ac4913b0096e27db4c6ab931101b1400aecaaf5a21bca784cfed',
    'blackscholes x4/specasan':
        '2dd4c335d55d0520435bd06989fa485b7e6973ce5c425cfc590599f1a80bb163',
    'blackscholes x4/ghostminion':
        'd7c986363ce17393f0f93b69535e641067606629519d4b7eabe18ba4748a9136',
    'blackscholes x4/stt':
        '654b78c5d845e5faf14e03fe2d9b205bcc774fa5b2ee767c8fd78f5556c7f4e1',
    'canneal x4/none':
        '08044a3577e5f212b4c6fadf9d4fde787589f93ad274632db41918804e8a8be0',
    'canneal x4/specasan':
        '672bffc58db6e3ef5901b16d37f58056052ccb6c81600d4488e3f6cc4e75dae9',
    'canneal x4/ghostminion':
        'fbffd3ca15c93dd7a4a98b8b61998eb2b959476744757387de9e1e621820c783',
    'canneal x4/stt':
        '7e08aec81b46121dac5839644cc07761b371c5967fa83728850a2ab676083e29',
    'ferret x4/none':
        'c7361ae4dae548ea358ac3b0ea0238df9b0db6b70405ea39410c011c3d1d5120',
    'ferret x4/specasan':
        'bd61aaafa6dee67f27297c42f55a3d13453d1d3db6d3fcf3ae91b827b2db9ac4',
    'ferret x4/ghostminion':
        '6840976311746cdf4de10c492a9f79b076fbe605618d8718c8406e0aa1f1d17d',
    'ferret x4/stt':
        'd6ccdb9c8778c02155991f68b4fee2d826b99c070120e8c7fef74c627718a237',
    'fluidanimate x4/none':
        'fb583a0e3c8a0aaeac4eaf6bea4dfee75addf3b5846bbfe8ffee6a79c59c3d3b',
    'fluidanimate x4/specasan':
        'd90ed6b0caad31eba164821c9b67931519162d3e50dae69309e086903f2a590e',
    'fluidanimate x4/ghostminion':
        '01c4e1ee34e3ff9d3ba3efa95abbe7d6c957f5c10245f32fe30bce74d1e6a05e',
    'fluidanimate x4/stt':
        '564a2aed03694e0b027f38d196fa6e678e106a9ccea6c33b0bacff15b19da84e',
}


@pytest.mark.parametrize("profile,defense,mte", SINGLE_CASES,
                         ids=[_single_id(*case) for case in SINGLE_CASES])
def test_single_core_digest(profile, defense, mte):
    key = _single_id(profile, defense, mte)
    assert single_core_digest(profile, defense, mte) == GOLDEN[key]


@pytest.mark.parametrize("defense", MULTICORE_DEFENSES,
                         ids=[d.value for d in MULTICORE_DEFENSES])
def test_multicore_digest(defense):
    key = _multicore_id(defense, "canneal", 2)
    assert multicore_digest(defense) == GOLDEN[key]


@pytest.mark.parametrize("workload,defense", FOUR_CORE_CASES,
                         ids=[f"{w}-{d.value}" for w, d in FOUR_CORE_CASES])
def test_four_core_digest(workload, defense):
    key = _multicore_id(defense, workload, 4)
    assert multicore_digest(defense, workload, 4) == GOLDEN[key]


if __name__ == "__main__":
    for case in SINGLE_CASES:
        print(f"    {_single_id(*case)!r}:\n        "
              f"{single_core_digest(*case)!r},")
    for case in MULTICORE_CASES:
        print(f"    {_multicore_id(*case)!r}:\n        "
              f"{multicore_digest(*case)!r},")
