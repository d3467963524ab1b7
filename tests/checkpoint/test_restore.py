"""Checkpoint/restore property: a paused-and-restored run IS the run.

The acceptance criterion: for every Table-1 defense, on several workload
profiles, checkpoint-then-restore must produce a stats registry
byte-identical to the straight-through run — pipeline, memory hierarchy,
MTE tags, predictors, and RNG streams all land exactly where they were.
Plus the one-file manager's typed rejections.
"""

import json

import pytest

from repro.checkpoint import (CheckpointManager, config_fingerprint,
                              program_fingerprint, read_checkpoint,
                              write_checkpoint)
from repro.config import CORTEX_A76, DefenseKind
from repro.errors import CheckpointError
from repro.system import build_system
from repro.workloads import build_parsec, build_spec

ALL_DEFENSES = list(DefenseKind)
SPEC_PROFILES = ["505.mcf_r", "531.deepsjeng_r"]
#: (workload, defense, pause cycle): every defense on each profile at
#: cycle 140, plus more pause points under SpecASan and STT, so that the
#: state a restore rebuilds rather than reads (the ready list, consumer
#: registrations, load wakes) is rebuilt with the IQ and LQ busy at several
#: different moments.
SPEC_CASES = ([(w, d, 140) for w in SPEC_PROFILES for d in ALL_DEFENSES]
              + [("505.mcf_r", d, pause)
                 for d in (DefenseKind.SPECASAN, DefenseKind.STT)
                 for pause in (60, 333, 901)])


def blob(system) -> str:
    return json.dumps(system.stats_registry().dump(), sort_keys=True)


def spec_program(name, seed=3, target=600):
    # Small enough to keep the 7-defense matrix fast; the pause points
    # below still land mid-run, with the ROB/LSQ/MSHRs genuinely busy.
    return build_spec(name, seed=seed, target_instructions=target).program


class TestByteIdenticalContinuation:
    """Straight-through vs checkpoint-at-pause-then-restore, per defense."""

    @pytest.mark.parametrize(
        "workload,defense,pause", SPEC_CASES,
        ids=[f"{w}-{d.value}" + ("" if pause == 140 else f"@{pause}")
             for w, d, pause in SPEC_CASES])
    def test_spec_profiles(self, tmp_path, workload, defense, pause):
        config = CORTEX_A76.with_defense(defense)
        program = spec_program(workload)

        reference = build_system(config)
        reference.prepare(program).run()
        reference_blob = blob(reference)
        assert reference.core.cycle > pause  # the pause lands mid-run

        manager = CheckpointManager(str(tmp_path / "cell.ckpt"))
        victim = build_system(config)
        victim.prepare(program).run(until_cycle=pause)
        manager.save(victim, program)
        del victim  # the kill: nothing of the live system survives

        resumed = build_system(config)
        cycle = manager.restore(resumed, program)
        assert resumed.core.cycle == cycle
        resumed.core.run()
        assert blob(resumed) == reference_blob

    @pytest.mark.parametrize("defense",
                             [DefenseKind.NONE, DefenseKind.SPECASAN,
                              DefenseKind.GHOSTMINION],
                             ids=["none", "specasan", "ghostminion"])
    def test_parsec_profile_multicore(self, tmp_path, defense):
        config = CORTEX_A76.with_defense(defense).with_cores(2)
        programs = [w.program for w in build_parsec(
            "canneal", seed=1, num_threads=2, target_instructions=400)]

        reference = build_system(config)
        reference.prepare(programs)
        reference.run_prepared()
        reference_blob = blob(reference)

        manager = CheckpointManager(str(tmp_path / "cell.ckpt"))
        victim = build_system(config)
        victim.prepare(programs)
        victim.run_prepared(until_cycle=120)
        manager.save(victim, programs)
        del victim

        resumed = build_system(config)
        assert manager.restore(resumed, programs) == 120
        resumed.run_prepared()
        assert blob(resumed) == reference_blob

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seed_sweep(self, tmp_path, seed):
        config = CORTEX_A76.with_defense(DefenseKind.SPECASAN)
        program = spec_program("541.leela_r", seed=seed)
        reference = build_system(config)
        reference.prepare(program).run()

        manager = CheckpointManager(str(tmp_path / "cell.ckpt"))
        victim = build_system(config)
        victim.prepare(program).run(until_cycle=90)
        manager.save(victim, program)
        resumed = build_system(config)
        manager.restore(resumed, program)
        resumed.core.run()
        assert blob(resumed) == blob(reference)


class TestSectionLayout:
    """One file layout for any number of cores: a ``meta`` section
    (``multicore``, ``cycle``) beside the hierarchy and the core list, as
    the one-core and the N-core writers of this schema version wrote it.
    A file written by hand in that layout restores to the same
    continuation, and the manager writes exactly that layout."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_layout_restores_to_the_same_continuation(self, tmp_path,
                                                      threads):
        config = CORTEX_A76.with_defense(DefenseKind.SPECASAN)
        if threads == 1:
            programs = spec_program("505.mcf_r")
        else:
            config = config.with_cores(threads)
            programs = [w.program for w in build_parsec(
                "canneal", seed=1, num_threads=threads,
                target_instructions=400)]
        reference = build_system(config)
        reference.prepare(programs)
        reference.run_prepared()

        victim = build_system(config)
        victim.prepare(programs)
        victim.run_prepared(until_cycle=120)
        state = victim.state_dict()
        sections = {"meta": {"multicore": threads > 1, "cycle": 120},
                    "hierarchy": state["hierarchy"],
                    "cores": state["cores"]}
        by_hand = CheckpointManager(str(tmp_path / "hand.ckpt"))
        write_checkpoint(by_hand.path, sections,
                         config_hash=config_fingerprint(config),
                         program_hash=program_fingerprint(programs),
                         cycle=120)
        saved = CheckpointManager(str(tmp_path / "saved.ckpt")).save(
            victim, programs)
        assert read_checkpoint(saved)[1] == read_checkpoint(by_hand.path)[1]

        resumed = build_system(config)
        assert by_hand.restore(resumed, programs) == 120
        resumed.run_prepared()
        assert blob(resumed) == blob(reference)


class TestOneFile:
    """A restore that cannot use the file fails typed."""

    def test_no_file_is_kind_missing(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "void.ckpt"))
        config = CORTEX_A76.with_defense(DefenseKind.SPECASAN)
        with pytest.raises(CheckpointError) as err:
            manager.restore(build_system(config),
                            spec_program("505.mcf_r"))
        assert err.value.kind == "missing"

    def test_wrong_defense_config_is_skew(self, tmp_path):
        config = CORTEX_A76.with_defense(DefenseKind.SPECASAN)
        program = spec_program("505.mcf_r")
        manager = CheckpointManager(str(tmp_path / "cell.ckpt"))
        system = build_system(config)
        system.prepare(program).run(until_cycle=60)
        manager.save(system, program)
        other = build_system(CORTEX_A76.with_defense(DefenseKind.FENCE))
        with pytest.raises(CheckpointError) as err:
            manager.restore(other, program)
        assert err.value.kind == "config-skew"
