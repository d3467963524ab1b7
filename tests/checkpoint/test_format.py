"""Checkpoint file format: durability, fingerprints, fail-closed reads.

Every damage primitive in :mod:`repro.checkpoint.corrupt` must be detected
by the reader and attributed to the right :class:`CheckpointError.kind` —
the degradation ladder upstream (generation walk-back, straight-through
re-run) dispatches on those kinds and must never see a half-trusted file.
"""

import os

import pytest

from repro.checkpoint import (MAGIC, SCHEMA_VERSION, config_fingerprint,
                              corrupt, program_fingerprint, read_checkpoint,
                              read_header, section_ranges, write_checkpoint)
from repro.config import CORTEX_A76, DefenseKind
from repro.errors import CheckpointError
from repro.workloads import build_spec

SECTIONS = {
    "meta": {"multicore": False, "cycle": 123},
    # Bulky enough that the payloads dominate the file: fractional
    # truncation then lands in a section, not the header.
    "hierarchy": {"caches": [(i * 2654435761) % (1 << 32)
                             for i in range(4096)],
                  "tags": {"0x40": 7}},
    "cores": [{"cycle": 123, "arf": list(range(32)),
               "instrs": [(i * 40503) % 65536 for i in range(4096)]}],
}


def write_sample(path, sections=None, config="c" * 16, program="p" * 16):
    return write_checkpoint(str(path), sections or SECTIONS,
                            config_hash=config, program_hash=program,
                            cycle=123)


class TestWriteRead:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.ckpt"
        nbytes = write_sample(path)
        assert nbytes == os.path.getsize(path)
        header, sections = read_checkpoint(str(path))
        assert header["schema"] == SCHEMA_VERSION
        assert header["cycle"] == 123
        assert sections == SECTIONS

    def test_file_leads_with_magic(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_sample(path)
        assert open(path, "rb").read(len(MAGIC)) == MAGIC

    def test_fingerprint_expectations_enforced(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_sample(path)
        read_checkpoint(str(path), expect_config="c" * 16)  # matching: fine
        with pytest.raises(CheckpointError) as err:
            read_checkpoint(str(path), expect_config="0" * 16)
        assert err.value.kind == "config-skew"
        with pytest.raises(CheckpointError) as err:
            read_checkpoint(str(path), expect_program="0" * 16)
        assert err.value.kind == "config-skew"

    def test_section_ranges_cover_the_tail(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_sample(path)
        ranges = list(section_ranges(str(path)))
        assert [name for name, _, _ in ranges] == list(SECTIONS)
        assert ranges[-1][2] == os.path.getsize(path)


class TestFingerprints:
    def test_config_fingerprint_distinguishes_defenses(self):
        base = config_fingerprint(CORTEX_A76)
        other = config_fingerprint(
            CORTEX_A76.with_defense(DefenseKind.SPECASAN))
        assert base != other
        assert base == config_fingerprint(CORTEX_A76)

    def test_program_fingerprint_covers_text_and_data(self):
        one = build_spec("505.mcf_r", seed=1).program
        two = build_spec("505.mcf_r", seed=2).program
        assert program_fingerprint(one) == program_fingerprint(one)
        assert program_fingerprint(one) != program_fingerprint(two)
        # A program list hashes differently from its single head.
        assert program_fingerprint([one, two]) != program_fingerprint(one)


class TestFailClosed:
    """Damage primitive -> exact fault kind, nothing restored."""

    @pytest.mark.parametrize("damage,expected", [
        (lambda p: corrupt.truncate(p, 0.5), "truncated"),
        (lambda p: corrupt.flip_bit(p, section="hierarchy"),
         "section-corrupt"),
        (lambda p: corrupt.flip_bit(p, section="cores"), "section-corrupt"),
        (lambda p: corrupt.skew_header(p, "schema"), "schema-skew"),
        (corrupt.tear_write, "torn-header"),
    ], ids=["truncate", "flip-hierarchy", "flip-cores", "schema-skew",
            "torn-write"])
    def test_damage_detected_with_kind(self, tmp_path, damage, expected):
        path = str(tmp_path / "a.ckpt")
        write_sample(path)
        damage(path)
        with pytest.raises(CheckpointError) as err:
            read_checkpoint(str(path))
        assert err.value.kind == expected

    def test_config_skew_primitive_defeats_expectation(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        write_sample(path)
        corrupt.skew_header(path, "config")
        with pytest.raises(CheckpointError) as err:
            read_checkpoint(path, expect_config="c" * 16)
        assert err.value.kind == "config-skew"

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError) as err:
            read_header(str(tmp_path / "nope.ckpt"))
        assert err.value.kind == "missing"

    def test_foreign_file_is_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"definitely not a checkpoint\n")
        with pytest.raises(CheckpointError) as err:
            read_header(str(path))
        assert err.value.kind == "bad-magic"
