"""Main memory + tag storage."""

import base64

import pytest

from repro.errors import CheckpointError, MemoryFault
from repro.memory.dram import PAGE_BYTES, MainMemory
from repro.mte.tags import with_key


@pytest.fixture
def memory():
    return MainMemory()


class TestData:
    def test_read_write_bytes(self, memory):
        memory.write(0x1000, b"hello")
        assert memory.read(0x1000, 5) == b"hello"

    def test_word_round_trip(self, memory):
        memory.write_word(0x2000, 0xDEADBEEFCAFE)
        assert memory.read_word(0x2000) == 0xDEADBEEFCAFE

    def test_word_wraps_to_64_bits(self, memory):
        memory.write_word(0x2000, 1 << 65)
        assert memory.read_word(0x2000) == 0

    def test_tagged_address_is_transparent(self, memory):
        memory.write_word(with_key(0x3000, 5), 42)
        assert memory.read_word(0x3000) == 42

    def test_out_of_range_faults(self, memory):
        with pytest.raises(MemoryFault):
            memory.read(memory.size, 1)
        with pytest.raises(MemoryFault):
            memory.write(memory.size - 2, b"1234")

    def test_load_image(self, memory):
        memory.load_image(0x4000, bytes(range(16)))
        assert memory.read(0x4008, 4) == bytes([8, 9, 10, 11])


class TestTags:
    def test_lock_round_trip(self, memory):
        memory.set_lock(0x1000, 7)
        assert memory.lock_of(0x1000) == 7
        assert memory.lock_of(with_key(0x1000, 2)) == 7

    def test_tag_range(self, memory):
        memory.tag_range(0x2000, 64, 3)
        assert memory.line_locks(0x2000, 64) == (3, 3, 3, 3)

    def test_line_locks_mixed(self, memory):
        memory.tag_range(0x2000, 16, 1)
        memory.tag_range(0x2030, 16, 9)
        assert memory.line_locks(0x2000, 64) == (1, 0, 0, 9)


#: One well-formed page payload.
PAGE = base64.b64encode(b"\x01" * PAGE_BYTES).decode("ascii")


class TestCheckpointState:
    """The memory image checkpoints as its nonzero pages."""

    def test_round_trip_keeps_only_nonzero_pages(self, memory):
        memory.write(0x1000, b"hello")
        memory.write(PAGE_BYTES * 3 - 2, b"span")   # straddles two pages
        state = memory.state_dict()
        assert [offset for offset, _ in state["pages"]] == \
            [0x1000, PAGE_BYTES * 2, PAGE_BYTES * 3]
        restored = MainMemory()
        restored.load_state_dict(state)
        assert restored._data == memory._data

    @pytest.mark.parametrize("page", [
        [1, PAGE],
        [16 * 1024 * 1024, PAGE],
        [-PAGE_BYTES, PAGE],
        [0, "AAAA"],
        [0, "not base64!"],
        ["0", PAGE],
    ], ids=["misaligned", "past-end", "negative", "short", "bad-base64",
            "str-offset"])
    def test_malformed_page_is_state_mismatch(self, memory, page):
        state = memory.state_dict()
        state["pages"] = [page]
        with pytest.raises(CheckpointError) as err:
            MainMemory().load_state_dict(state)
        assert err.value.kind == "state-mismatch"

    def test_size_mismatch_is_state_mismatch(self, memory):
        state = dict(memory.state_dict(), size=memory.size // 2)
        with pytest.raises(CheckpointError) as err:
            MainMemory().load_state_dict(state)
        assert err.value.kind == "state-mismatch"
