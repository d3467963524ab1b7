"""Main memory: a flat physical byte array plus MTE tag storage.

The data array is the architectural truth the caches index into (the
simulator's caches track presence, timing, and allocation tags, not copies of
the bytes).  Tag storage is the separate address space of §3.3.4; the memory
controller reads both in parallel.
"""

from __future__ import annotations

import base64
import struct
from repro.config import MemoryConfig, MTEConfig
from repro.errors import CheckpointError, MemoryFault
from repro.mte.tags import strip_tag
from repro.mte.tagstore import TagStorage

#: Checkpoints keep the memory image as its nonzero pages of this size.
PAGE_BYTES = 4096


class MainMemory:
    """Physical memory with a dense backing store and per-granule tags."""

    def __init__(self, mem_config: MemoryConfig = None, mte_config: MTEConfig = None):
        self.config = mem_config or MemoryConfig()
        self.mte = mte_config or MTEConfig()
        self._data = bytearray(self.config.size_bytes)
        self.tags = TagStorage(self.config.size_bytes,
                               self.mte.granule_bytes, self.mte.tag_bits)

    @property
    def size(self) -> int:
        return self.config.size_bytes

    def _span(self, address: int, size: int) -> int:
        physical = strip_tag(address)
        if physical < 0 or physical + size > self.size:
            raise MemoryFault(physical)
        return physical

    # -- data ------------------------------------------------------------------

    def read(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes (address may be tagged; the key is ignored)."""
        physical = self._span(address, size)
        return bytes(self._data[physical:physical + size])

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` at ``address`` (tag in the address is ignored)."""
        physical = self._span(address, len(data))
        self._data[physical:physical + len(data)] = data

    def read_word(self, address: int) -> int:
        """Read a little-endian 64-bit word."""
        return struct.unpack("<Q", self.read(address, 8))[0]

    def write_word(self, address: int, value: int) -> None:
        """Write a little-endian 64-bit word."""
        self.write(address, struct.pack("<Q", value & (2**64 - 1)))

    def load_image(self, address: int, data: bytes) -> None:
        """Loader entry point: place an initial data segment."""
        self.write(address, data)

    # -- tags -------------------------------------------------------------------

    def lock_of(self, address: int) -> int:
        """The allocation tag (lock) covering ``address``."""
        return self.tags.get(address)

    def set_lock(self, address: int, tag: int) -> None:
        """Set the allocation tag of the granule covering ``address``."""
        self.tags.set(address, tag)

    def tag_range(self, address: int, size: int, tag: int) -> None:
        """Tag a whole region (loader / allocator replay)."""
        self.tags.set_range(address, size, tag)

    def line_locks(self, line_address: int, line_bytes: int) -> tuple:
        """All locks covering one cache line (travel with fills, Fig. 3)."""
        return self.tags.line_tags(line_address, line_bytes)

    # -- checkpointing ----------------------------------------------------------

    def state_dict(self) -> dict:
        # The backing store is large (16 MiB default) but overwhelmingly
        # zero, so only its nonzero pages are kept; the checkpoint file
        # compresses each section, so they stay uncompressed here.
        zero = bytes(PAGE_BYTES)
        pages = []
        for offset in range(0, self.size, PAGE_BYTES):
            page = self._data[offset:offset + PAGE_BYTES]
            if page != zero[:len(page)]:
                pages.append([offset, base64.b64encode(page).decode("ascii")])
        return {"size": self.size, "pages": pages,
                "tags": self.tags.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        size = int(state["size"])
        if size != self.size:
            raise CheckpointError(
                f"memory image size {size} != configured {self.size}",
                kind="state-mismatch")
        data = bytearray(size)
        for offset, encoded in state["pages"]:
            try:
                page = base64.b64decode(encoded, validate=True)
            except (TypeError, ValueError) as err:   # binascii.Error too
                raise CheckpointError(f"memory page at {offset!r} is not "
                                      f"base64 ({err})",
                                      kind="state-mismatch")
            if not isinstance(offset, int) or offset % PAGE_BYTES \
                    or not 0 <= offset < size \
                    or len(page) != min(PAGE_BYTES, size - offset):
                raise CheckpointError(
                    f"memory page at {offset!r} ({len(page)} bytes) does "
                    f"not fit the {size}-byte image",
                    kind="state-mismatch")
            data[offset:offset + len(page)] = page
        self._data = data
        self.tags.load_state_dict(state["tags"])
