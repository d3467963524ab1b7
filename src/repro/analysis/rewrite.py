"""Binary rewriting with relocation, for the automatic repair pass.

:class:`ProgramRewriter` stages edits against a linked
:class:`~repro.isa.program.Program` — instruction insertion (barriers,
masking sequences), data-segment retagging, and pointer-literal rewrites —
and :meth:`ProgramRewriter.apply` materializes a fresh linked program with
every address reference relocated:

- label-carrying branches re-resolve through the (moved) label map;
- ``target_addr``-only branches are remapped directly;
- instruction immediates and aligned 64-bit data words whose *untagged*
  value lands on an original instruction are treated as code pointers and
  remapped, preserving the MTE key byte.  This mirrors exactly the
  over-approximation :func:`repro.analysis.cfg.address_taken` uses to find
  indirect-branch targets, so anything the analysis believes may be a code
  pointer survives rewriting.

Code pointers (and labels) referring to an instruction that had material
inserted before it land on the *first inserted instruction*: a jump to a
load that gained a preceding barrier must execute the barrier.

The original program is never mutated; :class:`RewriteResult.addr_map`
translates original instruction addresses to their new locations so gadget
identities computed before the rewrite can be compared after it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.errors import AssemblerError
from repro.isa.instructions import INSTR_BYTES, Instruction
from repro.isa.program import DataSegment, Program
from repro.mte.tags import key_of, strip_tag, with_key


def _clone(instr: Instruction) -> Instruction:
    """A fresh, unlinked copy (address and dependency caches reset)."""
    return replace(instr, address=0, _srcs=None, _dsts=None)


@dataclass
class RewriteResult:
    """The rewritten program plus the address translation maps."""

    program: Program
    #: Original instruction address -> that same instruction's new address.
    addr_map: Dict[int, int]
    #: Original address -> where a *code pointer* to it now points (the
    #: first instruction inserted before it, if any; else the instruction's
    #: own new address).  Includes the end-of-text address.
    target_map: Dict[int, int]

    def translate(self, address: int) -> int:
        """Translate an original instruction address (identity mapping for
        addresses outside the original text, e.g. data)."""
        return self.addr_map.get(address, address)


@dataclass
class ProgramRewriter:
    """Staged, relocating edits over one linked program."""

    original: Program
    _insertions: Dict[int, List[Instruction]] = field(default_factory=dict)
    _retags: Dict[str, Optional[int]] = field(default_factory=dict)
    _value_rewrites: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.original.link()

    # -- staging ---------------------------------------------------------------

    def insert_before(self, address: int,
                      instructions: List[Instruction]) -> None:
        """Insert ``instructions`` immediately before the instruction at
        ``address`` (or at the end of the text for ``end_address``)."""
        if (self.original.fetch(address) is None
                and address != self.original.end_address):
            raise AssemblerError(
                f"cannot insert at {address:#x}: not an instruction address")
        self._insertions.setdefault(address, []).extend(
            _clone(instr) for instr in instructions)

    def retag_segment(self, name: str, tag: Optional[int]) -> None:
        """Change the MTE allocation tag of data segment ``name``."""
        self.original.segment(name)  # raises on unknown name
        self._retags[name] = tag

    def rewrite_value(self, old: int, new: int) -> None:
        """Rewrite every instruction immediate and aligned 64-bit data word
        exactly equal to ``old`` (tag byte included) into ``new``.

        Used to re-key pointer literals: explicit rewrites are applied
        before (and instead of) automatic code-pointer relocation.
        """
        self._value_rewrites[old & (2 ** 64 - 1)] = new & (2 ** 64 - 1)

    # -- application -----------------------------------------------------------

    def _relocate_value(self, value: int, target_map: Dict[int, int]) -> int:
        value &= (2 ** 64 - 1)
        if value in self._value_rewrites:
            return self._value_rewrites[value]
        address = strip_tag(value)
        if address in target_map and self.original.fetch(address) is not None:
            return with_key(target_map[address], key_of(value))
        return value

    def apply(self) -> RewriteResult:
        """Materialize the staged edits into a fresh linked program."""
        old = self.original
        new_instrs: List[Instruction] = []
        addr_map: Dict[int, int] = {}
        target_map: Dict[int, int] = {}
        index_map: Dict[int, int] = {}  # old instr index -> new instr index
        target_index: Dict[int, int] = {}

        for index, instr in enumerate(old.instructions):
            address = old.base_address + index * INSTR_BYTES
            target_index[index] = len(new_instrs)
            new_instrs.extend(self._insertions.get(address, ()))
            index_map[index] = len(new_instrs)
            new_instrs.append(_clone(instr))
        target_index[len(old.instructions)] = len(new_instrs)
        new_instrs.extend(self._insertions.get(old.end_address, ()))

        def new_addr(new_index: int) -> int:
            return old.base_address + new_index * INSTR_BYTES

        for old_index, new_index in index_map.items():
            addr_map[old.base_address + old_index * INSTR_BYTES] = (
                new_addr(new_index))
        for old_index, new_index in target_index.items():
            target_map[old.base_address + old_index * INSTR_BYTES] = (
                new_addr(new_index))

        # Labels move with their instruction, landing before any insertion.
        labels = {name: target_index[idx] for name, idx in old.labels.items()}

        for instr in new_instrs:
            if instr.target is not None:
                instr.target_addr = None  # re-resolved by link()
            elif instr.target_addr is not None:
                instr.target_addr = target_map.get(
                    strip_tag(instr.target_addr), instr.target_addr)
            if instr.imm is not None and instr.imm >= 0:
                instr.imm = self._relocate_value(instr.imm, target_map)

        segments = []
        for seg in old.data_segments:
            data = bytearray(seg.data)
            usable = len(data) - len(data) % 8
            for offset in range(0, usable, 8):
                (word,) = struct.unpack_from("<Q", data, offset)
                relocated = self._relocate_value(word, target_map)
                if relocated != word:
                    struct.pack_into("<Q", data, offset, relocated)
            tag = self._retags.get(seg.name, seg.tag)
            segments.append(DataSegment(seg.name, seg.address,
                                        bytes(data), tag))

        program = Program(
            instructions=new_instrs, labels=labels, data_segments=segments,
            base_address=old.base_address, entry_label=old.entry_label)
        return RewriteResult(program=program.link(), addr_map=addr_map,
                             target_map=target_map)


def barrier_of(note: str = "") -> Instruction:
    """A fresh SB speculation-barrier instruction (repair building block)."""
    from repro.isa.instructions import Opcode
    return Instruction(Opcode.SB, note=note)


def mask_of(reg: int, mask: int, note: str = "") -> Instruction:
    """``AND reg, reg, #mask`` — the ``array_index_nospec`` hardening."""
    from repro.isa.instructions import Opcode
    return Instruction(Opcode.AND, rd=reg, rn=reg, imm=mask, note=note)

