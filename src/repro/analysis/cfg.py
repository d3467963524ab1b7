"""Control-flow graph construction for linked :class:`~repro.isa.program.Program`s.

Blocks split at branch targets and after control transfers; edges model the
*architectural* successor relation:

- ``fall`` — straight-line flow (including the not-taken side of a
  conditional branch and the return site after a call);
- ``taken`` — the target of a direct or conditional branch;
- ``call`` — the callee entry of ``BL``/``BLR``;
- ``indirect`` — a possible target of ``BR``/``BLR``, drawn from the
  program's *address-taken* set (instruction addresses that appear as
  immediates or as words in initial data segments — the function-pointer
  and branch-target tables attack PoCs and workloads use).

``RET`` has no static successors: returning to the caller is modelled by
the ``fall`` edge out of the call site, the standard intraprocedural
approximation.  Speculative (wrong-path) successors are deliberately *not*
CFG edges; :mod:`repro.analysis.windows` derives them separately.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.errors import AnalysisError
from repro.isa.instructions import INSTR_BYTES, Instruction, Opcode
from repro.isa.program import Program
from repro.mte.tags import strip_tag

#: Edge kinds, in rendering order.
EDGE_KINDS = ("fall", "taken", "call", "indirect")


def address_taken(program: Program) -> FrozenSet[int]:
    """Instruction addresses whose value escapes into data or immediates.

    Scans every instruction immediate and every aligned 64-bit word of every
    data segment for values that (after stripping the MTE key byte) land on
    an instruction of ``program`` — the static over-approximation of "may be
    an indirect-branch target".  Data is mostly repeats (a 64 KiB probe
    array holds a handful of distinct words), so the values are collected
    into one set first and each distinct value is tested once.
    """
    program.link()
    values = {instr.imm for instr in program.instructions
              if instr.imm is not None}
    for segment in program.data_segments:
        words = len(segment.data) // 8
        values.update(struct.unpack(f"<{words}Q", segment.data[:words * 8]))
    taken = set()
    for value in values:
        address = strip_tag(value & (2**64 - 1))
        if program.fetch(address) is not None:
            taken.add(address)
    return frozenset(taken)


def successors(program: Program, instr: Instruction,
               indirect_targets: Iterable[int] = (),
               per_branch_targets: Optional[Mapping[int, Iterable[int]]]
               = None) -> List[Tuple[int, str]]:
    """Architectural successor addresses of ``instr`` with edge kinds.

    ``per_branch_targets`` maps an individual ``BR``/``BLR`` instruction
    address to *its* resolved target set; branches absent from the map fall
    back to the global ``indirect_targets`` over-approximation.
    """
    next_addr = instr.address + INSTR_BYTES
    has_next = program.fetch(next_addr) is not None
    out: List[Tuple[int, str]] = []
    op = instr.op
    if op is Opcode.HALT:
        return out
    if instr.is_return:
        return out
    if op is Opcode.B:
        if instr.target_addr is not None:
            out.append((instr.target_addr, "taken"))
        return out
    if instr.is_conditional_branch:
        if instr.target_addr is not None:
            out.append((instr.target_addr, "taken"))
        if has_next:
            out.append((next_addr, "fall"))
        return out
    if op is Opcode.BL:
        if instr.target_addr is not None:
            out.append((instr.target_addr, "call"))
        if has_next:
            out.append((next_addr, "fall"))
        return out
    if op in (Opcode.BLR, Opcode.BR):
        targets = indirect_targets
        if per_branch_targets is not None \
                and instr.address in per_branch_targets:
            targets = per_branch_targets[instr.address]
        out.extend((t, "indirect") for t in sorted(targets))
        if op is Opcode.BLR and has_next:
            out.append((next_addr, "fall"))
        return out
    if has_next:
        out.append((next_addr, "fall"))
    return out


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions."""

    index: int
    instructions: List[Instruction]
    #: Outgoing edges as (block index, kind).
    successors: List[Tuple[int, str]] = field(default_factory=list)
    #: Incoming edges as (block index, kind).
    predecessors: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def start(self) -> int:
        return self.instructions[0].address

    @property
    def end(self) -> int:
        """First address past this block."""
        return self.instructions[-1].address + INSTR_BYTES

    @property
    def terminator(self) -> Instruction:
        return self.instructions[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BasicBlock(#{self.index} @{self.start:#x}..{self.end:#x})"


@dataclass
class CFGProblem:
    """One well-formedness finding (lint severity, not an exception)."""

    kind: str       # "unreachable-block" | "fall-off-end"
    address: int
    message: str

    def __str__(self) -> str:
        return f"{self.address:#x}: [{self.kind}] {self.message}"


@dataclass
class CFG:
    """The control-flow graph of one linked program."""

    program: Program
    blocks: List[BasicBlock]
    #: Possible targets of ``BR``/``BLR`` (address-taken instructions).
    indirect_targets: FrozenSet[int]
    #: Instruction address -> owning block index.
    block_of_addr: Dict[int, int]
    #: Block indices reachable from the entry point.
    reachable: FrozenSet[int]

    @property
    def entry_block(self) -> BasicBlock:
        return self.blocks[self.block_of_addr[self.program.entry_address]]

    def block_at(self, address: int) -> BasicBlock:
        """The block containing the instruction at ``address``."""
        return self.blocks[self.block_of_addr[address]]

    def check_well_formed(self) -> List[CFGProblem]:
        """Unreachable blocks and fall-through off the end of the text."""
        problems = []
        for block in self.blocks:
            if block.index not in self.reachable:
                problems.append(CFGProblem(
                    "unreachable-block", block.start,
                    f"block #{block.index} is unreachable from the entry "
                    f"({self.program.entry_address:#x})"))
        for block in self.blocks:
            term = block.terminator
            falls = not (term.op in (Opcode.B, Opcode.HALT)
                         or term.is_return
                         or term.op is Opcode.BR)
            if falls and self.program.fetch(block.end) is None:
                problems.append(CFGProblem(
                    "fall-off-end", term.address,
                    f"{term.render()} falls through past the end of the "
                    f"text segment"))
        return problems


def require_well_formed(program: Program) -> CFG:
    """Build the CFG and *demand* well-formedness (the CLI-facing gate).

    :meth:`CFG.check_well_formed` is lint-severity — callers that can
    produce a partial answer keep going.  Entry points that report to a
    human (``--report FILE.s``, the service) must instead refuse: a
    gadget report over a degenerate program ("no gadgets found" because
    the victim code was unreachable, or because execution falls off the
    end of the text) is indistinguishable from a clean bill of health.
    Raises :class:`~repro.errors.AnalysisError` naming every problem
    block address; the empty program (a ``.s`` file with only
    directives) is converted from :func:`build_cfg`'s ``ValueError``
    into the same typed error.
    """
    try:
        cfg = build_cfg(program)
    except ValueError as err:
        raise AnalysisError(f"degenerate program: {err}")
    problems = cfg.check_well_formed()
    if problems:
        detail = "; ".join(str(problem) for problem in problems)
        raise AnalysisError(
            f"degenerate program: {len(problems)} CFG problem(s): {detail}")
    return cfg


def build_cfg(program: Program,
              indirect_targets: Optional[Iterable[int]] = None,
              per_branch_targets: Optional[Mapping[int, Iterable[int]]]
              = None) -> CFG:
    """Construct the CFG of ``program`` (linked in place if needed).

    ``indirect_targets`` defaults to :func:`address_taken`; pass an explicit
    set to narrow ``BR``/``BLR`` edges (e.g. from taint-resolved constants).

    ``per_branch_targets`` narrows *individual* indirect branches: a map
    from ``BR``/``BLR`` instruction address to the target set whose
    MTE-key-stripped literals actually reach that branch's register
    (:func:`repro.analysis.modular.resolved_indirect_targets`).  Branches
    not in the map keep the global over-approximation, so a widened
    constant set degrades gracefully instead of dropping edges.
    """
    program.link()
    if not program.instructions:
        raise ValueError("cannot build a CFG for an empty program")
    targets = (frozenset(indirect_targets) if indirect_targets is not None
               else address_taken(program))
    per_branch: Optional[Dict[int, Tuple[int, ...]]] = None
    if per_branch_targets is not None:
        per_branch = {addr: tuple(sorted(set(t)))
                      for addr, t in per_branch_targets.items()}

    # Leaders: entry, branch targets, instructions after control transfers.
    leaders = {program.entry_address, program.base_address}
    for instr in program.instructions:
        if instr.target_addr is not None:
            leaders.add(instr.target_addr)
        if instr.is_branch or instr.op is Opcode.HALT:
            leaders.add(instr.address + INSTR_BYTES)
    leaders.update(targets)
    if per_branch is not None:
        for branch_targets in per_branch.values():
            leaders.update(branch_targets)

    blocks: List[BasicBlock] = []
    block_of_addr: Dict[int, int] = {}
    current: List[Instruction] = []
    for instr in program.instructions:
        if instr.address in leaders and current:
            blocks.append(BasicBlock(len(blocks), current))
            current = []
        current.append(instr)
    if current:
        blocks.append(BasicBlock(len(blocks), current))
    for block in blocks:
        for instr in block.instructions:
            block_of_addr[instr.address] = block.index

    for block in blocks:
        for address, kind in successors(program, block.terminator, targets,
                                        per_branch):
            succ = block_of_addr.get(address)
            if succ is None:
                continue
            block.successors.append((succ, kind))
            blocks[succ].predecessors.append((block.index, kind))

    # Reachability roots: the entry plus every address-taken block — a
    # function whose address escapes into a table may be called even if no
    # indirect branch happens to target it in this build (the usual
    # dead-code convention for exported/address-taken symbols).
    roots = {block_of_addr[program.entry_address]}
    roots.update(block_of_addr[t] for t in targets if t in block_of_addr)
    reachable = _reach(roots, blocks)
    return CFG(program=program, blocks=blocks, indirect_targets=targets,
               block_of_addr=block_of_addr, reachable=frozenset(reachable))


def _reach(roots: Iterable[int], blocks: List[BasicBlock]) -> set:
    seen = set(roots)
    work = list(seen)
    while work:
        index = work.pop()
        for succ, _ in blocks[index].successors:
            if succ not in seen:
                seen.add(succ)
                work.append(succ)
    return seen
