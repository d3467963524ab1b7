"""Instruction definitions for the AArch64-flavoured ISA.

Each :class:`Instruction` is a *static* instruction: an opcode plus register
and immediate operands, as produced by the assembler or the program builder.
The pipeline wraps these in dynamic instances carrying sequence numbers and
speculative state.

The subset models everything the paper's PoCs and workloads need:

- integer ALU ops (``ADD``/``SUB``/logicals/shifts/``MUL``/``UDIV``),
- flag-setting compare and conditional branches,
- direct, conditional, and *indirect* branches plus calls/returns (the
  indirect forms are what Spectre v2/v5 and SpecCFI exercise),
- loads and stores with immediate or register offsets,
- the MTE tag-management instructions ``IRG``/``ADDG``/``SUBG``/``STG``/
  ``LDG`` (§5.2 lists these as the supported extension instructions),
- ``BTI`` landing pads for SpecCFI, and the ``SB`` speculation barrier.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.isa.registers import reg_name, XZR

#: Pseudo-register index used for the NZCV flags so the rename machinery can
#: track CMP -> B.cond dependencies exactly like data dependencies.
FLAGS_REG = 33
#: Total register namespace seen by the renamer (X0..X30, XZR, SP, FLAGS).
RENAME_REGS = 34

#: Byte size of every instruction (fixed-width ISA).
INSTR_BYTES = 4


class Opcode(enum.Enum):
    """Every opcode understood by the simulator."""

    # ALU
    ADD = "ADD"
    SUB = "SUB"
    AND = "AND"
    ORR = "ORR"
    EOR = "EOR"
    LSL = "LSL"
    LSR = "LSR"
    ASR = "ASR"
    MUL = "MUL"
    UDIV = "UDIV"
    MOV = "MOV"
    # Flag-setting compare (SUBS with discarded result).
    CMP = "CMP"
    # Control flow
    B = "B"
    B_COND = "B.COND"
    CBZ = "CBZ"
    CBNZ = "CBNZ"
    BR = "BR"
    BL = "BL"
    BLR = "BLR"
    RET = "RET"
    # Memory
    LDR = "LDR"
    LDRB = "LDRB"
    STR = "STR"
    STRB = "STRB"
    # MTE tag management (§2.3, §5.2)
    IRG = "IRG"
    ADDG = "ADDG"
    SUBG = "SUBG"
    STG = "STG"
    LDG = "LDG"
    # CFI landing pad (ARM BTI), used by SpecCFI.
    BTI = "BTI"
    # Speculation barrier (used by software fence mitigations).
    SB = "SB"
    NOP = "NOP"
    # Simulator control: stop the core cleanly.
    HALT = "HALT"


class InstrClass(enum.Enum):
    """Coarse classification used by issue/scheduling and the defenses."""

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    MTE = "mte"
    BARRIER = "barrier"
    NOP = "nop"
    HALT = "halt"


class Cond(enum.Enum):
    """Condition codes for ``B.cond`` (subset of AArch64)."""

    EQ = "EQ"  # Z
    NE = "NE"  # !Z
    LO = "LO"  # !C (unsigned lower)
    HS = "HS"  # C  (unsigned higher-or-same)
    LT = "LT"  # N != V
    GE = "GE"  # N == V
    LE = "LE"  # Z or N != V
    GT = "GT"  # !Z and N == V
    MI = "MI"  # N
    PL = "PL"  # !N


_CLASS_BY_OP = {
    Opcode.ADD: InstrClass.ALU, Opcode.SUB: InstrClass.ALU,
    Opcode.AND: InstrClass.ALU, Opcode.ORR: InstrClass.ALU,
    Opcode.EOR: InstrClass.ALU, Opcode.LSL: InstrClass.ALU,
    Opcode.LSR: InstrClass.ALU, Opcode.ASR: InstrClass.ALU,
    Opcode.MOV: InstrClass.ALU, Opcode.CMP: InstrClass.ALU,
    Opcode.MUL: InstrClass.MUL, Opcode.UDIV: InstrClass.DIV,
    Opcode.B: InstrClass.BRANCH, Opcode.B_COND: InstrClass.BRANCH,
    Opcode.CBZ: InstrClass.BRANCH, Opcode.CBNZ: InstrClass.BRANCH,
    Opcode.BR: InstrClass.BRANCH, Opcode.BL: InstrClass.BRANCH,
    Opcode.BLR: InstrClass.BRANCH, Opcode.RET: InstrClass.BRANCH,
    Opcode.LDR: InstrClass.LOAD, Opcode.LDRB: InstrClass.LOAD,
    Opcode.STR: InstrClass.STORE, Opcode.STRB: InstrClass.STORE,
    Opcode.IRG: InstrClass.MTE, Opcode.ADDG: InstrClass.MTE,
    Opcode.SUBG: InstrClass.MTE, Opcode.LDG: InstrClass.MTE,
    Opcode.STG: InstrClass.STORE,  # STG writes tag storage like a store
    Opcode.BTI: InstrClass.NOP,
    Opcode.SB: InstrClass.BARRIER,
    Opcode.NOP: InstrClass.NOP,
    Opcode.HALT: InstrClass.HALT,
}

_CONDITIONAL = {Opcode.B_COND, Opcode.CBZ, Opcode.CBNZ}
_INDIRECT = {Opcode.BR, Opcode.BLR, Opcode.RET}
_CALLS = {Opcode.BL, Opcode.BLR}
_LOADS = {Opcode.LDR, Opcode.LDRB, Opcode.LDG}
_STORES = {Opcode.STR, Opcode.STRB, Opcode.STG}
#: Opcodes that complete at dispatch without entering the issue queue.
_NO_ISSUE = {Opcode.B, Opcode.NOP, Opcode.BTI, Opcode.SB, Opcode.HALT}

#: Access width in bytes of the memory opcodes that are not 8 bytes wide
#: (granule-wide for STG/LDG).
_WIDTHS = {Opcode.LDRB: 1, Opcode.STRB: 1, Opcode.STG: 16, Opcode.LDG: 16}

#: Per-opcode classification, decoded once: (klass, klass_key, is_load,
#: is_store, is_memory, is_branch, needs_issue, memory_bytes).
_DECODE = {
    op: (klass, klass.value, op in _LOADS, op in _STORES,
         op in _LOADS or op in _STORES, klass is InstrClass.BRANCH,
         op not in _NO_ISSUE, _WIDTHS.get(op, 8))
    for op, klass in _CLASS_BY_OP.items()
}


@dataclass
class Instruction:
    """One static instruction.

    Operand conventions (mirroring AArch64 assembly):

    - ``rd``: destination register.
    - ``rn``: first source / base address register.
    - ``rm``: second source / index register (``None`` when the second
      operand is the immediate ``imm``).
    - ``imm``: immediate operand (ALU immediate, load/store offset, or the
      ADDG/SUBG address offset).
    - ``tag_imm``: the tag-offset operand of ``ADDG``/``SUBG``.
    - ``cond``: condition for ``B.cond``.
    - ``target``: branch target label; resolved to ``target_addr`` when the
      program is linked.

    The classification (``klass``, ``is_load``, ``is_store``, ``is_memory``,
    ``is_branch``, ``needs_issue``), the access width ``memory_bytes`` and
    ``klass_key`` (``klass.value``: the pipeline's port and latency tables
    are keyed by this string, which hashes in C, where an enum member hashes
    in Python) are decoded once from ``op`` into plain attributes, not
    dataclass fields, so ``==``, ``repr`` and ``asdict`` see only the
    operands.
    """

    op: Opcode
    rd: Optional[int] = None
    rn: Optional[int] = None
    rm: Optional[int] = None
    imm: Optional[int] = None
    tag_imm: Optional[int] = None
    cond: Optional[Cond] = None
    target: Optional[str] = None
    target_addr: Optional[int] = None
    #: Filled in when the instruction is placed into a Program.
    address: int = 0
    #: Optional free-form annotation (used by gadget builders for tracing).
    note: str = ""
    # Cached dependency sets, computed lazily.
    _srcs: Optional[Tuple[int, ...]] = field(default=None, repr=False)
    _dsts: Optional[Tuple[int, ...]] = field(default=None, repr=False)

    # -- classification -----------------------------------------------------

    def __post_init__(self) -> None:
        (self.klass, self.klass_key, self.is_load, self.is_store,
         self.is_memory, self.is_branch, self.needs_issue,
         self.memory_bytes) = _DECODE[self.op]

    @property
    def is_conditional_branch(self) -> bool:
        return self.op in _CONDITIONAL

    @property
    def is_indirect_branch(self) -> bool:
        return self.op in _INDIRECT

    @property
    def is_call(self) -> bool:
        return self.op in _CALLS

    @property
    def is_return(self) -> bool:
        return self.op is Opcode.RET

    @property
    def is_barrier(self) -> bool:
        return self.op is Opcode.SB

    # -- register dependencies ----------------------------------------------

    @property
    def src_regs(self) -> Tuple[int, ...]:
        """Architectural registers this instruction reads (XZR excluded)."""
        if self._srcs is None:
            self._srcs = self._compute_srcs()
        return self._srcs

    @property
    def dst_regs(self) -> Tuple[int, ...]:
        """Architectural registers this instruction writes (XZR excluded)."""
        if self._dsts is None:
            self._dsts = self._compute_dsts()
        return self._dsts

    def _compute_srcs(self) -> Tuple[int, ...]:
        srcs = []
        op = self.op
        if op is Opcode.B_COND:
            srcs.append(FLAGS_REG)
        elif op is Opcode.RET:
            srcs.append(30)  # LR
        elif op in (Opcode.CBZ, Opcode.CBNZ, Opcode.BR, Opcode.BLR):
            if self.rn is not None:
                srcs.append(self.rn)
        elif op is Opcode.STG:
            # STG reads the tag source (rd by our convention) and the base.
            if self.rd is not None:
                srcs.append(self.rd)
            if self.rn is not None:
                srcs.append(self.rn)
            if self.rm is not None:
                srcs.append(self.rm)
        elif self.is_store:
            if self.rd is not None:  # store data register
                srcs.append(self.rd)
            if self.rn is not None:
                srcs.append(self.rn)
            if self.rm is not None:
                srcs.append(self.rm)
        else:
            if self.rn is not None:
                srcs.append(self.rn)
            if self.rm is not None:
                srcs.append(self.rm)
        return tuple(s for s in srcs if s != XZR)

    def _compute_dsts(self) -> Tuple[int, ...]:
        dsts = []
        op = self.op
        if op is Opcode.CMP:
            dsts.append(FLAGS_REG)
        elif op in (Opcode.BL, Opcode.BLR):
            dsts.append(30)  # LR
        elif self.is_store or self.is_branch or op in (
                Opcode.SB, Opcode.NOP, Opcode.BTI, Opcode.HALT):
            pass
        else:
            if self.rd is not None:
                dsts.append(self.rd)
        return tuple(d for d in dsts if d != XZR)

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.render()

    def render(self) -> str:
        """Render back to assembly text."""
        op = self.op
        r = reg_name
        if op is Opcode.B_COND:
            return f"B.{self.cond.value} {self.target}"
        if op in (Opcode.B, Opcode.BL):
            return f"{op.value} {self.target}"
        if op in (Opcode.CBZ, Opcode.CBNZ):
            return f"{op.value} {r(self.rn)}, {self.target}"
        if op in (Opcode.BR, Opcode.BLR):
            return f"{op.value} {r(self.rn)}"
        if op in (Opcode.RET, Opcode.NOP, Opcode.BTI, Opcode.SB, Opcode.HALT):
            return op.value
        if op is Opcode.CMP:
            rhs = r(self.rm) if self.rm is not None else f"#{self.imm}"
            return f"CMP {r(self.rn)}, {rhs}"
        if op is Opcode.MOV:
            rhs = r(self.rn) if self.rn is not None else f"#{self.imm}"
            return f"MOV {r(self.rd)}, {rhs}"
        if self.is_memory and op is not Opcode.IRG:
            data = r(self.rd)
            if self.rm is not None:
                addr = f"[{r(self.rn)}, {r(self.rm)}]"
            elif self.imm:
                addr = f"[{r(self.rn)}, #{self.imm}]"
            else:
                addr = f"[{r(self.rn)}]"
            return f"{op.value} {data}, {addr}"
        if op is Opcode.IRG:
            return f"IRG {r(self.rd)}, {r(self.rn)}"
        if op in (Opcode.ADDG, Opcode.SUBG):
            return (f"{op.value} {r(self.rd)}, {r(self.rn)}, "
                    f"#{self.imm or 0}, #{self.tag_imm or 0}")
        rhs = r(self.rm) if self.rm is not None else f"#{self.imm}"
        return f"{op.value} {r(self.rd)}, {r(self.rn)}, {rhs}"
