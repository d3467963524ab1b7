"""Forward taint and bounded-constant dataflow over a program's CFG.

The analysis propagates one :class:`Value` per architectural register to
a fixed point.  A value is a *bounded constant set* (collapsed
to "unknown" past :data:`CONST_CAP` members) plus taint flags:

- ``attacker`` — may be influenced by memory contents (every load result);
- ``secret`` — may carry bytes of a configured secret range;
- ``loaded`` — derived from a load result, i.e. resolves late.  A branch
  whose condition is ``loaded`` is a *delayed* branch (its window is long
  enough to matter); a store whose address is ``loaded`` is the Spectre-STL
  shape;
- ``stale`` — derived from an MDS sampling load (pass-2 only; see
  :mod:`repro.analysis.gadgets`).

Loads resolve through the program's *initial* data segments — the index,
pointer, and branch-target tables attack PoCs drive their gadgets with.  A
load whose full address is constant reads the segment bytes exactly; a load
with a constant base but unknown offset is summarized by the distinct words
of the containing segment (skipped past :data:`SUMMARY_CAP` bytes).  Stores
do not update this memory image: a speculative bypassing load reading the
*stale* initial contents (Spectre-v4) is therefore modelled for free, at the
cost of ignoring architectural read-after-write through memory — a precision
limit DESIGN.md documents.

The analysis is interprocedural but context-insensitive: ``BL``/``BLR``
flow into callees through the CFG's call/indirect edges, and every ``RET``
flows to every return site.  This module holds the value domain, the
transfer functions and the join; :func:`analyze` runs them to a fixed point
through the summary engine of :mod:`repro.analysis.modular.summaries`,
one function region at a time.  The transfer functions compile once per
block and run, a closure per instruction, on every later visit.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, List, NamedTuple,
    Optional, Sequence, Set, Tuple)

from repro.analysis import hooks
from repro.analysis.cfg import CFG, BasicBlock
# The engine builds the CFG; benchmarks/perf/seams.py times this name.
from repro.analysis.cfg import build_cfg  # noqa: F401
from repro.isa.instructions import FLAGS_REG, INSTR_BYTES, Instruction, Opcode
from repro.isa.program import DataSegment, Program
from repro.isa.registers import LR, XZR
from repro.mte.tags import key_of, strip_tag, with_key

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.analysis.modular.incremental import RegionFacts
    from repro.analysis.options import AnalysisOptions

MASK64 = (1 << 64) - 1
#: Constant sets larger than this collapse to "unknown" (widening).
CONST_CAP = 16
#: Pairwise constant evaluation is skipped past this operand product.
PAIR_CAP = 256
#: Segments larger than this are not summarized for unknown-offset loads.
SUMMARY_CAP = 64 * 1024


class Value(NamedTuple):
    """One abstract register value: bounded constants plus taint flags.

    Tuple-backed, so equality, hashing and field reads run in C (the hash
    is the field tuple's, as the frozen dataclass it replaced computed).
    """

    consts: Optional[Tuple[int, ...]] = None
    attacker: bool = False
    secret: bool = False
    loaded: bool = False
    stale: bool = False

    def join(self, other: "Value") -> "Value":
        """Least upper bound of two values (``self`` itself if unchanged)."""
        if self is other or self == other:
            return self
        consts: Optional[Tuple[int, ...]]
        if self.consts is None or other.consts is None:
            consts = None
        else:
            merged = set(self.consts) | set(other.consts)
            consts = tuple(sorted(merged)) if len(merged) <= CONST_CAP else None
        return _new(Value, (consts,
                            self.attacker or other.attacker,
                            self.secret or other.secret,
                            self.loaded or other.loaded,
                            self.stale or other.stale))

    def __repr__(self) -> str:
        flags = "".join(name[0] for name in
                        ("attacker", "secret", "loaded", "stale")
                        if getattr(self, name))
        if self.consts is None:
            return f"Value(?{',' + flags if flags else ''})"
        shown = ",".join(f"{c:#x}" for c in self.consts[:4])
        more = "…" if len(self.consts) > 4 else ""
        return f"Value({{{shown}{more}}}{',' + flags if flags else ''})"


#: ``_new(Value, fields)`` builds a value in C, skipping the Python-level
#: ``Value.__new__`` that keyword defaults need (the transfer's hot path).
_new = tuple.__new__

#: The no-information value (arbitrary, untainted).
UNKNOWN = Value()


def const_value(*values: int) -> Value:
    """An exact constant value (or small constant set)."""
    return Value(tuple(sorted({v & MASK64 for v in values})))


#: ``const_value(0)``: XZR, and AND/MUL with a zero operand.
_ZERO = const_value(0)


def _taint_of(a: Value, b: Value) -> Value:
    """No constants, and the taint of both operands."""
    return _new(Value, (None, a.attacker or b.attacker, a.secret or b.secret,
                        a.loaded or b.loaded, a.stale or b.stale))


def _to_signed(v: int) -> int:
    return v - (1 << 64) if v >> 63 else v


_EVAL = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.ORR: lambda a, b: a | b,
    Opcode.EOR: lambda a, b: a ^ b,
    Opcode.LSL: lambda a, b: a << (b & 63),
    Opcode.LSR: lambda a, b: a >> (b & 63),
    Opcode.ASR: lambda a, b: _to_signed(a) >> (b & 63),
    Opcode.MUL: lambda a, b: a * b,
    Opcode.UDIV: lambda a, b: 0 if b == 0 else a // b,  # AArch64: x/0 == 0
}

_ADD = _EVAL[Opcode.ADD]


def _binop(fn: Callable[[int, int], int], absorbing: bool,
           a: Value, b: Value) -> Value:
    """Abstract binary ALU transfer of the concrete operation ``fn``;
    ``absorbing`` (AND, MUL) makes an exact zero operand absorb."""
    ac, bc = a.consts, b.consts
    if absorbing and (ac == (0,) or bc == (0,)):
        # The result is exactly zero no matter the other operand; the
        # dependency is purely microarchitectural, so taint drops too
        # (needed for the RIDL delay chain's AND-with-XZR collapse).
        return _ZERO
    consts: Optional[Tuple[int, ...]] = None
    if ac is not None and bc is not None:
        if len(ac) == 1 and len(bc) == 1:
            consts = (fn(ac[0], bc[0]) & MASK64,)
        elif len(ac) * len(bc) <= PAIR_CAP:
            vals = {fn(x, y) & MASK64 for x in ac for y in bc}
            if len(vals) <= CONST_CAP:
                consts = tuple(sorted(vals))
    return _new(Value, (consts, a.attacker or b.attacker,
                        a.secret or b.secret, a.loaded or b.loaded,
                        a.stale or b.stale))


# -- per-instruction facts ----------------------------------------------------


@dataclass
class LoadFact:
    """What the analysis knows about one load instruction (joined state)."""

    instr: Instruction
    address: Value
    result: Value
    width: int
    #: Every constant address resolved into a data segment exactly.
    resolved: bool
    #: (tagged pointer, pointer key, allocation lock) for every access that
    #: may touch a secret range — the inputs to the SpecASan verdict.
    secret_accesses: Tuple[Tuple[int, int, int], ...]
    #: A constant address straddles a cache-line boundary (assist trigger).
    line_crossing: bool


@dataclass
class StoreFact:
    """What the analysis knows about one store instruction."""

    instr: Instruction
    address: Value
    data: Value
    width: int
    #: Resolved constant (tagged) store addresses, or () when unknown.
    pointers: Tuple[int, ...]


@dataclass
class BranchFact:
    """Condition/target values observed at a branch."""

    instr: Instruction
    #: Condition value for B.cond (the FLAGS value) and CBZ/CBNZ (the
    #: tested register); ``None`` for unconditional branches.
    condition: Optional[Value] = None
    #: Target register value for BR/BLR; ``None`` otherwise.
    target: Optional[Value] = None

    @property
    def delayed(self) -> bool:
        """The condition resolves late (depends on a load)."""
        return self.condition is not None and self.condition.loaded


@dataclass
class TaintResult:
    """The full dataflow result for one program."""

    program: Program
    cfg: CFG
    secret_ranges: Tuple[Tuple[int, int], ...]
    loads: Dict[int, LoadFact] = field(default_factory=dict)
    stores: Dict[int, StoreFact] = field(default_factory=dict)
    branches: Dict[int, BranchFact] = field(default_factory=dict)
    #: MUL/UDIV instruction address -> joined source-operand value (the
    #: contention-channel transmitter candidates).
    contention: Dict[int, Value] = field(default_factory=dict)
    #: (block start address, register) -> number of join-widening events:
    #: both incoming constant sets were bounded but their union exceeded
    #: :data:`CONST_CAP` and collapsed to "unknown".  This is the explicit
    #: record of the bounded-iteration cutoff that makes recursion (mutual
    #: ``BL`` cycles, unbounded loop counters) terminate — surfaced in the
    #: ``--report`` output instead of silently converging.
    widenings: Dict[Tuple[int, int], int] = field(default_factory=dict)


# -- the analysis -------------------------------------------------------------


State = Dict[int, Value]
#: One compiled instruction: applies its transfer to the state (mutated in
#: place) and records its facts.
Step = Callable[[State, "RegionFacts"], None]


class _Context:
    """Shared lookups for one analyze() run."""

    def __init__(self, program: Program, cfg: CFG,
                 secret_ranges: Tuple[Tuple[int, int], ...],
                 stale_loads: FrozenSet[int]):
        self.program = program
        self.cfg = cfg
        self.secret_ranges = secret_ranges
        self.stale_loads = stale_loads
        # Segments never overlap, so the only one that can hold an address
        # is the last to start at or below it.  An empty segment holds no
        # byte (and may share its start with another), so it stays out.
        self._segments = sorted(
            (seg for seg in program.data_segments if seg.data),
            key=lambda seg: seg.address)
        self._starts = [seg.address for seg in self._segments]
        self._ends = [seg.end for seg in self._segments]
        self._summaries: Dict[Tuple[int, int], FrozenSet[int]] = {}

    def segment_at(self, address: int, width: int = 1) -> Optional[DataSegment]:
        index = bisect_right(self._starts, address) - 1
        if index >= 0 and address + width <= self._ends[index]:
            return self._segments[index]
        return None

    def overlaps_secret(self, address: int, width: int) -> bool:
        end = address + width
        for lo, hi in self.secret_ranges:
            if lo < end and address < hi:
                return True
        return False

    def segment_overlaps_secret(self, seg: DataSegment) -> bool:
        return any(lo < seg.end and seg.address < hi
                   for lo, hi in self.secret_ranges)

    def summary(self, seg: DataSegment, width: int) -> FrozenSet[int]:
        """Distinct width-byte values stored anywhere in ``seg``."""
        cache_key = (seg.address, width)
        if cache_key not in self._summaries:
            if width == 1:
                vals = frozenset(seg.data)
            else:
                usable = len(seg.data) - len(seg.data) % width
                fmt = "<Q" if width == 8 else "<B"
                vals = frozenset(w for (w,) in
                                 struct.iter_unpack(fmt, seg.data[:usable]))
            self._summaries[cache_key] = vals
        return self._summaries[cache_key]


def _join_states(a: Optional[State], b: State,
                 widened: Optional[Callable[[int], None]] = None) -> State:
    """Pointwise join; ``widened(reg)`` fires on every constant-set collapse
    (both sides bounded, union past :data:`CONST_CAP`)."""
    if a is None:
        return dict(b)
    out = dict(a)
    for reg, value in b.items():
        old = out.get(reg)
        if old is None:
            out[reg] = _forget(value)
        elif old is not value and old != value:
            # Equal values keep ``old`` itself (no join), so the caller's
            # state comparison meets the same object.
            joined = old.join(value)
            if (widened is not None and joined.consts is None
                    and value.consts is not None
                    and old.consts is not None):
                widened(reg)
            out[reg] = joined
    for reg in a:
        if reg not in b:
            out[reg] = _forget(out[reg])
    return out


def _forget(value: Value) -> Value:
    """``value.join(UNKNOWN)``: the same taint, no constants."""
    if value.consts is None:
        return value
    return _new(Value, (None, value.attacker, value.secret, value.loaded,
                        value.stale))


def _resolve_load(ctx: _Context, instr: Instruction, addr_val: Value,
                  base_candidates: Sequence[Value],
                  width: int) -> Tuple[Value, LoadFact]:
    """Model a load: exact segment read, segment summary, or unknown."""
    secret_accesses: List[Tuple[int, int, int]] = []
    crossing = False
    consts: Optional[Tuple[int, ...]] = None
    resolved = False

    if addr_val.consts is not None:
        vals: Set[int] = set()
        all_resolved = True
        for pointer in addr_val.consts:
            address = strip_tag(pointer)
            if address % 64 + width > 64:
                crossing = True
            seg = ctx.segment_at(address, width)
            if ctx.overlaps_secret(address, width):
                lock = seg.tag if seg is not None and seg.tag is not None else 0
                secret_accesses.append((pointer, key_of(pointer), lock))
            if seg is None:
                all_resolved = False
                continue
            offset = address - seg.address
            raw = seg.data[offset:offset + width]
            vals.add(int.from_bytes(raw, "little"))
        if all_resolved and len(vals) <= CONST_CAP:
            consts = tuple(sorted(vals))
            resolved = True
    if not resolved:
        # Unknown (or partially out-of-segment) offset: summarize the
        # segment(s) the base points into.  Also taken when the exact path
        # fails transiently mid-fixpoint (a widening loop counter briefly
        # holds in- and out-of-range offsets) — without the fallback that
        # transient "unknown" would poison every downstream join forever.
        bases = next((v.consts for v in base_candidates
                      if v.consts is not None), None)
        if bases:
            vals = set()
            summarized = True
            for pointer in bases:
                seg = ctx.segment_at(strip_tag(pointer))
                if seg is None or seg.size > SUMMARY_CAP:
                    summarized = False
                    break
                vals |= ctx.summary(seg, width)
                if ctx.segment_overlaps_secret(seg):
                    key = key_of(pointer)
                    lock = seg.tag if seg.tag is not None else 0
                    secret_accesses.append(
                        (with_key(seg.address, key), key, lock))
            if summarized and len(vals) <= CONST_CAP:
                consts = tuple(sorted(vals))

    result = _new(Value, (consts, True, bool(secret_accesses), True,
                          instr.address in ctx.stale_loads))
    fact = LoadFact(instr=instr, address=addr_val, result=result, width=width,
                    resolved=resolved,
                    secret_accesses=tuple(secret_accesses),
                    line_crossing=crossing)
    return result, fact


# -- the compiled transfer ----------------------------------------------------
#
# At a block's first visit in a run, each instruction with a dataflow
# effect compiles into a closure over what it decodes to: its evaluator,
# immediate, link constant and register readers.  A reader is a
# ``state.get(key, default)`` pair.  XZR reads zero because no step ever
# writes it; an absent register reads UNKNOWN; and an immediate operand
# reads under the key ``None``, which no state holds.


def _reader(reg: Optional[int]) -> Tuple[Optional[int], Value]:
    """The (key, default) that reads register ``reg`` out of a state."""
    return reg, (_ZERO if reg == XZR else UNKNOWN)


def _immediate(instr: Instruction) -> Tuple[None, Value]:
    """The (key, default) that reads ``instr``'s immediate operand."""
    return None, Value(((instr.imm or 0) & MASK64,))


def _second(instr: Instruction) -> Tuple[Optional[int], Value]:
    """The second operand's reader: ``rm``, or else the immediate."""
    return _reader(instr.rm) if instr.rm is not None else _immediate(instr)


def _dest(reg: Optional[int]) -> Optional[int]:
    """The register a result lands in; ``None`` when it is dropped."""
    return None if reg == XZR else reg


def _compile_mov(ctx: _Context, instr: Instruction) -> Optional[Step]:
    rd = _dest(instr.rd)
    if rd is None:
        return None
    src, dsrc = (_reader(instr.rn) if instr.rn is not None
                 else _immediate(instr))

    def mov(state: State, facts: "RegionFacts") -> None:
        state[rd] = state.get(src, dsrc)
    return mov


def _compile_alu(ctx: _Context, instr: Instruction) -> Optional[Step]:
    op = instr.op
    fn, absorbing = _EVAL[op], op in (Opcode.AND, Opcode.MUL)
    rn, dn = _reader(instr.rn)
    rm, dm = _second(instr)
    rd = _dest(instr.rd)
    if op in (Opcode.MUL, Opcode.UDIV):
        addr = instr.address

        def contended(state: State, facts: "RegionFacts") -> None:
            lhs, rhs = state.get(rn, dn), state.get(rm, dm)
            if rd is not None:
                state[rd] = _binop(fn, absorbing, lhs, rhs)
            facts.contention[addr] = _taint_of(lhs, rhs)
        return contended
    if rd is None:
        return None

    def alu(state: State, facts: "RegionFacts") -> None:
        state[rd] = _binop(fn, absorbing, state.get(rn, dn), state.get(rm, dm))
    return alu


def _compile_cmp(ctx: _Context, instr: Instruction) -> Step:
    rn, dn = _reader(instr.rn)
    rm, dm = _second(instr)

    def cmp(state: State, facts: "RegionFacts") -> None:
        state[FLAGS_REG] = _taint_of(state.get(rn, dn), state.get(rm, dm))
    return cmp


def _compile_call(ctx: _Context, instr: Instruction) -> Step:
    link = const_value(instr.address + INSTR_BYTES)
    if instr.op is Opcode.BL:
        def bl(state: State, facts: "RegionFacts") -> None:
            state[LR] = link
        return bl
    addr = instr.address
    rn, dn = _reader(instr.rn)

    def blr(state: State, facts: "RegionFacts") -> None:
        facts.branches[addr] = BranchFact(instr, target=state.get(rn, dn))
        state[LR] = link
    return blr


def _compile_branch(ctx: _Context, instr: Instruction) -> Step:
    addr = instr.address
    if instr.op is Opcode.RET:
        # No dataflow effect, but the RSB windows key off this fact.
        fact = BranchFact(instr)

        def ret(state: State, facts: "RegionFacts") -> None:
            facts.branches[addr] = fact
        return ret
    if instr.op is Opcode.BR:
        rn, dn = _reader(instr.rn)

        def br(state: State, facts: "RegionFacts") -> None:
            facts.branches[addr] = BranchFact(instr, target=state.get(rn, dn))
        return br
    # B.cond tests the FLAGS value, CBZ/CBNZ the tested register.
    reg, dreg = ((FLAGS_REG, UNKNOWN) if instr.op is Opcode.B_COND
                 else _reader(instr.rn))

    def conditional(state: State, facts: "RegionFacts") -> None:
        facts.branches[addr] = BranchFact(instr,
                                          condition=state.get(reg, dreg))
    return conditional


def _compile_load(ctx: _Context, instr: Instruction) -> Step:
    rn, dn = _reader(instr.rn)
    rm, dm = _second(instr)
    rd = _dest(instr.rd)
    addr, width = instr.address, instr.memory_bytes
    # The base and offset values are all that a load's answer reads that
    # can change between visits (segments, secret ranges and stale loads
    # are the run's constants), so one (result, fact) serves each pair.
    memo: Dict[Tuple[Value, Value], Tuple[Value, LoadFact]] = {}

    def load(state: State, facts: "RegionFacts") -> None:
        base, offset = state.get(rn, dn), state.get(rm, dm)
        known = memo.get((base, offset))
        if known is None:
            known = memo[base, offset] = _resolve_load(
                ctx, instr, _binop(_ADD, False, base, offset),
                (base, offset), width)
        if rd is not None:
            state[rd] = known[0]
        facts.loads[addr] = known[1]
    return load


def _compile_ldg(ctx: _Context, instr: Instruction) -> Optional[Step]:
    # The loaded allocation tag is data-dependent on memory but never a
    # pointer/secret; model it as an unknown loaded value.
    rd = _dest(instr.rd)
    if rd is None:
        return None
    rn, dn = _reader(instr.rn)

    def ldg(state: State, facts: "RegionFacts") -> None:
        src = state.get(rn, dn)
        state[rd] = _new(Value, (None, src.attacker, src.secret, True,
                                 src.stale))
    return ldg


def _compile_store(ctx: _Context, instr: Instruction) -> Step:
    rn, dn = _reader(instr.rn)
    rm, dm = _second(instr)
    rt, dt = _reader(instr.rd)
    addr, width = instr.address, instr.memory_bytes

    def store(state: State, facts: "RegionFacts") -> None:
        address = _binop(_ADD, False, state.get(rn, dn), state.get(rm, dm))
        facts.stores[addr] = StoreFact(
            instr=instr, address=address, data=state.get(rt, dt),
            width=width, pointers=address.consts or ())
    return store


def _compile_irg(ctx: _Context, instr: Instruction) -> Optional[Step]:
    rd = _dest(instr.rd)
    if rd is None:
        return None
    rn, dn = _reader(instr.rn)

    def irg(state: State, facts: "RegionFacts") -> None:
        state[rd] = _forget(state.get(rn, dn))
    return irg


def _compile_tag_arith(ctx: _Context, instr: Instruction) -> Optional[Step]:
    rd = _dest(instr.rd)
    if rd is None:
        return None
    rn, dn = _reader(instr.rn)
    sign = 1 if instr.op is Opcode.ADDG else -1
    offset, tag_delta = sign * (instr.imm or 0), sign * (instr.tag_imm or 0)

    def tag_arith(state: State, facts: "RegionFacts") -> None:
        src = state.get(rn, dn)
        consts = None
        if src.consts is not None:
            moved = {with_key((pointer + offset) & MASK64,
                              (key_of(pointer) + tag_delta) & 0xF)
                     for pointer in src.consts}
            if len(moved) <= CONST_CAP:
                consts = tuple(sorted(moved))
        state[rd] = src._replace(consts=consts)
    return tag_arith


class _Kernel:
    """One run's compiled transfer.

    ``blocks`` maps a block index to its steps, compiled at the block's
    first visit, so the regions a summary cache serves never compile.
    The load steps hold the run's :class:`_Context` (and their memos), so
    the table lives here rather than on the context: a context holding
    its own steps would be a reference cycle, and every run would wait
    for the cyclic collector to free it.
    """

    def __init__(self, ctx: _Context):
        self.ctx = ctx
        self.blocks: Dict[int, Tuple[Step, ...]] = {}

    def run_block(self, block: BasicBlock, state: State,
                  facts: "RegionFacts") -> State:
        """Apply ``block``'s transfer to ``state`` (mutated and returned)."""
        steps = self.blocks.get(block.index)
        if steps is None:
            steps = self.blocks[block.index] = _compile_block(self.ctx, block)
        for step in steps:
            step(state, facts)
        return state


#: Opcode -> its step compiler.  STG, B, NOP, BTI, SB and HALT have no
#: register dataflow effect and compile to no step.
_COMPILERS: Dict[Opcode, Callable[[_Context, Instruction], Optional[Step]]] = {
    Opcode.MOV: _compile_mov,
    **{op: _compile_alu for op in _EVAL},
    Opcode.CMP: _compile_cmp,
    Opcode.BL: _compile_call, Opcode.BLR: _compile_call,
    Opcode.BR: _compile_branch, Opcode.B_COND: _compile_branch,
    Opcode.CBZ: _compile_branch, Opcode.CBNZ: _compile_branch,
    Opcode.RET: _compile_branch,
    Opcode.LDR: _compile_load, Opcode.LDRB: _compile_load,
    Opcode.LDG: _compile_ldg,
    Opcode.STR: _compile_store, Opcode.STRB: _compile_store,
    Opcode.IRG: _compile_irg,
    Opcode.ADDG: _compile_tag_arith, Opcode.SUBG: _compile_tag_arith,
}


def _compile_block(ctx: _Context, block: BasicBlock) -> Tuple[Step, ...]:
    """``block``'s instructions as steps, in order."""
    steps = []
    for instr in block.instructions:
        compiler = _COMPILERS.get(instr.op)
        step = compiler(ctx, instr) if compiler is not None else None
        if step is not None:
            steps.append(step)
    return tuple(steps)


def analyze(program: Program,
            secret_ranges: Sequence[Tuple[int, int]] = (),
            cfg: Optional[CFG] = None,
            stale_loads: Iterable[int] = (),
            options: Optional["AnalysisOptions"] = None) -> TaintResult:
    """Run the dataflow to a fixed point and return the recorded facts.

    ``secret_ranges`` are untagged [start, end) byte ranges holding planted
    secrets (for attack PoCs, the :class:`~repro.attacks.common
    .AttackProgram`'s secret); ``stale_loads`` marks load addresses whose
    results should carry the ``stale`` flag (the MDS pass-2 re-run).
    ``options`` may carry a summary cache, which memoizes region answers
    and does not change the facts.
    """
    from repro.analysis.modular.summaries import modular_analysis
    return modular_analysis(program, secret_ranges, cfg, stale_loads,
                            options).result


def _provenance(value: Value) -> str:
    """A value's taint provenance label (``const`` when untainted)."""
    flags = [name for name in ("attacker", "secret", "loaded", "stale")
             if getattr(value, name)]
    return "+".join(flags) if flags else "const"


def _emit_taint_coverage(facts: TaintResult, sink) -> None:
    """One ``taint:<provenance>:<transmitter>`` edge per tainted fact.

    Emitted only for the assembled result (never inside the fixpoint),
    and only when a sink is installed — the fuzzer's coverage
    signal for "the dataflow moved taint somewhere new".
    """
    for fact in facts.loads.values():
        if fact.address.secret or fact.address.stale:
            sink(hooks.taint_feature(_provenance(fact.address), "cache"))
    for store in facts.stores.values():
        if store.data.secret or store.data.stale:
            sink(hooks.taint_feature(_provenance(store.data), "store"))
    for value in facts.contention.values():
        if value.secret or value.stale:
            sink(hooks.taint_feature(_provenance(value), "contention"))
    for branch in facts.branches.values():
        condition = branch.condition
        if condition is not None and (condition.secret or condition.stale):
            sink(hooks.taint_feature(_provenance(condition), "branch"))
