"""Forward taint and bounded-constant dataflow over a program's CFG.

The analysis walks the CFG to a fixed point propagating one :class:`Value`
per architectural register.  A value is a *bounded constant set* (collapsed
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
flows to every return site.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple)

from repro.analysis import hooks
from repro.analysis.cfg import CFG, BasicBlock, build_cfg
from repro.isa.instructions import FLAGS_REG, INSTR_BYTES, Instruction, Opcode
from repro.isa.program import DataSegment, Program
from repro.isa.registers import XZR
from repro.mte.tags import key_of, strip_tag, with_key

MASK64 = (1 << 64) - 1
#: Constant sets larger than this collapse to "unknown" (widening).
CONST_CAP = 16
#: Pairwise constant evaluation is skipped past this operand product.
PAIR_CAP = 256
#: Segments larger than this are not summarized for unknown-offset loads.
SUMMARY_CAP = 64 * 1024


@dataclass(frozen=True)
class Value:
    """One abstract register value: bounded constants plus taint flags."""

    consts: Optional[Tuple[int, ...]] = None
    attacker: bool = False
    secret: bool = False
    loaded: bool = False
    stale: bool = False

    def join(self, other: "Value") -> "Value":
        """Least upper bound of two values."""
        if self is other or self == other:
            return self
        consts: Optional[Tuple[int, ...]]
        if self.consts is None or other.consts is None:
            consts = None
        else:
            merged = set(self.consts) | set(other.consts)
            consts = tuple(sorted(merged)) if len(merged) <= CONST_CAP else None
        return Value(consts,
                     self.attacker or other.attacker,
                     self.secret or other.secret,
                     self.loaded or other.loaded,
                     self.stale or other.stale)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(name[0] for name in
                        ("attacker", "secret", "loaded", "stale")
                        if getattr(self, name))
        if self.consts is None:
            return f"Value(?{',' + flags if flags else ''})"
        shown = ",".join(f"{c:#x}" for c in self.consts[:4])
        more = "…" if len(self.consts) > 4 else ""
        return f"Value({{{shown}{more}}}{',' + flags if flags else ''})"


#: The no-information value (arbitrary, untainted).
UNKNOWN = Value()


def const_value(*values: int) -> Value:
    """An exact constant value (or small constant set)."""
    return Value(tuple(sorted({v & MASK64 for v in values})))


#: ``const_value(0)``: XZR, and AND/MUL with a zero operand.
_ZERO = const_value(0)


def _imm_value(instr: Instruction) -> Value:
    """``const_value(instr.imm or 0)``: the immediate operand."""
    return Value(((instr.imm or 0) & MASK64,))


def _tainted(consts: Optional[Tuple[int, ...]], *sources: Value) -> Value:
    attacker = secret = loaded = stale = False
    for source in sources:
        attacker |= source.attacker
        secret |= source.secret
        loaded |= source.loaded
        stale |= source.stale
    return Value(consts, attacker, secret, loaded, stale)


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

_ALU_OPS = frozenset(_EVAL)


def _binop(op: Opcode, a: Value, b: Value) -> Value:
    """Abstract binary ALU transfer (with absorbing zero for AND/MUL)."""
    if op in (Opcode.AND, Opcode.MUL) and ((0,) in (a.consts, b.consts)):
        # The result is exactly zero no matter the other operand; the
        # dependency is purely microarchitectural, so taint drops too
        # (needed for the RIDL delay chain's AND-with-XZR collapse).
        return _ZERO
    consts: Optional[Tuple[int, ...]] = None
    if (a.consts is not None and b.consts is not None
            and len(a.consts) * len(b.consts) <= PAIR_CAP):
        fn = _EVAL[op]
        vals = {fn(x, y) & MASK64 for x in a.consts for y in b.consts}
        if len(vals) <= CONST_CAP:
            consts = tuple(sorted(vals))
    return Value(consts, a.attacker or b.attacker, a.secret or b.secret,
                 a.loaded or b.loaded, a.stale or b.stale)


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


State = Dict[int, Value]


def _read(state: State, reg: Optional[int]) -> Value:
    if reg is None:
        return UNKNOWN
    if reg == XZR:
        return _ZERO
    return state.get(reg, UNKNOWN)


def _write(state: State, reg: Optional[int], value: Value) -> None:
    if reg is not None and reg != XZR:
        state[reg] = value


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
        elif old is not value:
            # ``old.join`` keeps ``old`` itself when nothing changes, so
            # the caller's state comparison meets the same object.
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
    return Value(None, value.attacker, value.secret, value.loaded,
                 value.stale)


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

    result = Value(consts=consts, attacker=True,
                   secret=bool(secret_accesses), loaded=True,
                   stale=instr.address in ctx.stale_loads)
    fact = LoadFact(instr=instr, address=addr_val, result=result, width=width,
                    resolved=resolved,
                    secret_accesses=tuple(secret_accesses),
                    line_crossing=crossing)
    return result, fact


def _address_value(state: State, instr: Instruction) -> Tuple[Value, Value, Value]:
    base = _read(state, instr.rn)
    if instr.rm is not None:
        offset = _read(state, instr.rm)
    else:
        offset = _imm_value(instr)
    return _binop(Opcode.ADD, base, offset), base, offset


def _step(ctx: _Context, instr: Instruction, state: State,
          facts: Optional[TaintResult]) -> None:
    """Transfer function for one instruction (mutates ``state``)."""
    op = instr.op
    addr = instr.address
    if op is Opcode.MOV:
        if instr.rn is None:
            _write(state, instr.rd, _imm_value(instr))
        else:
            _write(state, instr.rd, _read(state, instr.rn))
    elif op in _ALU_OPS:
        rhs = (_read(state, instr.rm) if instr.rm is not None
               else _imm_value(instr))
        lhs = _read(state, instr.rn)
        _write(state, instr.rd, _binop(op, lhs, rhs))
        if facts is not None and op in (Opcode.MUL, Opcode.UDIV):
            facts.contention[addr] = _tainted(None, lhs, rhs)
    elif op is Opcode.CMP:
        rhs = (_read(state, instr.rm) if instr.rm is not None
               else _imm_value(instr))
        state[FLAGS_REG] = _tainted(None, _read(state, instr.rn), rhs)
    elif op in (Opcode.BL, Opcode.BLR):
        if facts is not None and op is Opcode.BLR:
            facts.branches[addr] = BranchFact(instr,
                                              target=_read(state, instr.rn))
        state[30] = const_value(addr + INSTR_BYTES)
    elif op is Opcode.BR:
        if facts is not None:
            facts.branches[addr] = BranchFact(instr,
                                              target=_read(state, instr.rn))
    elif op is Opcode.B_COND:
        if facts is not None:
            facts.branches[addr] = BranchFact(
                instr, condition=state.get(FLAGS_REG, UNKNOWN))
    elif op in (Opcode.CBZ, Opcode.CBNZ):
        if facts is not None:
            facts.branches[addr] = BranchFact(
                instr, condition=_read(state, instr.rn))
    elif op is Opcode.RET:
        # No dataflow effect, but the RSB windows key off this fact.
        if facts is not None:
            facts.branches[addr] = BranchFact(instr)
    elif op in (Opcode.LDR, Opcode.LDRB):
        addr_val, base, offset = _address_value(state, instr)
        result, fact = _resolve_load(ctx, instr, addr_val, (base, offset),
                                     instr.memory_bytes)
        _write(state, instr.rd, result)
        if facts is not None:
            facts.loads[addr] = fact
    elif op is Opcode.LDG:
        # The loaded allocation tag is data-dependent on memory but never a
        # pointer/secret; model it as an unknown loaded value.
        _write(state, instr.rd,
               replace(_tainted(None, _read(state, instr.rn)), loaded=True))
    elif op in (Opcode.STR, Opcode.STRB):
        addr_val, _, _ = _address_value(state, instr)
        if facts is not None:
            facts.stores[addr] = StoreFact(
                instr=instr, address=addr_val,
                data=_read(state, instr.rd), width=instr.memory_bytes,
                pointers=addr_val.consts or ())
    elif op is Opcode.IRG:
        _write(state, instr.rd, replace(_read(state, instr.rn), consts=None))
    elif op in (Opcode.ADDG, Opcode.SUBG):
        src = _read(state, instr.rn)
        sign = 1 if op is Opcode.ADDG else -1
        consts = None
        if src.consts is not None:
            moved = set()
            for pointer in src.consts:
                base_addr = (pointer + sign * (instr.imm or 0)) & MASK64
                key = (key_of(pointer) + sign * (instr.tag_imm or 0)) & 0xF
                moved.add(with_key(base_addr, key))
            if len(moved) <= CONST_CAP:
                consts = tuple(sorted(moved))
        _write(state, instr.rd, replace(src, consts=consts))
    # STG, B, RET, NOP, BTI, SB, HALT: no register dataflow effect.


def _run_block(ctx: _Context, block: BasicBlock, state: State,
               facts: Optional[TaintResult]) -> State:
    for instr in block.instructions:
        _step(ctx, instr, state, facts)
    return state


def analyze(program: Program,
            secret_ranges: Sequence[Tuple[int, int]] = (),
            cfg: Optional[CFG] = None,
            stale_loads: Iterable[int] = ()) -> TaintResult:
    """Run the dataflow to a fixed point and return the recorded facts.

    ``secret_ranges`` are untagged [start, end) byte ranges holding planted
    secrets (for attack PoCs, the :class:`~repro.attacks.common
    .AttackProgram`'s secret); ``stale_loads`` marks load addresses whose
    results should carry the ``stale`` flag (the MDS pass-2 re-run).
    """
    program.link()
    if cfg is None:
        cfg = build_cfg(program)
    ctx = _Context(program, cfg, tuple(secret_ranges), frozenset(stale_loads))

    # Return sites: every RET's out-state flows to the block after each call.
    ret_targets = []
    for instr in program.instructions:
        if instr.is_call:
            site = instr.address + INSTR_BYTES
            if site in cfg.block_of_addr:
                ret_targets.append(cfg.block_of_addr[site])

    entry = cfg.entry_block.index
    in_states: Dict[int, State] = {entry: {}}
    widenings: Dict[Tuple[int, int], int] = {}
    work = deque([entry])
    while work:
        index = work.popleft()
        block = cfg.blocks[index]
        out = _run_block(ctx, block, dict(in_states[index]), None)
        # The fall edge out of a call is the *return site*: caller state
        # reaches it through the callee (call edge -> ... -> RET below),
        # not directly — flowing the pre-call state across would wipe the
        # callee's effects at every join.  Keep the direct edge only when
        # the call has no resolvable callee at all.
        term = block.terminator
        callee_known = term.is_call and any(
            kind in ("call", "indirect") for _, kind in block.successors)
        succs = [succ for succ, kind in block.successors
                 if not (callee_known and kind == "fall")]
        if term.is_return:
            succs.extend(ret_targets)
        for succ in succs:
            start = cfg.blocks[succ].start

            def note(reg: int, _start: int = start) -> None:
                key = (_start, reg)
                widenings[key] = widenings.get(key, 0) + 1

            joined = _join_states(in_states.get(succ), out, note)
            if succ not in in_states or joined != in_states[succ]:
                in_states[succ] = joined
                if succ not in work:
                    work.append(succ)

    facts = TaintResult(program=program, cfg=cfg,
                        secret_ranges=ctx.secret_ranges,
                        widenings=widenings)
    for index, state in in_states.items():
        _run_block(ctx, cfg.blocks[index], dict(state), facts)
    sink = hooks.coverage_sink()
    if sink is not None:
        _emit_taint_coverage(facts, sink)
    return facts


def _provenance(value: Value) -> str:
    """A value's taint provenance label (``const`` when untainted)."""
    flags = [name for name in ("attacker", "secret", "loaded", "stale")
             if getattr(value, name)]
    return "+".join(flags) if flags else "const"


def _emit_taint_coverage(facts: TaintResult, sink) -> None:
    """One ``taint:<provenance>:<transmitter>`` edge per tainted fact.

    Emitted only from the final fact-recording pass (never inside the
    fixpoint), and only when a sink is installed — the fuzzer's coverage
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
