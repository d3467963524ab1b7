"""Automatic minimal repair of statically-found transient-leak gadgets.

Janus-style consumption of the spec-lint findings: for every gadget that
still leaks under the target :class:`~repro.config.DefenseKind`, pick the
*cheapest sufficient* fix, apply it through the relocating rewriter
(:mod:`repro.analysis.rewrite`), and re-verify.  Three fix kinds, in cost
order:

- **RETAG** — MTE re-tagging to force a cross-allocation access: move the
  victim allocation onto a fresh tag and re-key every *legitimate* pointer
  literal into it.  Zero inserted instructions; flips the static
  ``sanitized`` verdict, so it is sufficient only when the target defense
  actually checks tags (SpecASan / SpecASan+CFI).  It is also the only fix
  that reaches the MDS gadgets (SBB/LFB), whose leaking loads are bound to
  commit and therefore uncuttable by barriers.
- **MASK** — load hardening (``array_index_nospec``): an ``AND`` of the
  access's index register with a power-of-two bound of the victim array,
  inserted right before the ACCESS, so the speculative address can no
  longer reach the secret.  One ALU instruction; clobbers the index
  register, which is fine for the bounds-check shape (the index is dead
  after the access) and is caught by re-verification otherwise.
- **BARRIER** — an ``SB`` speculation barrier at a min-cut of the gadget's
  speculation-window CFG: the latest single point that dominates every
  transmitter, so exactly one barrier severs every entry-to-transmitter
  path while serializing as late as possible.

Selection is counterexample-guided rather than trusted: each candidate is
*trial-applied* and the whole program re-linted; a fix is accepted only if
the gadget no longer leaks under the target defense **and** no new gadget
appeared (identities compared through the rewrite's address translation).
Already-sanitized gadgets are never touched.  If no candidate survives the
trial, :class:`~repro.errors.AnalysisError` is raised — a repair the
analysis cannot re-verify is not a repair.

:func:`measure_overhead` closes the performance half of the loop: the
original program and each incremental repair stage run on the simulator
under the target defense, and the per-fix cycle deltas land in a
:class:`~repro.telemetry.registry.StatsRegistry` scope
(``repair.<subject>.fix<N>.*``) so the CLI's overhead table and the
campaign's repair-overhead cells share one accounting path.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import successors
from repro.analysis.gadgets import Gadget, find_gadgets, leaks_under
from repro.analysis.rewrite import ProgramRewriter, RewriteResult, \
    barrier_of, mask_of
from repro.analysis.taint import TaintResult, analyze
from repro.analysis.windows import EntryKind, Window, compute_windows
from repro.config import CORTEX_A76, CoreConfig, DefenseKind, MTEConfig
from repro.errors import AnalysisError
from repro.isa.instructions import Opcode
from repro.isa.program import DataSegment, Program
from repro.mte.tags import key_of, strip_tag, with_key
from repro.telemetry.registry import StatsRegistry, ratio

#: Safety valve: more rounds than any sane program needs (each round
#: repairs at least one gadget or raises).
MAX_ROUNDS = 64

#: The gadget classes whose leak rides a speculation window (cuttable).
WINDOW_KINDS = (EntryKind.PHT, EntryKind.BTB, EntryKind.RSB, EntryKind.STL)


class FixKind(enum.Enum):
    """The repair primitives, cheapest first."""

    RETAG = "retag"      # re-tag the victim allocation (0 instructions)
    MASK = "mask"        # index masking before the ACCESS (1 ALU op)
    BARRIER = "barrier"  # SB at a window min-cut (serializes)


#: Trial order; ``plan`` walks this list and keeps the first sufficient fix.
FIX_ORDER = (FixKind.RETAG, FixKind.MASK, FixKind.BARRIER)


@dataclass(frozen=True)
class GadgetId:
    """Rewrite-stable gadget identity (addresses in *current* coordinates)."""

    kind: str
    source: int
    entry: int

    @staticmethod
    def of(gadget: Gadget) -> "GadgetId":
        return GadgetId(gadget.kind.value, gadget.source, gadget.entry)

    def translated(self, rewrite: RewriteResult) -> "GadgetId":
        return GadgetId(self.kind, rewrite.translate(self.source),
                        rewrite.translate(self.entry))


@dataclass
class Fix:
    """One accepted repair step."""

    kind: FixKind
    #: The repaired gadget, in the coordinates of the program *before* this
    #: fix was applied.
    gadget: Gadget
    detail: str
    #: Program state after this fix (fixes chain: each applies on top of
    #: the previous one's program).
    program: Program
    #: New-program addresses of any inserted instructions.
    inserted: Tuple[int, ...] = ()

    def render(self) -> str:
        return (f"[{self.kind.value}] {self.gadget.kind.value} gadget "
                f"@ {self.gadget.source:#x}: {self.detail}")


@dataclass
class RepairResult:
    """The full analyze -> fix -> re-verify outcome for one program."""

    original: Program
    repaired: Program
    defense: DefenseKind
    fixes: List[Fix]
    gadgets_before: List[Gadget]
    gadgets_after: List[Gadget]

    @property
    def leaking_before(self) -> List[Gadget]:
        return [g for g in self.gadgets_before
                if leaks_under(g, self.defense)]

    @property
    def leaking_after(self) -> List[Gadget]:
        return [g for g in self.gadgets_after
                if leaks_under(g, self.defense)]

    @property
    def verified(self) -> bool:
        """Static verdict flipped: nothing leaks under the target defense."""
        return not self.leaking_after

    def render(self) -> str:
        lines = [f"repair target: {self.defense.value} — "
                 f"{len(self.leaking_before)} leaking gadget(s), "
                 f"{len(self.fixes)} fix(es)"]
        lines.extend(f"  {fix.render()}" for fix in self.fixes)
        verdict = ("all gadgets sanitized" if self.verified
                   else f"{len(self.leaking_after)} STILL LEAKING")
        lines.append(f"  re-lint: {verdict}")
        return "\n".join(lines)


# -- candidate construction ---------------------------------------------------


def _segment_of(program: Program, address: int) -> Optional[DataSegment]:
    for seg in program.data_segments:
        if seg.address <= address < seg.address + len(seg.data):
            return seg
    return None


def _pointer_literals(program: Program, seg: DataSegment) -> Set[int]:
    """Every immediate / aligned 64-bit data word pointing into ``seg``."""
    found: Set[int] = set()

    def probe(value: int) -> None:
        value &= (1 << 64) - 1
        if seg.address <= strip_tag(value) < seg.address + len(seg.data):
            found.add(value)

    for instr in program.instructions:
        if instr.imm is not None and instr.imm >= 0:
            probe(instr.imm)
    for other in program.data_segments:
        data = other.data
        for offset in range(0, len(data) - len(data) % 8, 8):
            (word,) = struct.unpack_from("<Q", data, offset)
            probe(word)
    return found


def _victim_pointers(taint: TaintResult, gadget: Gadget) -> Tuple[int, ...]:
    """The tagged pointers identifying the allocation a RETAG must move."""
    if gadget.kind is EntryKind.SBB:
        store = taint.stores.get(gadget.source)
        return store.pointers if store is not None else ()
    return tuple(p for p, _, _ in gadget.secret_accesses)


def _retag_candidate(program: Program, taint: TaintResult, gadget: Gadget,
                     mte: MTEConfig) -> Optional[Tuple[ProgramRewriter, str]]:
    """Move the victim allocation to a fresh tag; re-key its literals.

    Every pointer literal into the retagged segment follows the move (the
    victim's own accesses stay architecturally clean); anything reaching
    the segment through *another* allocation's pointer — the out-of-bounds
    or aliased attacker access — is left behind on the old key, turning
    the same-key residual into a cross-allocation mismatch.
    """
    pointers = _victim_pointers(taint, gadget)
    if not pointers:
        return None
    segments: List[DataSegment] = []
    for pointer in pointers:
        seg = _segment_of(program, strip_tag(pointer))
        if seg is not None and seg not in segments:
            segments.append(seg)
    if not segments:
        return None
    used = {seg.tag for seg in program.data_segments if seg.tag is not None}
    used.update(key_of(p) for p in pointers)
    fresh = next((t for t in range(1, mte.num_tags) if t not in used), None)
    if fresh is None:
        return None
    rewriter = ProgramRewriter(program)
    rekeyed = 0
    for seg in segments:
        rewriter.retag_segment(seg.name, fresh)
        for value in sorted(_pointer_literals(program, seg)):
            if key_of(value) != fresh:
                rewriter.rewrite_value(value, with_key(value, fresh))
                rekeyed += 1
    names = "+".join(seg.name for seg in segments)
    detail = (f"retag {names} -> tag {fresh}, "
              f"{rekeyed} pointer literal(s) re-keyed")
    return rewriter, detail


def _next_pow2(value: int) -> int:
    power = 1
    while power < value:
        power <<= 1
    return power


def _mask_candidate(program: Program, taint: TaintResult,
                    gadget: Gadget) -> Optional[Tuple[ProgramRewriter, str]]:
    """``AND index, index, #mask`` before the ACCESS load."""
    if gadget.kind not in WINDOW_KINDS:
        return None
    for address, load in sorted(taint.loads.items()):
        if not load.secret_accesses or load.instr.rm is None:
            continue
        if address not in set(gadget.transmitters) \
                and not _in_window(taint, gadget, address):
            continue
        if load.address.consts is None:
            continue
        in_bounds = [strip_tag(c) for c in load.address.consts
                     if not _in_secret(taint, strip_tag(c))]
        if not in_bounds:
            continue
        seg = _segment_of(program, min(in_bounds))
        if seg is None:
            continue
        mask = _next_pow2(len(seg.data)) - 1
        # The mask must preserve every in-bounds offset (no committed-path
        # behaviour change for resolved accesses).
        if any((c - seg.address) & mask != (c - seg.address)
               for c in in_bounds
               if seg.address <= c < seg.address + len(seg.data)):
            continue
        rewriter = ProgramRewriter(program)
        rewriter.insert_before(address, [mask_of(
            load.instr.rm, mask, note=f"repair: index &= {mask:#x}")])
        detail = (f"mask X{load.instr.rm} &= {mask:#x} "
                  f"before ACCESS @ {address:#x}")
        return rewriter, detail
    return None


def _in_secret(taint: TaintResult, address: int) -> bool:
    return any(lo <= address < hi for lo, hi in taint.secret_ranges)


def _in_window(taint: TaintResult, gadget: Gadget, address: int) -> bool:
    window = _gadget_window(taint, gadget)
    return window is not None and address in window.body


def _gadget_window(taint: TaintResult, gadget: Gadget,
                   core: Optional[CoreConfig] = None) -> Optional[Window]:
    for window in compute_windows(taint, core or CORTEX_A76.core):
        if (window.kind is gadget.kind and window.source == gadget.source
                and window.entry == gadget.entry):
            return window
    return None


def _window_cut_point(program: Program, window: Window,
                      transmitters: Sequence[int]) -> Optional[int]:
    """The latest single address dominating every transmitter.

    A vertex min-cut with unit costs over the window's CFG: the common
    dominators of the transmitter set form a chain from the entry, and the
    deepest element is the single insertion point that severs every
    entry-to-transmitter path while keeping the barrier as late (cheap) as
    possible.  The entry dominates every transmitter it reaches.  A body
    that runs past a barrier (whose out-edges this graph leaves out) can
    hold a transmitter the entry does not reach; when such transmitters
    share no dominator with the rest there is no single cut: ``None``.
    """
    body = list(window.body)
    body_set = set(body)
    edges: Dict[int, List[int]] = {a: [] for a in body}
    preds: Dict[int, List[int]] = {a: [] for a in body}
    for address in body:
        instr = program.fetch(address)
        if instr is None or instr.is_barrier or instr.is_return \
                or instr.op in (Opcode.BR, Opcode.BLR):
            continue
        for succ, kind in successors(program, instr):
            if kind != "indirect" and succ in body_set:
                edges[address].append(succ)
                preds[succ].append(address)

    entry = window.entry
    full: Set[int] = set(body)
    dom: Dict[int, Set[int]] = {a: ({a} if a == entry else set(full))
                                for a in body}
    changed = True
    while changed:
        changed = False
        for address in body:
            if address == entry:
                continue
            incoming = [dom[p] for p in preds[address]]
            new = ({address} | set.intersection(*incoming)
                   if incoming else {address})
            if new != dom[address]:
                dom[address] = new
                changed = True

    inside = [t for t in transmitters if t in body_set] or [entry]
    common = set.intersection(*(dom[t] for t in inside))
    if not common:
        return None
    # Common dominators of a set are totally ordered by their own dominator
    # sets; the largest set is the deepest (latest) point.
    return max(sorted(common), key=lambda a: (len(dom[a]), -a))


def _barrier_candidate(program: Program, taint: TaintResult, gadget: Gadget,
                       core: CoreConfig
                       ) -> Optional[Tuple[ProgramRewriter, str]]:
    if gadget.kind not in WINDOW_KINDS:
        return None
    window = _gadget_window(taint, gadget, core)
    if window is None:  # pragma: no cover - defensive
        cuts = list(gadget.transmitters)
    else:
        cut = _window_cut_point(program, window, gadget.transmitters)
        if cut is None:
            return None
        cuts = [cut]
    rewriter = ProgramRewriter(program)
    for cut in cuts:
        rewriter.insert_before(cut, [barrier_of(
            note=f"repair: cut {gadget.kind.value} window")])
    where = ",".join(f"{c:#x}" for c in cuts)
    detail = (f"SB before {where} (cuts {len(gadget.transmitters)} "
              f"transmitter(s))")
    return rewriter, detail


# -- the planning loop --------------------------------------------------------


def _candidates(defense: DefenseKind,
                kind: EntryKind) -> Tuple[FixKind, ...]:
    """Which fix kinds can possibly help ``kind`` under ``defense``."""
    tag_checked = defense in (DefenseKind.SPECASAN, DefenseKind.SPECASAN_CFI)
    if kind in WINDOW_KINDS:
        order = [f for f in FIX_ORDER
                 if f is not FixKind.RETAG or tag_checked]
        return tuple(order)
    # MDS gadgets (SBB/LFB) are bound to commit: no window to cut, no index
    # to mask — only the tag machinery can stop them.
    return (FixKind.RETAG,) if tag_checked else ()


def _trial(program: Program, rewriter: ProgramRewriter, target: GadgetId,
           before: Sequence[Gadget], secret_ranges: Sequence[Tuple[int, int]],
           core: CoreConfig, defense: DefenseKind
           ) -> Optional[Tuple[Program, List[Gadget], Tuple[int, ...]]]:
    """Apply one staged candidate and re-lint; ``None`` if insufficient."""
    result = rewriter.apply()
    repaired = result.program
    after = find_gadgets(repaired, secret_ranges, core)
    after_ids = {GadgetId.of(g): g for g in after}
    translated = {GadgetId.of(g).translated(result) for g in before}
    if set(after_ids) - translated:
        return None  # the fix manufactured a new gadget
    survivor = after_ids.get(target.translated(result))
    if survivor is not None and leaks_under(survivor, defense):
        return None  # the gadget still leaks
    inserted = tuple(sorted(
        instr.address for instr in repaired.instructions
        if instr.address not in
        {result.translate(i.address) for i in program.instructions}))
    return repaired, after, inserted


def plan(program: Program, secret_ranges: Sequence[Tuple[int, int]] = (),
         core: Optional[CoreConfig] = None,
         mte: Optional[MTEConfig] = None,
         defense: DefenseKind = DefenseKind.SPECASAN) -> RepairResult:
    """Repair every gadget that leaks under ``defense``; verify statically.

    Raises :class:`~repro.errors.AnalysisError` when some leaking gadget
    has no sufficient fix (e.g. an MDS gadget repaired for a target
    defense without tag checks).
    """
    core = core or CORTEX_A76.core
    mte = mte or CORTEX_A76.mte
    program.link()
    gadgets_before = find_gadgets(program, secret_ranges, core)
    current = program
    gadgets = gadgets_before
    fixes: List[Fix] = []
    for _ in range(MAX_ROUNDS):
        leaking = [g for g in gadgets if leaks_under(g, defense)]
        if not leaking:
            break
        gadget = leaking[0]
        taint = analyze(current, tuple(secret_ranges))
        accepted = None
        for fix_kind in _candidates(defense, gadget.kind):
            if fix_kind is FixKind.RETAG:
                candidate = _retag_candidate(current, taint, gadget, mte)
            elif fix_kind is FixKind.MASK:
                candidate = _mask_candidate(current, taint, gadget)
            else:
                candidate = _barrier_candidate(current, taint, gadget, core)
            if candidate is None:
                continue
            rewriter, detail = candidate
            trial = _trial(current, rewriter, GadgetId.of(gadget), gadgets,
                           secret_ranges, core, defense)
            if trial is None:
                continue
            repaired, after, inserted = trial
            accepted = Fix(kind=fix_kind, gadget=gadget, detail=detail,
                           program=repaired, inserted=inserted)
            gadgets = after
            current = repaired
            break
        if accepted is None:
            raise AnalysisError(
                f"no sufficient fix for {gadget.kind.value} gadget @ "
                f"{gadget.source:#x} under {defense.value} "
                f"(tried: {[f.value for f in _candidates(defense, gadget.kind)]})")
        fixes.append(accepted)
    else:  # pragma: no cover - MAX_ROUNDS is far beyond any real program
        raise AnalysisError("repair did not converge")
    return RepairResult(original=program, repaired=current, defense=defense,
                        fixes=fixes, gadgets_before=gadgets_before,
                        gadgets_after=gadgets)


# -- overhead accounting ------------------------------------------------------


def _run_cycles(program: Program, defense: DefenseKind,
                config=None, max_cycles: int = 200_000) -> int:
    """Cycles to completion on the simulator under ``defense``."""
    from repro.errors import DeadlockError, SimulationError
    from repro.system import build_system

    system = build_system((config or CORTEX_A76).with_defense(defense))
    core = system.prepare(program)
    try:
        core.run(max_cycles=max_cycles)
    except (DeadlockError, SimulationError):
        pass
    return core.cycle


def measure_overhead(result: RepairResult, subject: str = "program",
                     config=None, max_cycles: int = 200_000) -> StatsRegistry:
    """Run the unrepaired program and every incremental repair stage under
    the target defense; return the per-fix overhead registry."""
    baseline = _run_cycles(result.original, result.defense, config,
                           max_cycles)
    stages = []
    for fix in result.fixes:
        cycles = _run_cycles(fix.program, result.defense, config, max_cycles)
        stages.append((f"{fix.kind.value} @ {fix.gadget.source:#x}", cycles))
    return overhead_registry(subject.replace("/", "-"), baseline, stages)


def overhead_registry(subject: str, baseline_cycles: int,
                      stage_cycles: Sequence[Tuple[str, int]]
                      ) -> StatsRegistry:
    """Per-fix cycle-overhead accounting in a telemetry registry.

    ``stage_cycles`` holds ``(fix label, cycles)`` for the program after
    each incremental fix; the registry exposes, per fix, the incremental
    cycle delta and the cumulative overhead relative to the unrepaired
    baseline — the numbers the ``--repair`` table prints.
    """
    registry = StatsRegistry()
    scope = registry.scope(f"repair.{subject}")
    scope.scalar("baseline_cycles",
                 "unrepaired program, target defense").value = baseline_cycles
    previous = baseline_cycles
    for index, (label, cycles) in enumerate(stage_cycles, start=1):
        fix_scope = scope.scope(f"fix{index}")
        stat = fix_scope.scalar("cycles", f"after {label}")
        stat.value = cycles
        delta = cycles - previous
        fix_scope.scalar("delta_cycles",
                         "cycles added by this fix").value = delta
        fix_scope.formula(
            "overhead",
            (lambda c=cycles, b=baseline_cycles: ratio(c - b, b)),
            "cumulative overhead vs baseline")
        previous = cycles
    if stage_cycles:
        scope.scalar("repaired_cycles",
                     "fully repaired program").value = stage_cycles[-1][1]
        scope.formula(
            "overhead",
            (lambda c=stage_cycles[-1][1], b=baseline_cycles:
             ratio(c - b, b)),
            "total repair overhead vs baseline")
    return registry
