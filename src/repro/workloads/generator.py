"""Synthetic-workload generator.

Turns a :class:`~repro.workloads.profiles.WorkloadProfile` into a runnable
:class:`~repro.isa.program.Program`: a main loop whose body is a seeded
random sequence of work items drawn from the profile's instruction mix,
operating over an MTE-tagged heap laid out at build time (the tagging
allocator plays the role of the Scudo/glibc toolchain support of §5.2).

Work-item kinds:

- ``alu`` / ``mul`` / ``div`` — register arithmetic chains;
- ``load`` — either a strided stream over the working set or a dependent
  pointer-chase step through a random cyclic permutation;
- ``store`` — strided stream writes;
- ``branch`` — a data-dependent conditional over a decision-byte table
  (the profile's ``branch_entropy`` sets how many bytes are coin flips);
- ``call`` — direct or function-pointer-indirect calls to BTI-padded
  helpers (exercising the RSB, BTB, and SpecCFI's landing-pad checks).
"""

from __future__ import annotations

import random
import struct
import sys
from array import array
from dataclasses import dataclass
from typing import List, Optional

from repro.config import MTEConfig
from repro.rng import workload_stream
from repro.isa.builder import ProgramBuilder
from repro.isa.program import DataSegment, Program
from repro.mte.allocator import TaggedHeap
from repro.mte.tags import with_key
from repro.workloads.profiles import WorkloadProfile

#: Where workload heaps live (per-thread heaps are offset from this).
HEAP_BASE = 0x40000
#: Size of the branch-decision table (power of two).
DECISION_BYTES = 4096
KB_ = 1024


@dataclass
class GeneratedWorkload:
    """A generated program plus metadata the harness reports."""

    name: str
    program: Program
    iterations: int
    body_items: int
    seed: int


#: Registers the body rotates through for ALU work and load destinations.
_POOL = ("X4", "X5", "X6", "X7", "X8", "X9")


def _emit_helpers(b: ProgramBuilder, count: int, rng: random.Random) -> List[str]:
    """Small BTI-padded helper functions; returns their labels."""
    labels = []
    for index in range(count):
        label = f"helper{index}"
        b.label(label)
        b.bti(note="indirect-call landing pad")
        for _ in range(rng.randrange(2, 5)):
            op = rng.choice(("add", "eor", "lsr"))
            getattr(b, op)("X0", "X0", imm=rng.randrange(1, 7))
        b.ret()
        labels.append(label)
    return labels


def generate(profile: WorkloadProfile, seed: int = 0,
             target_instructions: int = 20_000,
             heap_base: int = HEAP_BASE,
             shared_base: Optional[int] = None,
             shared_size: int = 0,
             shared_fraction: float = 0.0,
             shared_store_fraction: float = 0.0,
             mte_instrumented: bool = False,
             mte: Optional[MTEConfig] = None) -> GeneratedWorkload:
    """Generate a deterministic program for ``profile``.

    ``shared_*`` parameters are used by the PARSEC generator to direct a
    fraction of memory traffic at a region all threads map, producing real
    coherence traffic on the multicore system.

    ``mte_instrumented`` emits the MTE toolchain's tagging work (IRG/STG
    churn on a scratch allocation, occasional LDG checks) the way an
    MTE-enabled build would — only the SpecASan configurations run these
    binaries, which is where the paper's "baseline ARM MTE" overhead
    component comes from (§5.3).
    """
    rng = workload_stream(profile.name, seed)
    mte = mte or MTEConfig()
    b = ProgramBuilder()

    # ---- heap layout ------------------------------------------------------
    heap = TaggedHeap(heap_base, profile.working_set * 2 + 0x10000, mte)
    stream = heap.malloc(max(profile.working_set // 2, 4096))
    chase_nodes = max((profile.working_set // 2) // 8, 64)
    chase = heap.malloc(chase_nodes * 8)
    churn = heap.malloc(64)  # scratch granules the MTE churn retags
    # A small, L1-resident linked list (the hot-list pattern of real code):
    # its hops are fast loads whose addresses depend on prior loads — the
    # dependency chains taint-tracking defenses delay.
    hot_nodes = 256
    hot_chase = heap.malloc(hot_nodes * 8)
    stream_mask = _floor_pow2(stream.size) - 1
    # Small working sets walk element-wise (L1-resident once warm); large
    # ones walk line-wise, so the stream misses L1 and lives in L2 — the
    # cache behaviour that separates compute-bound from memory-bound SPEC.
    stream_stride = 8 if profile.working_set <= 64 * KB_ else 64

    # Pointer-chase chain: a random cyclic permutation, stored as *tagged*
    # pointers so every hop's key matches the chase array's lock.
    order = list(range(chase_nodes))
    rng.shuffle(order)
    chain = _chain(order, with_key(chase.address, chase.tag, mte.tag_bits))

    hot_order = list(range(hot_nodes))
    rng.shuffle(hot_order)
    hot_chain = _chain(hot_order, with_key(hot_chase.address, hot_chase.tag,
                                           mte.tag_bits))

    # Branch-decision table: `branch_entropy` of the bytes are coin flips,
    # the rest are strongly biased (always below the threshold).
    decisions = bytearray(DECISION_BYTES)
    for index in range(DECISION_BYTES):
        if rng.random() < profile.branch_entropy:
            decisions[index] = rng.randrange(256)
        else:
            decisions[index] = 0

    # ---- code --------------------------------------------------------------
    helpers = _emit_helpers(b, profile.num_functions, rng)

    b.label("main")
    b.li("X10", stream.pointer, note="stream array (tagged)")
    # Three independent pointer-chase chains (cursors start a third of the
    # permutation apart) — the memory-level parallelism real pointer-chasing
    # codes exhibit, and what delay-based defenses serialize away.
    chase_cursors = ("X11", "X25", "X26")
    for which, cursor in enumerate(chase_cursors):
        start = order[(which * chase_nodes) // len(chase_cursors)]
        b.li(cursor, with_key(chase.address + start * 8, chase.tag,
                              mte.tag_bits),
             note=f"pointer-chase cursor {which}")
    b.li("X28", with_key(hot_chase.address + hot_order[0] * 8, hot_chase.tag,
                         mte.tag_bits), note="hot-list cursor")
    b.li("X12", heap_base + profile.working_set * 2, note="decision table")
    decision_base = heap_base + profile.working_set * 2
    b.li("X13", decision_base + DECISION_BYTES, note="function-pointer table")
    functable_base = decision_base + DECISION_BYTES
    b.li("X15", 0, note="stream load index")
    b.li("X20", stream_mask // 2 & ~7, note="stream store index")
    b.li("X16", stream_mask & ~7, note="stream mask")
    b.li("X19", 0, note="decision index")
    b.li("X18", 0x1234, note="store payload")
    # Hot-region mask for data-dependent (a[b[i]]) indices: indirection in
    # real programs is local, and this also keeps wrong-path scatter from
    # thrashing the whole cache.
    hot_mask = (_floor_pow2(min(stream.size, 16 * 1024)) - 1) & ~7
    b.li("X24", hot_mask, note="dependent-load hot mask")
    b.li("X5", 1)
    b.li("X6", 3)
    if shared_base is not None and shared_size:
        b.li("X21", with_key(shared_base, 1, mte.tag_bits),
             note="shared region (tag 1)")
        b.li("X22", (seed * 1024) % max(shared_size, 1) & ~63,
             note="shared index (per-thread stagger)")
        b.li("X23", _floor_pow2(shared_size) - 1 & ~7, note="shared mask")

    body = _plan_body(profile, rng, shared_fraction, shared_store_fraction)
    # Iteration count comes from the *uninstrumented* body so the plain and
    # MTE-instrumented builds execute the same underlying work and their
    # cycle counts are directly comparable (the instrumented binary simply
    # carries the extra tagging instructions, like a real MTE build).
    body_cost = _estimate_cost(body)
    iterations = max(2, target_instructions // max(body_cost, 1))
    inner_trips = 8
    outer_trips = max(1, iterations // inner_trips)
    b.li("X29", outer_trips, note="outer loop counter")

    emitter = _BodyEmitter(b, rng, helpers, stream_stride=stream_stride,
                           churn_pointer=with_key(churn.address, churn.tag,
                                                  mte.tag_bits))
    b.label("outer")
    if mte_instrumented:
        # One allocation's worth of tagging work per outer trip — the
        # cadence of an MTE-instrumented allocator, not per-iteration noise.
        emitter.emit("mte_churn")
        emitter.emit("ldg_check")
    b.li("X14", inner_trips, note="inner loop counter")
    b.label("loop")
    for item in body:
        emitter.emit(item)
    b.sub("X14", "X14", imm=1)
    b.cbnz("X14", "loop")
    b.sub("X29", "X29", imm=1)
    b.cbnz("X29", "outer")
    b.halt()
    b.entry("main")

    program = b.build()

    # ---- data segments -------------------------------------------------------
    # Stream data: random words whose low byte is biased by the profile's
    # branch entropy — loaded-data branches (`lbranch`) read these, so their
    # predictability tracks the profile; the rest of each word scatters the
    # dependent (`dload`) accesses across the working set.
    assert stream.size % 8 == 0, "the stream segment holds whole words"
    getrandbits, rand01 = rng.getrandbits, rng.random
    randrange = rng.randrange
    high_fraction = profile.branch_entropy * 0.5
    stream_words = array("Q")
    append = stream_words.append
    for _ in range(stream.size // 8):
        word = getrandbits(56) << 8
        low = (128 + randrange(128) if rand01() < high_fraction
               else randrange(128))
        append(word | low)
    program.add_segment(DataSegment(
        "stream", stream.address, _little_endian(stream_words),
        tag=stream.tag))
    program.add_segment(DataSegment(
        "chase", chase.address, chain, tag=chase.tag))
    program.add_segment(DataSegment(
        "hot_chase", hot_chase.address, hot_chain, tag=hot_chase.tag))
    program.add_segment(DataSegment(
        "decisions", decision_base, bytes(decisions)))
    table = b"".join(struct.pack("<Q", program.address_of(label))
                     for label in helpers)
    program.add_segment(DataSegment("functable", functable_base, table))
    if shared_base is not None and shared_size:
        # The shared region may be registered by several threads; segments
        # are per-program so no overlap check fires across programs.
        program.add_segment(DataSegment(
            "shared", shared_base, bytes(shared_size), tag=1))
    return GeneratedWorkload(
        name=profile.name, program=program, iterations=iterations,
        body_items=len(body), seed=seed)


def _little_endian(words: array) -> bytes:
    """The 64-bit ``words`` as little-endian bytes (``struct`` ``<Q``)."""
    if sys.byteorder == "big":
        words.byteswap()
    return words.tobytes()


def _chain(order: List[int], base: int) -> bytes:
    """A cyclic pointer chain over 8-byte nodes at the tagged pointer
    ``base``: node ``order[i]`` points at node ``order[i + 1]`` (the last
    at the first).  Addresses stay below the key byte, so
    ``with_key(address + 8 * n, key) == with_key(address, key) + 8 * n``."""
    words = array("Q", bytes(8 * len(order)))
    for src, dst in zip(order, order[1:] + order[:1]):
        words[src] = base + 8 * dst
    return _little_endian(words)


def _floor_pow2(value: int) -> int:
    power = 1
    while power * 2 <= value:
        power *= 2
    return power


def _plan_body(profile: WorkloadProfile, rng: random.Random,
               shared_fraction: float = 0.0,
               shared_store_fraction: float = 0.0) -> List[str]:
    """Choose the work-item sequence for one loop body."""
    mix = profile.mix
    kinds, weights = zip(*mix.items())
    body: List[str] = []
    for _ in range(profile.body_items):
        if rng.random() < profile.call_fraction:
            body.append("icall" if rng.random() < profile.indirect_fraction
                        else "call")
            continue
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "load":
            if rng.random() < profile.pointer_chase:
                kind = "chase"
            elif rng.random() < profile.dependent_load:
                kind = "dload"
            elif rng.random() < shared_fraction:
                kind = "sload"
        elif kind == "store" and rng.random() < shared_store_fraction:
            kind = "sstore"
        elif kind == "branch" and rng.random() < profile.loaded_branch:
            kind = "lbranch"
        body.append(kind)
    # Guarded dependent bursts (`if (slow->field) walk hot list`) are
    # structural, scaled by the profile's indirection level: real pointer
    # codes hit this shape every few dozen instructions.
    for _ in range(round(profile.dependent_load * 8)):
        body.insert(rng.randrange(len(body) + 1), "gather")
    return body


#: Rough instruction cost per work item (used to size the loop count).
_ITEM_COST = {"alu": 1, "mul": 1, "div": 1, "load": 3, "chase": 1,
              "store": 3, "branch": 5, "call": 1, "icall": 2,
              "sload": 3, "sstore": 3, "dload": 2, "lbranch": 5,
              "gather": 6, "mte_churn": 2, "ldg_check": 1}


def _estimate_cost(body: List[str]) -> int:
    return sum(_ITEM_COST[item] for item in body) + 2  # loop overhead


class _BodyEmitter:
    """Emits loop-body work items, tracking dataflow between them.

    ALU work rotates over a register pool for ILP; loads deposit their
    results into the same pool so later arithmetic, branch conditions
    (``lbranch``), and addresses (``dload``) genuinely depend on memory —
    the dependencies STT taints and fences serialize.
    """

    CHASE_CURSORS = ("X11", "X25", "X26")

    def __init__(self, b: ProgramBuilder, rng: random.Random,
                 helpers: List[str], stream_stride: int = 8,
                 churn_pointer: int = 0):
        self.b = b
        self.rng = rng
        self.helpers = helpers
        self.stream_stride = stream_stride
        self.churn_pointer = churn_pointer
        self._next = 0
        self._next_chase = 0
        #: Most recent load destination (branch/dload dependency source).
        self.last_load = None

    def _dest(self) -> str:
        reg = _POOL[self._next % len(_POOL)]
        self._next += 1
        return reg

    def _src(self) -> str:
        return self.rng.choice(_POOL)

    def emit(self, item: str) -> None:
        b, rng = self.b, self.rng
        if item == "alu":
            op = rng.choice(("add", "eor", "orr", "sub"))
            if rng.random() < 0.5:
                getattr(b, op)(self._dest(), self._src(), rm=self._src())
            else:
                getattr(b, op)(self._dest(), self._src(),
                               imm=rng.randrange(1, 255))
        elif item == "mul":
            b.mul(self._dest(), self._src(), self._src())
        elif item == "div":
            b.udiv(self._dest(), self._src(), self._src())
        elif item == "load":
            dest = self._dest()
            b.ldr(dest, "X10", rm="X15", note="stream load")
            b.add("X15", "X15", imm=self.stream_stride, note="stream walk")
            b.and_("X15", "X15", "X16")
            self.last_load = dest
        elif item == "dload":
            index = self._dest()
            dest = self._dest()
            source = self.last_load or "X15"
            b.and_(index, source, "X24", note="loaded-data index (hot region)")
            b.ldr(dest, "X10", rm=index, note="dependent (a[b[i]]) load")
            self.last_load = dest
        elif item == "sload":
            dest = self._dest()
            b.ldr(dest, "X21", rm="X22", note="shared-region load")
            b.add("X22", "X22", imm=64)
            b.and_("X22", "X22", "X23")
            self.last_load = dest
        elif item == "sstore":
            b.str_("X18", "X21", rm="X22", note="shared-region store")
            b.add("X22", "X22", imm=64)
            b.and_("X22", "X22", "X23")
        elif item == "chase":
            if self._next_chase % 2 == 0:
                cursor = "X28"  # hot (L1-resident) list
                b.ldr(cursor, cursor, note="hot-list hop")
            else:
                cursor = self.CHASE_CURSORS[(self._next_chase // 2)
                                            % len(self.CHASE_CURSORS)]
                b.ldr(cursor, cursor, note="pointer-chase hop")
                # The `while (node)` guard every pointer walk carries: never
                # taken (the chain is cyclic), perfectly predicted, but
                # unresolved until the hop's value arrives — younger work is
                # speculative for the full miss latency.
                skip = b.fresh_label("wg")
                b.cbz(cursor, skip, note="loop guard")
                b.label(skip)
            self._next_chase += 1
            self.last_load = cursor
        elif item == "store":
            b.str_(self._src(), "X10", rm="X20", note="stream store")
            b.add("X20", "X20", imm=self.stream_stride)
            b.and_("X20", "X20", "X16")
        elif item == "branch":
            skip = b.fresh_label("wb")
            b.ldrb("X17", "X12", rm="X19", note="decision byte")
            b.add("X19", "X19", imm=1)
            b.and_("X19", "X19", imm=DECISION_BYTES - 1)
            b.cmp("X17", imm=128)
            b.b_cond("HS", skip, note="table-driven branch")
            b.add(self._dest(), self._src(), imm=1)
            b.label(skip)
        elif item == "lbranch":
            skip = b.fresh_label("lb")
            if self.rng.random() < 0.6:
                # Loop-guard flavour: `while (node) ...` — the direction is
                # perfectly predictable (pointers are never "null" here) but
                # the branch cannot *resolve* until the chased value arrives,
                # so everything younger stays speculative for the load's
                # full latency.  This is the window delay-based defenses pay
                # for and SpecASan does not.
                cursor = self.CHASE_CURSORS[self._next_chase
                                            % len(self.CHASE_CURSORS)]
                b.and_("X17", cursor, imm=0xFF)
                b.cmp("X17", imm=0x100)
                b.b_cond("HS", skip, note="loop guard on chased pointer")
            else:
                source = self.last_load or "X11"
                b.and_("X17", source, imm=0xFF)
                b.cmp("X17", imm=128)
                b.b_cond("HS", skip, note="branch on loaded data")
            b.add(self._dest(), self._src(), imm=1)
            b.label(skip)
        elif item == "gather":
            # A guarded dependent burst: `if (slow->field) walk hot list` —
            # the guard stays unresolved for the cold load's latency while
            # the short hot chain executes speculatively underneath it.
            # Baselines overlap the chain with the window; taint-tracking
            # and fences must push it past the guard's resolution.
            cursor = self.CHASE_CURSORS[self._next_chase
                                        % len(self.CHASE_CURSORS)]
            skip = b.fresh_label("ga")
            b.cbz(cursor, skip, note="guard on in-flight pointer")
            b.label(skip)
            for _ in range(4):
                b.ldr("X28", "X28", note="guarded hot-list hop")
            self.last_load = "X28"
        elif item == "mte_churn":
            # What an MTE-instrumented allocator does on malloc/free: pick a
            # fresh random tag for the scratch granule and retag it.
            b.li("X27", self.churn_pointer)
            b.irg("X27", "X27", note="IRG: fresh allocation tag")
            b.stg("X27", "X27", note="STG: retag the scratch granule")
        elif item == "ldg_check":
            b.li("X27", self.churn_pointer)
            b.ldg("X27", "X27", note="LDG: read back the allocation tag")
        elif item == "call":
            b.bl(rng.choice(self.helpers))
        elif item == "icall":
            index = rng.randrange(len(self.helpers))
            b.ldr("X17", "X13", imm=index * 8, note="function pointer")
            b.blr("X17", note="indirect helper call")
        else:  # pragma: no cover
            raise ValueError(f"unknown work item {item!r}")
