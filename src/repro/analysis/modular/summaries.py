"""The taint engine: the dataflow fixpoint, run region by region over the
function partition.

Every taint run goes through this engine (:func:`repro.analysis.taint
.analyze` is its entry point).  It applies the transfer functions and the
join of :mod:`repro.analysis.taint` region-at-a-time:

- Each function (optionally split further at caller-supplied boundary
  addresses) is a *region*.  An inner fixpoint analyzes a region given its
  *interface seeds* — the joined states arriving at its entry blocks from
  other regions' call/indirect/fall exports, the program entry
  (:data:`ENTRY_SRC`), and the global RET join (:data:`RET_SRC`).
- A region's answer (:class:`~repro.analysis.modular.incremental
  .RegionOutputs`) is its cross-edge exports, its joined RET out-state,
  and the per-instruction facts it contributes to the final
  :class:`~repro.analysis.taint.TaintResult`.
- The outer loop propagates exports between regions until nothing
  changes.  Each (source region → destination block) contribution *joins
  monotonically* with its predecessor, so recursive SCCs — where a
  region's exports feed back into its own seeds — iterate under
  join-widening (:data:`~repro.analysis.taint.CONST_CAP` collapses) and
  always terminate.  Every collapse is recorded in
  :attr:`~repro.analysis.taint.TaintResult.widenings`, keyed by the block
  where the two values met; the counts depend on visit order and are
  diagnostics only.

A :class:`~repro.analysis.modular.incremental.SummaryCache`
(``AnalysisOptions.cache``) is only a memo.  Region answers are stored
under a key over content × edges × environment × region-local stale
loads × seeds, so a re-lint after editing one function re-analyzes only
the regions whose *inputs* changed, and a hit returns what a cold run
computes for the same region and seeds.  Without a cache the engine
computes no digest, key or record.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple)

from repro.analysis import hooks
from repro.analysis.cfg import CFG, BasicBlock, build_cfg
from repro.analysis.modular.callgraph import (
    CALL_KINDS, INTRA_KINDS, CallGraph, _tarjan, build_callgraph,
    partition_blocks)
from repro.analysis.modular.incremental import (
    RegionFacts, RegionOutputs, SummaryCache, environment_fingerprint,
    region_content_digest, region_edges_digest, region_key, seeds_digest)
from repro.analysis.options import AnalysisOptions
from repro.analysis.taint import (
    State, TaintResult, _Context, _emit_taint_coverage, _join_states,
    _run_block)
from repro.isa.instructions import FLAGS_REG, INSTR_BYTES
from repro.isa.program import Program
from repro.isa.registers import XZR
from repro.mte.tags import key_of

#: Pseudo-source ids for interface contributions (real sources are region
#: root-block indices, which are never negative).
ENTRY_SRC = -1
RET_SRC = -2


@dataclass(frozen=True)
class _Region:
    """One unit of the partition (a function, or a boundary slice)."""

    rid: int                      # representative root block index
    blocks: Tuple[int, ...]       # CFG block indices, sorted
    block_set: FrozenSet[int]
    name: str                     # owning function's name (diagnostics)


@dataclass(frozen=True)
class FunctionSummary:
    """The descriptive per-function interface summary.

    Derived on demand from a finished :class:`ModularAnalysis` — the
    engine itself exchanges only :class:`RegionOutputs`; this is the
    human- and test-facing view the ISSUE's summary vocabulary names.
    """

    name: str
    entry: int
    #: Parameter registers: read before any write, in address order.
    params: Tuple[int, ...]
    #: Params whose caller-provided value is attacker- or secret-tainted.
    tainted_params: Tuple[int, ...]
    #: (address, channel) transmitter obligations inside this function.
    transmitters: Tuple[Tuple[int, str], ...]
    #: Transmitters that only fire given caller-tainted inputs — absent
    #: when the function is analyzed in isolation (empty seeds).
    conditional_transmitters: Tuple[Tuple[int, str], ...]
    #: MTE key facts at entry: (reg, sorted pointer keys) for registers
    #: holding tagged constants when the function is entered.
    entry_keys: Tuple[Tuple[int, Tuple[int, ...]], ...]
    #: Same at exit (the joined RET out-state).
    exit_keys: Tuple[Tuple[int, Tuple[int, ...]], ...]
    #: BL/RET boundary addresses where a late-resolving (loaded) value is
    #: live — a speculation window can straddle the call/return there.
    window_continuations: Tuple[int, ...]
    has_ret: bool
    #: Size of the function's SCC in the call graph (>1 or self-recursive
    #: means the summary iterated under join-widening).
    scc_size: int
    #: Any constant-set collapse was recorded while analyzing this
    #: function (the explicit bounded-iteration cutoff).
    widened: bool


@dataclass
class ModularAnalysis:
    """A finished modular run: the merged result plus the reuse ledger."""

    program: Program
    cfg: CFG
    callgraph: CallGraph
    result: TaintResult
    #: The run's memo, if it had one.
    cache: Optional[SummaryCache]
    #: Summary-cache hits/misses booked by *this* run (0 without a cache).
    hits: int
    misses: int
    #: Function names analyzed live (not served by the cache), sorted.
    reanalyzed: Tuple[str, ...]
    #: Total regions the run visited.
    regions: int
    _engine: "_Engine" = field(repr=False, default=None)  # type: ignore

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def summary(self, name: str) -> FunctionSummary:
        """Compute the descriptive summary of function ``name``."""
        return self._engine.function_summary(name)


class _Engine:
    """One taint run over one linked program."""

    def __init__(self, program: Program,
                 secret_ranges: Sequence[Tuple[int, int]],
                 cfg: Optional[CFG],
                 stale_loads: Iterable[int],
                 options: AnalysisOptions):
        program.link()
        self.program = program
        self.cfg = cfg if cfg is not None else build_cfg(program)
        self.secret_ranges = tuple(secret_ranges)
        self.stale_loads = frozenset(stale_loads)
        self.options = options
        self.cache = options.cache
        self.ctx = _Context(program, self.cfg, self.secret_ranges,
                            self.stale_loads)
        self.callgraph = build_callgraph(program, self.cfg)
        self.succs = [_effective_succs(block) for block in self.cfg.blocks]
        self.regions: Dict[int, _Region] = {}
        self.region_of_block: Dict[int, int] = {}
        self.topo_index: Dict[int, int] = {}
        self._build_regions()
        # Return sites: the block after each call.
        self.ret_targets: List[int] = []
        for instr in program.instructions:
            if instr.is_call:
                site = instr.address + INSTR_BYTES
                if site in self.cfg.block_of_addr:
                    self.ret_targets.append(self.cfg.block_of_addr[site])
        # Interface state: per-destination-block contributions by source.
        self.incoming: Dict[int, Dict[int, State]] = {}
        self.ret_contrib: Dict[int, State] = {}
        self.global_ret: Optional[State] = None
        self.outputs: Dict[int, RegionOutputs] = {}
        self.engine_widenings: Dict[Tuple[int, int], int] = {}
        self.reanalyzed_regions: Set[int] = set()
        # Cache keys hash the environment and, per region, its content and
        # edges digests and stale loads (computed on its first lookup).
        self.env = (environment_fingerprint(program, self.secret_ranges)
                    if self.cache is not None else "")
        self._region_digests: Dict[int, Tuple[str, str, Tuple[int, ...]]] = {}

    # -- region construction --------------------------------------------------

    def _build_regions(self) -> None:
        cfg = self.cfg
        roots = {cfg.block_of_addr[entry]
                 for entry in self.callgraph.functions}
        for node in self.callgraph.functions.values():
            for entry in node.entries:
                roots.add(cfg.block_of_addr[entry])
        for address in self.options.boundaries:
            block = cfg.block_of_addr.get(address)
            if block is not None and cfg.blocks[block].start == address:
                roots.add(block)
        region_of = partition_blocks(cfg, roots)
        groups: Dict[int, List[int]] = {}
        for index in range(len(cfg.blocks)):
            groups.setdefault(region_of[index], []).append(index)
            self.region_of_block[index] = region_of[index]
        for rid, blocks in groups.items():
            blocks.sort()
            fn_entry = self.callgraph.function_of_block[blocks[0]]
            self.regions[rid] = _Region(
                rid=rid, blocks=tuple(blocks), block_set=frozenset(blocks),
                name=self.callgraph.functions[fn_entry].name)
        self._order_regions()

    def _order_regions(self) -> None:
        """Forward topological order of the region digraph (heuristic)."""
        edges: Dict[int, Set[int]] = {rid: set() for rid in self.regions}
        for region in self.regions.values():
            for index in region.blocks:
                for succ, kind in self.cfg.blocks[index].successors:
                    dst = self.region_of_block[succ]
                    if dst != region.rid or kind in CALL_KINDS:
                        edges[region.rid].add(dst)
        sorted_edges = {rid: tuple(sorted(dsts))
                        for rid, dsts in edges.items()}
        components = _tarjan(sorted(self.regions), sorted_edges)
        # Tarjan pops sinks first; reverse for a sources-first schedule.
        position = 0
        for component in reversed(components):
            for rid in component:
                self.topo_index[rid] = position
            position += 1

    # -- interface plumbing ---------------------------------------------------

    def _widened(self, start: int, reg: int) -> None:
        """Book one constant-set collapse at the block starting at ``start``."""
        key = (start, reg)
        self.engine_widenings[key] = self.engine_widenings.get(key, 0) + 1

    def _seeds(self, blocks: Iterable[int]) -> Dict[int, State]:
        """Joined interface states per seeded block among ``blocks``; a
        collapse where two contributions meet is booked at that block."""
        seeds: Dict[int, State] = {}
        for index in blocks:
            start = self.cfg.blocks[index].start
            contributions = self.incoming.get(start)
            if not contributions:
                continue
            note = partial(self._widened, start)
            folded: Optional[State] = None
            for src in sorted(contributions):
                folded = _join_states(folded, contributions[src], note)
            seeds[index] = folded if folded is not None else {}
        return seeds

    # -- the inner (per-region) fixpoint --------------------------------------

    def _region_fixpoint(self, block_set: FrozenSet[int],
                         seeds: Dict[int, State],
                         widenings: Dict[Tuple[int, int], int],
                         ) -> Tuple[Dict[int, State], Dict[int, RegionFacts]]:
        """Run the blocks of ``block_set`` to their fixpoint from ``seeds``;
        per reached block, return the out-state and facts of its last visit.

        A block is re-queued whenever its in-state changes, so its last
        visit saw its final in-state: that visit's out-state and facts are
        the block's answer.  Every visit records facts at the same
        addresses, so each block keeps one facts record that its last
        visit overwrites.  Collapses at intra-region joins are counted in
        ``widenings``.
        """
        blocks = self.cfg.blocks
        in_states: Dict[int, State] = {
            index: _join_states(None, state)
            for index, state in seeds.items()}
        outs: Dict[int, State] = {}
        facts: Dict[int, RegionFacts] = {}
        work = deque(sorted(in_states))
        while work:
            index = work.popleft()
            block_facts = facts.get(index)
            if block_facts is None:
                block_facts = facts[index] = RegionFacts()
            out = outs[index] = _run_block(
                self.ctx, blocks[index], dict(in_states[index]), block_facts)
            for succ, kind in self.succs[index]:
                if succ not in block_set or kind not in INTRA_KINDS:
                    continue
                start = blocks[succ].start

                def note(reg: int, _start: int = start) -> None:
                    key = (_start, reg)
                    widenings[key] = widenings.get(key, 0) + 1

                joined = _join_states(in_states.get(succ), out, note)
                if succ not in in_states or joined != in_states[succ]:
                    in_states[succ] = joined
                    if succ not in work:
                        work.append(succ)
        return outs, facts

    def _run_region(self, region: _Region,
                    seeds: Dict[int, State]) -> RegionOutputs:
        blocks = self.cfg.blocks
        widenings: Dict[Tuple[int, int], int] = {}
        outs, block_facts = self._region_fixpoint(region.block_set, seeds,
                                                  widenings)
        cross: Dict[int, State] = {}
        ret_state: Optional[State] = None
        for index in sorted(outs):
            out = outs[index]
            for succ, kind in self.succs[index]:
                if succ in region.block_set and kind in INTRA_KINDS:
                    continue
                start = blocks[succ].start
                cross[start] = _join_states(cross.get(start), out)
            if blocks[index].terminator.is_return:
                ret_state = _join_states(ret_state, out)
        facts = _merged(block_facts)
        facts.widenings = widenings
        return RegionOutputs(cross=cross, ret=ret_state, facts=facts)

    def _region_outputs(self, region: _Region,
                        seeds: Dict[int, State]) -> RegionOutputs:
        """The region's answer, through the cache when there is one."""
        if self.cache is None:
            self.reanalyzed_regions.add(region.rid)
            return self._run_region(region, seeds)
        key = self._region_key(region, seeds)
        payload = self.cache.get(key)
        if payload is not None:
            outputs = RegionOutputs.from_json(payload, self.program)
            if outputs is not None:
                return outputs
            self.cache.unbook_hit()
        outputs = self._run_region(region, seeds)
        self.cache.put(key, outputs.to_json())
        self.reanalyzed_regions.add(region.rid)
        return outputs

    def _region_key(self, region: _Region, seeds: Dict[int, State]) -> str:
        digests = self._region_digests.get(region.rid)
        if digests is None:
            stale = tuple(sorted(
                addr for addr in self.stale_loads
                if self.cfg.block_of_addr.get(addr) in region.block_set))
            digests = self._region_digests[region.rid] = (
                region_content_digest(self.cfg, region.blocks),
                region_edges_digest(self.cfg, region.blocks), stale)
        content, edges, stale = digests
        payload = {self.cfg.blocks[index].start: state
                   for index, state in seeds.items()}
        return region_key(content, edges, self.env, stale,
                          seeds_digest(payload))

    # -- the outer (interface) fixpoint ---------------------------------------

    def _accumulate(self, dst_start: int, src: int, state: State) -> bool:
        """Join ``state`` into the (src → dst) contribution; True on change."""
        contributions = self.incoming.setdefault(dst_start, {})
        previous = contributions.get(src)
        joined = _join_states(previous, state,
                              partial(self._widened, dst_start))
        if previous is not None and joined == previous:
            return False
        contributions[src] = joined
        return True

    def run(self) -> ModularAnalysis:
        cfg = self.cfg
        hits0, misses0 = self._traffic()

        entry_start = cfg.entry_block.start
        self.incoming[entry_start] = {ENTRY_SRC: {}}
        entry_region = self.region_of_block[cfg.entry_block.index]

        heap: List[Tuple[int, int]] = []
        pending: Set[int] = set()

        def enqueue(rid: int) -> None:
            if rid not in pending:
                pending.add(rid)
                heapq.heappush(heap, (self.topo_index[rid], rid))

        enqueue(entry_region)
        while heap:
            _, rid = heapq.heappop(heap)
            pending.discard(rid)
            region = self.regions[rid]
            seeds = self._seeds(region.blocks)
            outputs = self._region_outputs(region, seeds)
            self.outputs[rid] = outputs
            for dst_start in sorted(outputs.cross):
                if self._accumulate(dst_start, rid, outputs.cross[dst_start]):
                    dst_block = cfg.block_of_addr[dst_start]
                    enqueue(self.region_of_block[dst_block])
            if outputs.ret is not None:
                previous = self.ret_contrib.get(rid)
                joined = _join_states(previous, outputs.ret)
                if previous is None or joined != previous:
                    self.ret_contrib[rid] = joined
                    self._refresh_global_ret(enqueue)

        hits, misses = self._traffic()
        return self._assemble(hits - hits0, misses - misses0)

    def _traffic(self) -> Tuple[int, int]:
        """The cache's hit and miss counts so far; no cache, no lookups."""
        if self.cache is None:
            return 0, 0
        return self.cache.hits, self.cache.misses

    def _refresh_global_ret(self, enqueue) -> None:
        # A collapse where two RET out-states meet happens at every return
        # site they flow to, so each return site books it.
        collapsed: List[int] = []
        folded: Optional[State] = None
        for rid in sorted(self.ret_contrib):
            folded = _join_states(folded, self.ret_contrib[rid],
                                  collapsed.append)
        if folded == self.global_ret:
            return
        self.global_ret = folded
        assert folded is not None
        for index in self.ret_targets:
            start = self.cfg.blocks[index].start
            for reg in collapsed:
                self._widened(start, reg)
            if self._accumulate(start, RET_SRC, folded):
                enqueue(self.region_of_block[index])

    def _assemble(self, hits: int, misses: int) -> ModularAnalysis:
        result = TaintResult(program=self.program, cfg=self.cfg,
                             secret_ranges=self.secret_ranges)
        widenings: Dict[Tuple[int, int], int] = dict(self.engine_widenings)
        for rid in sorted(self.outputs):
            facts = self.outputs[rid].facts
            result.loads.update(facts.loads)
            result.stores.update(facts.stores)
            result.branches.update(facts.branches)
            result.contention.update(facts.contention)
            for key, count in facts.widenings.items():
                widenings[key] = widenings.get(key, 0) + count
        result.widenings = widenings
        sink = hooks.coverage_sink()
        if sink is not None:
            _emit_taint_coverage(result, sink)

        reanalyzed = tuple(sorted({self.regions[rid].name
                                   for rid in self.reanalyzed_regions}))
        if self.options.stats is not None:
            self.options.stats.book_run(
                hits=hits, misses=misses,
                reanalyzed=len(self.reanalyzed_regions),
                regions=len(self.outputs),
                scc_sizes=self.callgraph.scc_sizes())
        return ModularAnalysis(
            program=self.program, cfg=self.cfg, callgraph=self.callgraph,
            result=result, cache=self.cache, hits=hits, misses=misses,
            reanalyzed=reanalyzed, regions=len(self.outputs), _engine=self)

    # -- descriptive summaries ------------------------------------------------

    def function_summary(self, name: str) -> FunctionSummary:
        node = self.callgraph.function_named(name)
        cfg = self.cfg
        addr_set = {instr.address
                    for index in node.blocks
                    for instr in cfg.blocks[index].instructions}
        block_set = frozenset(node.blocks)

        # Contextual run: interface seeds as the real analysis saw them
        # (folding them again books no collapse the run did not book).
        seeds = self._seeds(node.blocks)
        outs, facts = self._region_fixpoint(block_set, seeds, {})
        contextual = _merged(facts)

        # Isolated run: empty seeds at the entry — what the function does
        # with *untainted* caller inputs.
        entry_block = cfg.block_of_addr.get(node.entry)
        isolated_seeds: Dict[int, State] = {}
        if entry_block is not None and entry_block in block_set:
            isolated_seeds[entry_block] = {}
        _, iso_facts = self._region_fixpoint(block_set, isolated_seeds, {})
        isolated = _merged(iso_facts)

        transmitters = _transmitters(contextual, addr_set)
        unconditional = set(_transmitters(isolated, addr_set))
        conditional = tuple(t for t in transmitters
                            if t not in unconditional)

        params = _params(cfg, node.blocks)
        entry_seed = seeds.get(entry_block, {}) if entry_block is not None \
            else {}
        tainted = tuple(sorted(
            reg for reg in params
            if entry_seed.get(reg) is not None
            and (entry_seed[reg].attacker or entry_seed[reg].secret)))

        ret_state: Optional[State] = None
        continuations: List[int] = []
        boundary = set(addr for addr, _ in node.call_sites)
        boundary.update(node.return_addrs)
        for index in sorted(outs):
            block = cfg.blocks[index]
            out = outs[index]
            if block.terminator.address in boundary and any(
                    value.loaded for value in out.values()):
                continuations.append(block.terminator.address)
            if block.terminator.is_return:
                ret_state = _join_states(ret_state, out)

        own = self.outputs.get(self.region_of_block.get(node.blocks[0], -1))
        region_widenings = own.facts.widenings if own is not None else {}
        widened = any(
            cfg.block_of_addr.get(start) in block_set
            for (start, _reg) in list(region_widenings)
            + list(self.engine_widenings))

        return FunctionSummary(
            name=node.name, entry=node.entry, params=params,
            tainted_params=tainted, transmitters=transmitters,
            conditional_transmitters=conditional,
            entry_keys=_key_facts(entry_seed),
            exit_keys=_key_facts(ret_state or {}),
            window_continuations=tuple(sorted(continuations)),
            has_ret=node.has_ret,
            scc_size=len(self.callgraph.sccs[
                self.callgraph.component_of[node.entry]]),
            widened=widened)


def _effective_succs(block: BasicBlock) -> List[Tuple[int, str]]:
    """Successors minus a call's fall edge.

    The fall edge out of a call is the *return site*: caller state reaches
    it through the callee (call edge -> ... -> RET), not directly, and
    flowing the pre-call state across would wipe the callee's effects at
    every join.  The direct edge stays only when the call has no
    resolvable callee at all.
    """
    term = block.terminator
    callee_known = term.is_call and any(
        kind in CALL_KINDS for _, kind in block.successors)
    return [(succ, kind) for succ, kind in block.successors
            if not (callee_known and kind == "fall")]


def _merged(facts: Dict[int, RegionFacts]) -> RegionFacts:
    """Per-block facts as one record, in block order."""
    merged = RegionFacts()
    for index in sorted(facts):
        block = facts[index]
        merged.loads.update(block.loads)
        merged.stores.update(block.stores)
        merged.branches.update(block.branches)
        merged.contention.update(block.contention)
    return merged


def _params(cfg: CFG, blocks: Tuple[int, ...]) -> Tuple[int, ...]:
    """Registers read before any write, scanning blocks in address order."""
    written: Set[int] = set()
    params: Set[int] = set()
    order = sorted(blocks, key=lambda index: cfg.blocks[index].start)
    for index in order:
        for instr in cfg.blocks[index].instructions:
            for reg in instr.src_regs:
                if reg not in written and reg not in (XZR, FLAGS_REG, 30):
                    params.add(reg)
            written.update(instr.dst_regs)
    return tuple(sorted(params))


def _transmitters(facts: RegionFacts,
                  addr_set: Set[int]) -> Tuple[Tuple[int, str], ...]:
    """Secret-dependent transmitter obligations within ``addr_set``."""
    out: List[Tuple[int, str]] = []
    for addr, load in facts.loads.items():
        if addr in addr_set and (load.address.secret or load.address.stale):
            out.append((addr, "cache"))
    for addr, store in facts.stores.items():
        if addr in addr_set and (store.data.secret or store.data.stale):
            out.append((addr, "store"))
    for addr, value in facts.contention.items():
        if addr in addr_set and (value.secret or value.stale):
            out.append((addr, "contention"))
    for addr, branch in facts.branches.items():
        condition = branch.condition
        if (addr in addr_set and condition is not None
                and (condition.secret or condition.stale)):
            out.append((addr, "branch"))
    return tuple(sorted(out))


def _key_facts(state: State) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """(reg, pointer keys) for registers holding tagged constants."""
    out: List[Tuple[int, Tuple[int, ...]]] = []
    for reg in sorted(state):
        value = state[reg]
        if value.consts is None:
            continue
        keys = tuple(sorted({key_of(c) for c in value.consts}))
        if any(keys):
            out.append((reg, keys))
    return tuple(out)


def modular_analysis(program: Program,
                     secret_ranges: Sequence[Tuple[int, int]] = (),
                     cfg: Optional[CFG] = None,
                     stale_loads: Iterable[int] = (),
                     options: Optional[AnalysisOptions] = None,
                     ) -> ModularAnalysis:
    """Run the taint engine and return the full run object."""
    engine = _Engine(program, tuple(secret_ranges), cfg, stale_loads,
                     options if options is not None else AnalysisOptions())
    return engine.run()
