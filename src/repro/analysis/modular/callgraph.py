"""Call-graph construction and function partitioning over linked programs.

A *function* is a maximal group of basic blocks connected by intra-edges
(``fall``/``taken``) that does not cross a declared entry: the program
entry, every direct ``BL`` target, and every address-taken instruction
(MTE-key-stripped literals appearing in immediates or data words — the
same set :func:`~repro.analysis.cfg.address_taken` feeds the CFG's
indirect edges).  Two entries whose intra-edge regions collide (shared
tail blocks, direct tail-call ``B`` into another function's body) merge
into one function with multiple entries, the conservative choice that
keeps the partition a true partition.

Call edges follow the CFG's truth: the ``call`` edge of each ``BL`` plus
every ``indirect`` edge of ``BR``/``BLR`` (the address-taken targets).
Recursion — direct or mutual — shows up as a non-trivial SCC of this
graph; :func:`build_callgraph` condenses with Tarjan so summary
computation can run bottom-up over an acyclic condensation and apply
join-widening inside each recursive component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.analysis.cfg import CFG, build_cfg
from repro.isa.instructions import INSTR_BYTES, Opcode
from repro.isa.program import Program

#: Edge kinds that stay inside one function.
INTRA_KINDS = frozenset({"fall", "taken"})
#: Edge kinds that transfer control to another function's entry.
CALL_KINDS = frozenset({"call", "indirect"})


@dataclass(frozen=True)
class FunctionNode:
    """One function of the partition."""

    #: Label at the representative entry, or ``fn_0x...`` when unlabeled.
    name: str
    #: Representative (lowest) entry address; block start for orphans.
    entry: int
    #: Every declared entry address claimed by this function (empty for
    #: orphan regions no entry reaches intra-procedurally).
    entries: Tuple[int, ...]
    #: CFG block indices, sorted.
    blocks: Tuple[int, ...]
    #: (call-site address, callee representative entry) per direct ``BL``.
    call_sites: Tuple[Tuple[int, int], ...]
    #: ``BR``/``BLR`` instruction addresses.
    indirect_sites: Tuple[int, ...]
    #: ``RET`` instruction addresses.
    return_addrs: Tuple[int, ...]
    #: Instruction count.
    instructions: int

    @property
    def has_ret(self) -> bool:
        return bool(self.return_addrs)


@dataclass
class CallGraph:
    """Functions, call edges, and the Tarjan SCC condensation."""

    program: Program
    cfg: CFG
    #: Representative entry address -> node.
    functions: Dict[int, FunctionNode]
    #: CFG block index -> owning function's representative entry.
    function_of_block: Dict[int, int]
    #: Caller entry -> sorted callee entries (CFG call/indirect truth).
    edges: Dict[int, Tuple[int, ...]]
    #: SCCs in bottom-up order (every callee component before its callers).
    sccs: Tuple[Tuple[int, ...], ...]
    #: Function entry -> index into :attr:`sccs`.
    component_of: Dict[int, int]

    def function_at(self, address: int) -> Optional[FunctionNode]:
        """The function containing the instruction at ``address``."""
        block = self.cfg.block_of_addr.get(address)
        if block is None:
            return None
        return self.functions[self.function_of_block[block]]

    def function_named(self, name: str) -> FunctionNode:
        for node in self.functions.values():
            if node.name == name:
                return node
        raise KeyError(name)


def entry_addresses(program: Program, cfg: CFG) -> FrozenSet[int]:
    """Declared function entries: program entry + BL targets + address-taken."""
    entries = {program.entry_address}
    for instr in program.instructions:
        if instr.op is Opcode.BL and instr.target_addr is not None:
            entries.add(instr.target_addr)
    entries.update(cfg.indirect_targets)
    return frozenset(
        address for address in entries
        if address in cfg.block_of_addr
        and cfg.blocks[cfg.block_of_addr[address]].start == address)


def partition_blocks(cfg: CFG, roots: Iterable[int]) -> Dict[int, int]:
    """Partition blocks into regions along intra edges.

    Blocks are unioned across every ``fall``/``taken`` edge whose target is
    not itself a root, so each root starts its own region and two roots
    merge exactly when their regions collide on a shared non-root block.
    Returns block index -> region representative (smallest member index).
    """
    count = len(cfg.blocks)
    parent = list(range(count))

    def find(index: int) -> int:
        root = index
        while parent[root] != root:
            root = parent[root]
        while parent[index] != root:
            parent[index], index = root, parent[index]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra

    root_set = set(roots)
    for block in cfg.blocks:
        for succ, kind in block.successors:
            if kind in INTRA_KINDS and succ not in root_set:
                union(block.index, succ)
    return {index: find(index) for index in range(count)}


def _label_map(program: Program) -> Dict[int, str]:
    """Address -> first (alphabetically) label defined there."""
    labels: Dict[int, str] = {}
    for name in sorted(program.labels):
        address = program.base_address + program.labels[name] * INSTR_BYTES
        labels.setdefault(address, name)
    return labels


def _tarjan(nodes: List[int],
            edges: Mapping[int, Tuple[int, ...]]) -> List[List[int]]:
    """Iterative Tarjan; components pop in bottom-up (callee-first) order."""
    index_of: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Dict[int, bool] = {}
    stack: List[int] = []
    components: List[List[int]] = []
    counter = [0]

    for start in nodes:
        if start in index_of:
            continue
        work: List[Tuple[int, int]] = [(start, 0)]
        while work:
            node, edge_index = work.pop()
            if edge_index == 0:
                index_of[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            successors = edges.get(node, ())
            for position in range(edge_index, len(successors)):
                succ = successors[position]
                if succ not in index_of:
                    work.append((node, position + 1))
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack.get(succ):
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def build_callgraph(program: Program, cfg: Optional[CFG] = None) -> CallGraph:
    """Discover the function partition and its call edges."""
    program.link()
    if cfg is None:
        cfg = build_cfg(program)
    entries = entry_addresses(program, cfg)
    entry_blocks = {cfg.block_of_addr[address] for address in entries}
    region_of = partition_blocks(cfg, entry_blocks)

    groups: Dict[int, List[int]] = {}
    for index in range(len(cfg.blocks)):
        groups.setdefault(region_of[index], []).append(index)
    entries_of_region: Dict[int, List[int]] = {}
    for address in entries:
        entries_of_region.setdefault(
            region_of[cfg.block_of_addr[address]], []).append(address)

    labels = _label_map(program)
    representative: Dict[int, int] = {}  # region root block -> entry address
    functions: Dict[int, FunctionNode] = {}
    function_of_block: Dict[int, int] = {}
    for root, block_indices in groups.items():
        block_indices.sort()
        fn_entries = tuple(sorted(entries_of_region.get(root, ())))
        entry = fn_entries[0] if fn_entries \
            else cfg.blocks[block_indices[0]].start
        representative[root] = entry
        for index in block_indices:
            function_of_block[index] = entry

    edges: Dict[int, set] = {entry: set() for entry in representative.values()}
    for root, block_indices in groups.items():
        entry = representative[root]
        call_sites: List[Tuple[int, int]] = []
        indirect_sites: List[int] = []
        return_addrs: List[int] = []
        instructions = 0
        for index in block_indices:
            block = cfg.blocks[index]
            instructions += len(block.instructions)
            term = block.terminator
            if term.op in (Opcode.BR, Opcode.BLR):
                indirect_sites.append(term.address)
            if term.is_return:
                return_addrs.append(term.address)
            for succ, kind in block.successors:
                if kind not in CALL_KINDS:
                    continue
                callee = function_of_block[succ]
                edges[entry].add(callee)
                if kind == "call":
                    call_sites.append((term.address, callee))
        fn_entries = tuple(sorted(entries_of_region.get(root, ())))
        functions[entry] = FunctionNode(
            name=labels.get(entry, f"fn_{entry:#x}"),
            entry=entry, entries=fn_entries,
            blocks=tuple(block_indices),
            call_sites=tuple(sorted(call_sites)),
            indirect_sites=tuple(sorted(indirect_sites)),
            return_addrs=tuple(sorted(return_addrs)),
            instructions=instructions)

    sorted_edges = {entry: tuple(sorted(callees))
                    for entry, callees in edges.items()}
    components = _tarjan(sorted(functions), sorted_edges)
    component_of = {entry: index
                    for index, component in enumerate(components)
                    for entry in component}
    return CallGraph(program=program, cfg=cfg, functions=functions,
                     function_of_block=function_of_block,
                     edges=sorted_edges,
                     sccs=tuple(tuple(c) for c in components),
                     component_of=component_of)
