"""Summary persistence: content-keyed cache and digests.

The taint engine (:mod:`repro.analysis.modular.summaries`), given a
:class:`SummaryCache`, memoizes one :class:`RegionOutputs` record per
(function region × interface inputs).  The cache key is a SHA-256 over
everything the region's answer can depend on:

- the region *content digest* — its instructions' semantic fields keyed
  by address (fixed-width :data:`~repro.isa.instructions.INSTR_BYTES`
  encoding makes same-instruction-count edits address-stable, so editing
  one function leaves every other function's digest untouched);
- the region *edges digest* — its blocks' successor sets, because the
  address-taken table can grow from an edit *elsewhere* and add indirect
  edges to an unchanged region;
- the *environment fingerprint* — data-segment images (loads resolve
  through them), secret ranges, the analysis caps, and the schema
  version (the defense-config axis: Table-1 defenses vary data tags and
  secret placement, both captured here);
- the region-local *stale-load set* — the MDS pass-2 re-run marks
  sampler loads program-wide, but :class:`~repro.analysis.taint._Context`
  only consults the set at each load's own address, so only the
  intersection with the region belongs in the key (pass 2 reuses every
  sampler-free region);
- the *seeds digest* — the joined interface states injected at the
  region's entry blocks, including the global RET-join contribution.

Records persist as checksummed JSONL through :mod:`repro.store`
(DESIGN.md § "Durable state"): whole-file atomic rewrites, and
corruption-tolerant loads (torn lines, bad checksums and foreign schemas
are skipped and counted, never fatal).  Since every key hashes the
environment fingerprint, :meth:`SummaryCache.for_program` keeps one file
per environment, so a run loads and rewrites only records it can hit.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Tuple)

from repro.analysis.cfg import CFG
from repro.analysis.taint import (
    BranchFact, LoadFact, State, StoreFact, Value)
from repro.isa.program import Program
from repro.store import canonical, load_records, write_records

#: Persistent record schema; bump on any layout change.  A change in
#: analyzer semantics (what a region's facts are) bumps both this and
#: :data:`repro.service.cache.CACHE_SCHEMA`, so neither cache serves an
#: older analyzer's answer.  2: unknown-offset load summaries are keyed by
#: segment address, not name.
SUMMARY_SCHEMA = "repro-summary/2"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- value / state / fact (de)serialization -----------------------------------


def value_to_json(value: Value) -> list:
    consts = list(value.consts) if value.consts is not None else None
    return [consts, value.attacker, value.secret, value.loaded, value.stale]


def value_from_json(data: Sequence) -> Value:
    consts, attacker, secret, loaded, stale = data
    return Value(tuple(consts) if consts is not None else None,
                 bool(attacker), bool(secret), bool(loaded), bool(stale))


def state_to_json(state: State) -> Dict[str, list]:
    return {str(reg): value_to_json(value) for reg, value in state.items()}


def state_from_json(data: Mapping[str, Sequence]) -> State:
    return {int(reg): value_from_json(value) for reg, value in data.items()}


def _opt_value_to_json(value: Optional[Value]) -> Optional[list]:
    return value_to_json(value) if value is not None else None


def _opt_value_from_json(data: Optional[Sequence]) -> Optional[Value]:
    return value_from_json(data) if data is not None else None


@dataclass
class RegionFacts:
    """The per-instruction facts one region contributes to a TaintResult."""

    loads: Dict[int, LoadFact] = field(default_factory=dict)
    stores: Dict[int, StoreFact] = field(default_factory=dict)
    branches: Dict[int, BranchFact] = field(default_factory=dict)
    contention: Dict[int, Value] = field(default_factory=dict)
    widenings: Dict[Tuple[int, int], int] = field(default_factory=dict)


@dataclass
class RegionOutputs:
    """Everything downstream consumers need from one analyzed region.

    Keyed by block *start addresses* (not indices — indices shift when a
    different function changes length... they don't under the fixed-width
    same-count rule, but addresses are the invariant worth keeping).
    """

    #: Cross-edge exports: destination block start address -> the joined
    #: out-state this region sends there (call/indirect edges, and intra
    #: edges that leave the region through a shared boundary).
    cross: Dict[int, State]
    #: Join of every RET block's out-state, or ``None`` if no RET ran.
    ret: Optional[State]
    facts: RegionFacts

    def to_json(self) -> dict:
        facts = self.facts
        return {
            "cross": {str(addr): state_to_json(state)
                      for addr, state in self.cross.items()},
            "ret": state_to_json(self.ret) if self.ret is not None else None,
            "loads": {str(a): [value_to_json(f.address),
                               value_to_json(f.result), f.width,
                               f.resolved,
                               [list(acc) for acc in f.secret_accesses],
                               f.line_crossing]
                      for a, f in facts.loads.items()},
            "stores": {str(a): [value_to_json(f.address),
                                value_to_json(f.data), f.width,
                                list(f.pointers)]
                       for a, f in facts.stores.items()},
            "branches": {str(a): [_opt_value_to_json(f.condition),
                                  _opt_value_to_json(f.target)]
                         for a, f in facts.branches.items()},
            "contention": {str(a): value_to_json(v)
                           for a, v in facts.contention.items()},
            "widenings": [[start, reg, count] for (start, reg), count
                          in sorted(facts.widenings.items())],
        }

    @classmethod
    def from_json(cls, data: Mapping,
                  program: Program) -> Optional["RegionOutputs"]:
        """Rehydrate; ``None`` when any fact address no longer fetches an
        instruction (a stale record — treated as a miss, never an error)."""
        loads: Dict[int, LoadFact] = {}
        stores: Dict[int, StoreFact] = {}
        branches: Dict[int, BranchFact] = {}
        for key, row in data["loads"].items():
            addr = int(key)
            instr = program.fetch(addr)
            if instr is None:
                return None
            loads[addr] = LoadFact(
                instr=instr, address=value_from_json(row[0]),
                result=value_from_json(row[1]), width=row[2],
                resolved=row[3],
                secret_accesses=tuple(tuple(acc) for acc in row[4]),
                line_crossing=row[5])
        for key, row in data["stores"].items():
            addr = int(key)
            instr = program.fetch(addr)
            if instr is None:
                return None
            stores[addr] = StoreFact(
                instr=instr, address=value_from_json(row[0]),
                data=value_from_json(row[1]), width=row[2],
                pointers=tuple(row[3]))
        for key, row in data["branches"].items():
            addr = int(key)
            instr = program.fetch(addr)
            if instr is None:
                return None
            branches[addr] = BranchFact(
                instr=instr, condition=_opt_value_from_json(row[0]),
                target=_opt_value_from_json(row[1]))
        facts = RegionFacts(
            loads=loads, stores=stores, branches=branches,
            contention={int(a): value_from_json(v)
                        for a, v in data["contention"].items()},
            widenings={(start, reg): count
                       for start, reg, count in data["widenings"]})
        return cls(
            cross={int(a): state_from_json(s)
                   for a, s in data["cross"].items()},
            ret=(state_from_json(data["ret"])
                 if data["ret"] is not None else None),
            facts=facts)


# -- digests ------------------------------------------------------------------


def _instr_fields(instr) -> list:
    cond = instr.cond.name if instr.cond is not None else None
    return [instr.address, instr.op.name, instr.rd, instr.rn, instr.rm,
            instr.imm, instr.tag_imm, cond, instr.target_addr]


def region_content_digest(cfg: CFG, blocks: Iterable[int]) -> str:
    """SHA over the region's instructions (semantic fields, address-keyed)."""
    rows: List[list] = []
    for index in sorted(blocks):
        block = cfg.blocks[index]
        rows.append([block.start,
                     [_instr_fields(instr) for instr in block.instructions]])
    return _sha(canonical(rows))


def region_edges_digest(cfg: CFG, blocks: Iterable[int]) -> str:
    """SHA over the region's successor sets (as target addresses + kinds)."""
    rows: List[list] = []
    for index in sorted(blocks):
        block = cfg.blocks[index]
        succs = sorted((cfg.blocks[succ].start, kind)
                       for succ, kind in block.successors)
        rows.append([block.start, [[addr, kind] for addr, kind in succs]])
    return _sha(canonical(rows))


def environment_fingerprint(
        program: Program,
        secret_ranges: Sequence[Tuple[int, int]]) -> str:
    """The defense-config axis of the cache key.

    Data segment images (loads resolve through them; MTE allocation tags
    live here), secret ranges, entry address, and the analysis caps.
    """
    from repro.analysis.taint import CONST_CAP, PAIR_CAP, SUMMARY_CAP
    segments = [[seg.name, seg.address, seg.tag,
                 hashlib.sha256(seg.data).hexdigest()]
                for seg in sorted(program.data_segments,
                                  key=lambda s: (s.address, s.name))]
    payload = {
        "schema": SUMMARY_SCHEMA,
        "entry": program.entry_address,
        "segments": segments,
        "secret_ranges": [list(r) for r in sorted(secret_ranges)],
        "caps": [CONST_CAP, PAIR_CAP, SUMMARY_CAP],
    }
    return _sha(canonical(payload))


def seeds_digest(seeds: Mapping[int, State]) -> str:
    return _sha(canonical({str(addr): state_to_json(state)
                           for addr, state in seeds.items()}))


def region_key(content: str, edges: str, env: str,
               stale: Iterable[int], seeds: str) -> str:
    """The full cache key for one (region × interface inputs) record."""
    return _sha(canonical([SUMMARY_SCHEMA, content, edges, env,
                           sorted(stale), seeds]))


# -- the persistent cache -----------------------------------------------------


class SummaryCache:
    """Content-keyed summary memo with an optional JSONL backing file.

    Keys are :func:`region_key` digests; dirtying is *implicit* — an
    edited function's content digest changes, so its old records simply
    never match again (they stay in the file, unread).
    """

    @classmethod
    def for_program(cls, directory: str, program: Program,
                    secret_ranges: Sequence[Tuple[int, int]],
                    ) -> "SummaryCache":
        """The cache backed by ``directory/<environment>.jsonl``.

        Every region key hashes :func:`environment_fingerprint`, so only a
        program with the same fingerprint can hit a record: one file per
        environment holds all of them, and nothing the run cannot use is
        read or rewritten.  Runs in different environments never share a
        file; runs of one environment merge their records at
        :meth:`flush`.
        """
        env = environment_fingerprint(program, secret_ranges)
        return cls(os.path.join(directory, f"{env}.jsonl"))

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.hits = 0
        self.misses = 0
        self.rejected = 0
        self._records: Dict[str, dict] = {}
        self._dirty = False
        if path is not None:
            self._load(path)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _load(self, path: str) -> None:
        records, rejects = load_records(path, SUMMARY_SCHEMA)
        self.rejected += len(rejects)
        for record in records:
            self._records[record["key"]] = record["payload"]

    def get(self, key: str) -> Optional[dict]:
        """The raw payload for ``key``; books a hit/miss either way."""
        payload = self._records.get(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def unbook_hit(self) -> None:
        """Demote the last hit to a miss (rehydration rejected the record)."""
        self.hits -= 1
        self.misses += 1

    def put(self, key: str, payload: dict) -> None:
        self._records[key] = payload
        self._dirty = True

    def flush(self) -> None:
        """Rewrite the backing file atomically (no-op without a path or
        without new records).

        The rewrite keeps the file's current intact records, so runs that
        share the file keep each other's records.  Keys are content
        hashes, so a record under an equal key is an equal payload.  A
        flush whose read and write interleave with another's can still
        lose that one's new records; a lost record is recomputed the next
        time it is needed.
        """
        if self.path is None or not self._dirty:
            return
        os.makedirs(os.path.dirname(os.path.abspath(self.path)),
                    exist_ok=True)
        records, _ = load_records(self.path, SUMMARY_SCHEMA)
        for record in records:
            self._records.setdefault(record["key"], record["payload"])
        write_records(self.path, (
            {"schema": SUMMARY_SCHEMA, "key": key,
             "payload": self._records[key]}
            for key in sorted(self._records)))
        self._dirty = False
