"""Outside-in tracing: wrap the layers' public seams and book self time.

The benchmark never edits the program it measures.  A traced run patches
the seams below at class or module level for the duration of a ``with``
block, restores every attribute on exit, and turns what the wrappers
booked into per-layer metrics and spans:

- pipeline: ``Core.tick`` and ``LoadStoreQueues.tick``;
- memory: ``MemoryHierarchy.access`` (also bucketed by the level that
  served the request) and ``commit_store``, ``MemoryController.fetch_line``
  and the tag lookups ``MainMemory.lock_of`` / ``line_locks``;
- core.policy: every defense hook, resolved on each concrete policy class;
- analysis: the pass functions, patched in the modules that call them;
- workloads and checkpoint: program generation, and capturing, restoring
  and storing the hierarchy state the campaign shares between cells.

*Self time* is a call's duration minus the part covered by nested traced
calls, so the self times of all seams add up to the traced wall time less
whatever ran outside every seam.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: The defense hooks the pipeline consults (see ``repro.core.policy``).
POLICY_HOOKS = (
    "fetch_may_follow_indirect", "on_call_fetched", "predict_return",
    "may_issue", "may_issue_load", "may_forward_store",
    "must_hold_bypass_data", "request_flags", "on_load_data_ready",
    "on_tag_outcome", "on_execute", "on_branch_resolved", "on_squash",
    "on_commit",
)

#: Policy classes the benchmark's workloads instantiate.
POLICY_CLASSES = (
    ("repro.core.policy", "NoDefense"),
    ("repro.defenses.fence", "FencePolicy"),
    ("repro.defenses.stt", "STTPolicy"),
    ("repro.defenses.ghostminion", "GhostMinionPolicy"),
    ("repro.core.specasan", "SpecASanPolicy"),
)

#: (module, class or None, attribute, seam name).  Functions are patched
#: in the module their caller looks them up in.
SEAMS = (
    ("repro.pipeline.core", "Core", "tick", "pipeline.tick"),
    ("repro.pipeline.lsq", "LoadStoreQueues", "tick", "pipeline.lsq"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "access", "memory.access"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "commit_store",
     "memory.commit_store"),
    ("repro.memory.controller", "MemoryController", "fetch_line",
     "memory.controller.fetch_line"),
    ("repro.memory.dram", "MainMemory", "lock_of", "memory.dram.tag_lookup"),
    ("repro.memory.dram", "MainMemory", "line_locks",
     "memory.dram.tag_lookup"),
    ("repro.workloads.generator", None, "generate", "workloads.generate"),
    ("repro.campaign.worker", None, "generate", "workloads.generate"),
    ("repro.campaign.worker", None, "read_checkpoint", "checkpoint.io"),
    ("repro.campaign.worker", None, "write_checkpoint", "checkpoint.io"),
    ("repro.checkpoint.manager", "CheckpointManager", "save",
     "checkpoint.io"),
    ("repro.checkpoint.manager", "CheckpointManager", "restore",
     "checkpoint.io"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "state_dict",
     "checkpoint.io"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "load_state_dict",
     "checkpoint.io"),
    ("repro.analysis.gadgets", None, "find_gadgets", "analysis.gadgets"),
    ("repro.analysis.gadgets", None, "analyze", "analysis.taint"),
    ("repro.analysis.gadgets", None, "compute_windows", "analysis.windows"),
    ("repro.analysis.taint", None, "build_cfg", "analysis.cfg"),
    ("repro.analysis.modular.summaries", None, "build_cfg", "analysis.cfg"),
    ("repro.analysis.modular.callgraph", None, "build_cfg", "analysis.cfg"),
    ("repro.analysis.modular", None, "analyze_modular",
     "analysis.modular.summaries"),
    ("repro.analysis.modular.incremental", "SummaryCache", "_load",
     "analysis.modular.cache_io"),
    ("repro.analysis.modular.incremental", "SummaryCache", "flush",
     "analysis.modular.cache_io"),
) + tuple((module, cls, hook, f"core.policy.{hook}")
          for module, cls in POLICY_CLASSES for hook in POLICY_HOOKS)


def _served_from(response) -> str:
    return "memory.access_" + response.served_from.value.lower()


#: Seams whose inclusive time is also booked under a name derived from
#: the call's result.
BUCKETS: Dict[str, Callable[[object], str]] = {"memory.access": _served_from}


class Tracer:
    """Per-seam call counts, inclusive time and self time (seconds).

    ``totals[name] == [calls, inclusive_s, self_s]``.  Nested traced calls
    charge their duration to the caller's child accumulator, which is what
    turns inclusive time into self time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.totals: Dict[str, List[float]] = {}
        self._children: List[float] = []

    def wrap(self, name: str, fn: Callable,
             bucket: Optional[Callable[[object], str]] = None) -> Callable:
        children = self._children
        totals = self.totals
        clock = self.clock

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = children.pop()
                entry = totals.get(name)
                if entry is None:
                    entry = totals[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - nested
                if children:
                    children[-1] += elapsed
            if bucket is not None:
                entry = totals.setdefault(bucket(result), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
            return result

        return functools.update_wrapper(traced, fn)

    def snapshot(self) -> Dict[str, Tuple[float, float, float]]:
        return {name: tuple(entry) for name, entry in self.totals.items()}

    def since(self, before: Dict[str, Tuple[float, float, float]]
              ) -> Dict[str, Tuple[float, float, float]]:
        """Per-seam ``(calls, inclusive_s, self_s)`` booked after ``before``."""
        delta = {}
        for name, entry in self.totals.items():
            old = before.get(name, (0, 0.0, 0.0))
            if entry[0] != old[0]:
                delta[name] = tuple(now - then
                                    for now, then in zip(entry, old))
        return delta

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def inclusive_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def attributed_s(self) -> float:
        """Self time summed over every seam (buckets excluded: their time
        is already inside ``memory.access``)."""
        return sum(entry[2] for name, entry in self.totals.items()
                   if not name.startswith("memory.access_"))


def _owner(module: str, cls: Optional[str]):
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextlib.contextmanager
def patched(tracer: Tracer, seams=SEAMS) -> Iterator[Tracer]:
    """Wrap every seam for the duration of the block, then restore it.

    An attribute the owner only inherited is deleted again on exit, so the
    class resolves to its base method exactly as before.
    """
    saved = []
    try:
        for module, cls, attr, name in seams:
            owner = _owner(module, cls)
            own = vars(owner)
            saved.append((owner, attr, attr in own, own.get(attr)))
            setattr(owner, attr,
                    tracer.wrap(name, getattr(owner, attr), BUCKETS.get(name)))
        yield tracer
    finally:
        for owner, attr, had, original in reversed(saved):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class SpanLog:
    """Item spans in the ``repro.telemetry.obs.Span`` JSONL format.

    One root span per item (a program run, a cell, a linted program, a
    request); the seams the item touched become child spans whose
    ``dur_ms`` is their summed inclusive time and whose attributes carry
    the call count and summed self time.  Spans stay in memory until
    :meth:`write`.
    """

    def __init__(self, trace_id: str, epoch: Optional[float] = None):
        from repro.telemetry.obs import Span
        self._span = Span
        self.trace_id = trace_id
        self.epoch = time.perf_counter() if epoch is None else epoch
        self.spans: list = []
        self._ids = 0

    def _id(self) -> str:
        self._ids += 1
        return f"{self._ids:016x}"

    def _ms(self, t: float) -> float:
        return (t - self.epoch) * 1000.0

    def item(self, name: str, start: float, end: float,
             seams: Optional[Dict[str, Tuple[float, float, float]]] = None,
             children: Tuple[Tuple[str, float], ...] = (),
             **attrs) -> None:
        """Record one item; ``children`` are ``(name, dur_ms)`` phases laid
        end to end from the item's start (the service's own timings)."""
        Span = self._span
        root = self._id()
        t0 = self._ms(start)
        self.spans.append(Span(self.trace_id, root, "", name, t0,
                               (end - start) * 1000.0, attrs=attrs))
        for seam, (calls, inclusive, own) in sorted((seams or {}).items()):
            self.spans.append(Span(
                self.trace_id, self._id(), root, seam, t0, inclusive * 1000.0,
                attrs={"calls": int(calls), "self_ms": round(own * 1000.0, 6)}))
        cursor = t0
        for phase, dur_ms in children:
            self.spans.append(Span(self.trace_id, self._id(), root, phase,
                                   cursor, dur_ms))
            cursor += dur_ms

    def write(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True,
                                        separators=(",", ":")) + "\n")
