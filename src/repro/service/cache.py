"""Content-hash verdict cache: durable JSONL + in-flight single-flight.

Two layers with one key (:func:`repro.service.protocol.content_key`):

- :class:`VerdictCache` — completed verdicts, persisted as checksummed
  records through :mod:`repro.store` (DESIGN.md § "Durable state"): a
  crash mid-append leaves the previous intact file, and a corrupted,
  truncated or stale record is *skipped and counted* at warm-start, never
  trusted and never fatal.  Restarting the service over the same state
  directory therefore warm-starts with every verdict that ever completed.
- :class:`SingleFlight` — the in-flight dedup: the first request for a
  key becomes the *leader* and computes; identical concurrent requests
  become followers awaiting the leader's future, so a thundering herd of
  the same program costs one worker slot, not N.
"""

from __future__ import annotations

import asyncio
import os
from typing import Dict, Optional, Tuple

from repro.store import append_record, load_records

#: Bump when the cached-record layout changes; stale records re-compute.
#: A change in analyzer semantics bumps both this and
#: ``repro.analysis.modular.incremental.SUMMARY_SCHEMA``: a verdict is
#: keyed on request content alone, so only the schema retires one that an
#: older analyzer computed.  2: unknown-offset load summaries are keyed by
#: segment address, not name.
CACHE_SCHEMA = 2


class VerdictCache:
    """Durable content-hash -> verdict-payload map, one JSONL file."""

    FILE = "verdicts.jsonl"

    def __init__(self, directory: str):
        self.directory = directory
        self.path = os.path.join(directory, self.FILE)
        self._entries: Dict[str, dict] = {}
        #: Records rejected at warm-start (corrupt/stale), for the report.
        self.rejected = 0
        os.makedirs(directory, exist_ok=True)
        self._load()

    def _load(self) -> None:
        records, rejects = load_records(self.path, CACHE_SCHEMA)
        self.rejected = len(rejects)
        for record in records:
            # Later records win: a re-computed verdict supersedes.
            self._entries[record["key"]] = record["row"]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[dict]:
        return self._entries.get(key)

    def put(self, key: str, row: dict) -> None:
        """Store and durably append one verdict payload."""
        append_record(self.path, {"schema": CACHE_SCHEMA, "key": key,
                                  "row": row})
        self._entries[key] = row


class SingleFlight:
    """Coalesce concurrent identical computations onto one future."""

    def __init__(self) -> None:
        self._inflight: Dict[str, asyncio.Future] = {}

    def begin(self, key: str) -> Tuple[asyncio.Future, bool]:
        """(future, is_leader): the leader computes and must
        :meth:`resolve`; followers just await the future."""
        future = self._inflight.get(key)
        if future is not None and not future.done():
            return future, False
        future = asyncio.get_running_loop().create_future()
        # A leader with no followers never awaits the future; retrieve any
        # exception eagerly so asyncio doesn't warn at GC time.
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None)
        self._inflight[key] = future
        return future, True

    def resolve(self, key: str, result: Optional[dict] = None,
                error: Optional[BaseException] = None) -> None:
        """Deliver the leader's outcome to every follower."""
        future = self._inflight.pop(key, None)
        if future is None or future.done():
            return
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    def abandon_all(self, error: BaseException) -> int:
        """Fail every in-flight future (drain-timeout cut); returns count."""
        cut = 0
        for key in list(self._inflight):
            future = self._inflight.pop(key)
            if not future.done():
                future.set_exception(error)
                cut += 1
        return cut

    @property
    def in_flight(self) -> int:
        return sum(1 for f in self._inflight.values() if not f.done())
