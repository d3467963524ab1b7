"""Durable records: the one write/read protocol behind every store.

The campaign result store, checkpoints, the service's verdict cache, the
modular summary cache and the fuzz corpus all keep state that must survive
a crash.  They share this protocol (DESIGN.md § "Durable state"):

- **Atomic writes** — :func:`atomic_write` writes a same-directory temp
  file, ``fsync``\\ s it and ``os.replace``\\ s it over the target, so a
  crash, even SIGKILL mid-write, leaves the old file or the new one and
  never a mix.  A failed write removes its temp file.
- **Checksummed records** — a record is a JSON object that carries its own
  ``schema`` and a ``sha256`` over its canonical JSON (the ``sha256`` field
  left out).  A record file is JSON Lines, one canonical record per line.
  :func:`append_record` rewrites the whole file atomically (O(n) per
  append; every store here is small) and terminates a torn tail line left
  by a non-atomic writer, so the new record lands on a line of its own.
- **Corruption-tolerant loads** — :func:`load_records` returns the intact
  records plus one :class:`Reject` per bad line: truncated JSON, checksum
  mismatch, or a foreign schema.  Callers re-compute or re-queue what was
  rejected; nothing damaged is trusted and nothing damaged is fatal.
- **Fail-closed manifests** — :func:`load_manifest` raises the caller's
  typed error on a missing, unreadable or foreign-schema manifest.  Which
  config a manifest pins (a campaign's config hash, a fuzz run's config)
  stays the caller's check.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Type, Union

CHECKSUM_FIELD = "sha256"


def canonical(obj: object) -> str:
    """Sorted-key, whitespace-free JSON: the form records hash and persist."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def checksum(record: dict) -> str:
    """SHA-256 of the record's canonical JSON, ``sha256`` field left out."""
    body = {k: v for k, v in record.items() if k != CHECKSUM_FIELD}
    return hashlib.sha256(canonical(body).encode("utf-8")).hexdigest()


def atomic_write(path: str, data: Union[str, bytes]) -> None:
    """Replace ``path`` with ``data`` via same-directory tmp + ``os.replace``."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _sealed_line(record: dict) -> str:
    return canonical({**record, CHECKSUM_FIELD: checksum(record)}) + "\n"


def write_records(path: str, records: Iterable[dict]) -> None:
    """Replace ``path`` with ``records``, each sealed with its checksum."""
    atomic_write(path, "".join(_sealed_line(record) for record in records))


def append_record(path: str, record: dict) -> None:
    """Durably append one sealed record to ``path``."""
    try:
        with open(path, "rb") as handle:
            existing = handle.read()
    except FileNotFoundError:
        existing = b""
    if existing and not existing.endswith(b"\n"):
        existing += b"\n"   # heal a torn tail; load_records reports the line
    atomic_write(path, existing + _sealed_line(record).encode("utf-8"))


@dataclass(frozen=True)
class Reject:
    """One record line :func:`load_records` refused to trust."""

    line_no: int
    reason: str
    #: The parsed object when the line was at least a JSON object: its
    #: fields still say which cell or key the damaged record claimed.
    record: Optional[dict] = None

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.reason}"


def load_records(path: str, schema: object
                 ) -> Tuple[List[dict], List[Reject]]:
    """The intact ``schema`` records of ``path`` plus one reject per bad
    line; a missing file holds no records."""
    records: List[dict] = []
    rejects: List[Reject] = []
    try:
        handle = open(path, encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return records, rejects
    with handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                rejects.append(Reject(line_no, f"unparseable JSON ({exc.msg})"
                                               " — truncated mid-write?"))
                continue
            if not isinstance(record, dict):
                rejects.append(Reject(line_no, "record is not an object"))
                continue
            stored = record.get(CHECKSUM_FIELD)
            if stored is None:
                reason = "missing checksum"
            elif stored != checksum(record):
                reason = "checksum mismatch — corrupted record"
            elif record.get("schema") != schema:
                reason = (f"schema {record.get('schema')!r} != {schema!r}"
                          " — stale record")
            else:
                records.append(record)
                continue
            rejects.append(Reject(line_no, reason, record))
    return records, rejects


def load_manifest(path: str, schema: object,
                  error_type: Type[Exception]) -> dict:
    """Read a JSON manifest, raising ``error_type`` unless it is intact and
    written under ``schema``."""
    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise error_type(
            f"{path}: no manifest — not a run directory, or its creation "
            "was interrupted before the first atomic manifest write"
        ) from None
    except (OSError, ValueError) as err:
        raise error_type(f"{path}: unreadable manifest ({err})") from None
    found = manifest.get("schema") if isinstance(manifest, dict) else None
    if found != schema:
        raise error_type(
            f"{path}: manifest schema {found!r} != supported {schema!r}")
    return manifest
