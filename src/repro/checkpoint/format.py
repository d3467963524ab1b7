"""The durable checkpoint file format.

One checkpoint is a single file::

    repro-ckpt\\n                  # magic
    {...header JSON...}\\n         # one line
    <section payloads, concatenated>

The header carries the schema version, the SHA-256-derived fingerprints of
the :class:`~repro.config.SystemConfig` and the program(s) the snapshot was
taken against, the paused cycle, and a section table (name, byte length,
SHA-256 of the compressed payload).  Each section is the zlib-compressed
canonical JSON of one ``state_dict()`` subtree, hashed independently so a
flipped bit is attributed to the section it hit.

Writes go through :func:`repro.store.atomic_write` (DESIGN.md § "Durable
state"), so a crash mid-write leaves either the old generation or the new
one, never a tear.  Reads fail *closed*: every malformed input maps to a
:class:`~repro.errors.CheckpointError` whose ``kind`` names the failure
class ("missing", "bad-magic", "torn-header", "schema-skew", "config-skew",
"truncated", "section-corrupt") — the degradation ladder upstream
(generation walk-back, straight-through re-run) keys off those kinds and
never sees a half-trusted snapshot.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import zlib
from typing import Dict, Iterable, Tuple

from repro.errors import CheckpointError
from repro.store import atomic_write

MAGIC = b"repro-ckpt\n"
#: Bump on any incompatible change to the header or section encoding.
SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def config_fingerprint(config) -> str:
    """Stable hash of a :class:`~repro.config.SystemConfig`.

    A checkpoint only restores into a system built from the identical
    config; the fingerprint is how the header enforces that.
    """
    blob = json.dumps(_jsonable(dataclasses.asdict(config)), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def program_fingerprint(programs) -> str:
    """Stable hash of one program or a sequence of programs.

    Covers the linked instruction listing and every data segment (name,
    address, tag, initial bytes): restored DynInstrs rehydrate their static
    instructions from the program text by pc, so the text must match.
    """
    if not isinstance(programs, (list, tuple)):
        programs = [programs]
    digest = hashlib.sha256()
    for program in programs:
        program.link()
        digest.update(program.listing().encode("utf-8"))
        for segment in program.data_segments:
            digest.update(
                f"\n{segment.name}@{segment.address:#x}:{segment.tag}\n"
                .encode("utf-8"))
            digest.update(segment.data)
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------

def write_checkpoint(path: str, sections: Dict[str, object], *,
                     config_hash: str, program_hash: str,
                     cycle: int) -> int:
    """Serialize ``sections`` to ``path``; returns the bytes written."""
    payloads = []
    table = []
    for name, obj in sections.items():
        payload = zlib.compress(
            json.dumps(obj, sort_keys=True).encode("utf-8"), 6)
        payloads.append(payload)
        table.append({"name": name, "length": len(payload),
                      "sha256": hashlib.sha256(payload).hexdigest()})
    header = {"schema": SCHEMA_VERSION, "config": config_hash,
              "program": program_hash, "cycle": cycle, "sections": table}
    blob = (MAGIC + json.dumps(header, sort_keys=True).encode("utf-8")
            + b"\n" + b"".join(payloads))
    atomic_write(path, blob)
    return len(blob)


# ----------------------------------------------------------------------
# reading (fail-closed)
# ----------------------------------------------------------------------

def read_header(path: str) -> Tuple[dict, int]:
    """Parse and validate the header; returns (header, payload offset).

    Raises :class:`CheckpointError` with kind "missing", "bad-magic", or
    "torn-header"; schema/config validation is the caller's
    (:func:`read_checkpoint`'s) job since only it knows the expectations.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        raise CheckpointError("no such checkpoint", path=path, kind="missing")
    if not blob.startswith(MAGIC):
        raise CheckpointError("magic bytes do not match", path=path,
                              kind="bad-magic")
    newline = blob.find(b"\n", len(MAGIC))
    if newline < 0:
        raise CheckpointError("header line is unterminated", path=path,
                              kind="torn-header")
    try:
        header = json.loads(blob[len(MAGIC):newline].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as err:
        raise CheckpointError(f"header is not valid JSON ({err})",
                              path=path, kind="torn-header")
    if not isinstance(header, dict) or "sections" not in header:
        raise CheckpointError("header is missing the section table",
                              path=path, kind="torn-header")
    return header, newline + 1


def read_checkpoint(path: str, *, expect_config: str = "",
                    expect_program: str = "") -> Tuple[dict, Dict[str, object]]:
    """Read, verify, and decode every section of a checkpoint.

    Returns ``(header, {section name: decoded object})``.  Any deviation —
    wrong schema, fingerprint skew against the expectations, short payload,
    hash mismatch, undecodable section — raises :class:`CheckpointError`
    with the matching ``kind``; nothing partially-verified is returned.
    """
    header, offset = read_header(path)
    if header.get("schema") != SCHEMA_VERSION:
        raise CheckpointError(
            f"schema {header.get('schema')!r} != supported {SCHEMA_VERSION}",
            path=path, kind="schema-skew")
    if expect_config and header.get("config") != expect_config:
        raise CheckpointError(
            f"config fingerprint {header.get('config')!r} != expected "
            f"{expect_config!r}", path=path, kind="config-skew")
    if expect_program and header.get("program") != expect_program:
        raise CheckpointError(
            f"program fingerprint {header.get('program')!r} != expected "
            f"{expect_program!r}", path=path, kind="config-skew")
    with open(path, "rb") as handle:
        blob = handle.read()
    sections: Dict[str, object] = {}
    for entry in header["sections"]:
        name = entry.get("name", "?")
        length = entry.get("length", -1)
        payload = blob[offset:offset + length]
        if length < 0 or len(payload) < length:
            raise CheckpointError(
                f"payload ends {length - len(payload)} bytes early",
                path=path, section=name, kind="truncated")
        if hashlib.sha256(payload).hexdigest() != entry.get("sha256"):
            raise CheckpointError("payload hash mismatch", path=path,
                                  section=name, kind="section-corrupt")
        try:
            sections[name] = json.loads(
                zlib.decompress(payload).decode("utf-8"))
        except (zlib.error, ValueError, UnicodeDecodeError) as err:
            raise CheckpointError(f"payload undecodable ({err})", path=path,
                                  section=name, kind="section-corrupt")
        offset += length
    return header, sections


def section_ranges(path: str) -> Iterable[Tuple[str, int, int]]:
    """Byte ranges ``(name, start, end)`` of each section payload.

    Used by the corruption tooling (:mod:`repro.checkpoint.corrupt` and the
    fault injector) to aim a bit-flip at a specific section.
    """
    header, offset = read_header(path)
    for entry in header["sections"]:
        yield entry["name"], offset, offset + entry["length"]
        offset += entry["length"]
