"""JSON-lines protocol of the spec-lint service.

One request per line, one response per line, plain TCP or stdio — no
framing library, no third-party deps.  A request is a JSON object::

    {"id": "r1", "op": "lint", "source": "...assembly...",
     "defense": "specasan", "secret_ranges": [[16640, 16656]],
     "confirm": true, "deadline_s": 10.0}

- ``op`` — ``lint`` (the work op), ``ping`` (liveness + health snapshot),
  or ``stats`` (live ``service.*`` registry dump).  Both auxiliary ops are
  answered inline and never enter the admission queue.
- ``source`` *or* ``witness`` — the program: ``.s`` assembly text, or the
  name of a synthesized witness subject (``pht``, ``stl/untagged``, ...)
  standing in for a pre-assembled program.
- ``defense`` — the :class:`~repro.config.DefenseKind` dynamic
  confirmation runs under; the static verdict table always covers every
  defense.
- ``deadline_s`` — the request budget; it bounds queue time, analysis,
  and simulator confirmation together (server caps apply).
- ``confirm`` — request the full static+dynamic tier; the server may
  degrade it (ladder: ``static+dynamic`` → ``static`` → ``cache``) and
  records the served tier in the response.

Responses echo ``id`` and carry either ``"ok": true`` with the verdict
payload (``tier``, ``degraded``, ``cached``, ``verdicts``, ``gadgets``,
optional ``dynamic``) or ``"ok": false`` with a typed error object whose
``kind`` is one of :data:`repro.errors.SERVICE_ERROR_KINDS`.  Every lint
response additionally carries the request's ``trace`` ID (client-supplied
``trace`` field, or minted at admission) and — on success — a ``timings``
breakdown (``queue_wait_ms`` / ``analysis_ms`` / ``confirm_ms`` /
``other_ms``) whose parts sum to ``total_ms`` exactly.  The ``stats`` op
accepts ``"format": "prometheus"`` for a text exposition snapshot.

Every malformed input maps to a :class:`~repro.errors.ServiceError`, never
an unhandled exception: the parse layer is the service's first bulkhead.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.config import DefenseKind
from repro.errors import ServiceError
from repro.telemetry.obs import is_trace_id

#: Protocol schema version, echoed in responses; requests may pin it.
PROTOCOL_VERSION = 1

#: Default cap on one request line (oversize requests are shed unread).
MAX_REQUEST_BYTES = 256 * 1024

#: Ops answered from the admission queue vs. inline.
WORK_OPS = frozenset({"lint"})
INLINE_OPS = frozenset({"ping", "stats"})
OPS = WORK_OPS | INLINE_OPS

#: Chaos modes a worker honours only when the server enables fault
#: injection (``--allow-chaos``): the smoke drill's crash/hang levers.
CHAOS_MODES = frozenset({"die", "hang"})


@dataclass(frozen=True)
class Request:
    """One validated protocol request."""

    id: str
    op: str
    source: str = ""
    witness: str = ""
    defense: DefenseKind = DefenseKind.SPECASAN
    secret_ranges: Tuple[Tuple[int, int], ...] = ()
    confirm: bool = False
    deadline_s: Optional[float] = None
    chaos: str = ""
    #: Client-supplied trace ID; the server mints one when empty and
    #: echoes it in the response either way.
    trace: str = ""
    #: ``stats`` op output format: ``json`` (registry dump) or
    #: ``prometheus`` (text exposition snapshot).
    fmt: str = "json"

    @property
    def subject(self) -> str:
        return self.witness if self.witness else self.source


def _require(condition: bool, message: str, kind: str = "malformed") -> None:
    if not condition:
        raise ServiceError(message, kind=kind)


def parse_request(line: str,
                  max_bytes: int = MAX_REQUEST_BYTES) -> Request:
    """Validate one request line into a :class:`Request` (fail typed)."""
    _require(len(line.encode("utf-8", errors="replace")) <= max_bytes,
             f"request exceeds {max_bytes} bytes", kind="oversize")
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"request is not valid JSON: {exc.msg}",
                           kind="malformed")
    _require(isinstance(data, dict), "request must be a JSON object")
    version = data.get("v", PROTOCOL_VERSION)
    _require(version == PROTOCOL_VERSION,
             f"protocol version {version!r} != {PROTOCOL_VERSION}",
             kind="unsupported")

    request_id = data.get("id")
    _require(request_id is None or isinstance(request_id, (str, int)),
             "id must be a string or integer")
    op = data.get("op", "lint")
    _require(isinstance(op, str) and op in OPS,
             f"unknown op {op!r}; have {sorted(OPS)}", kind="unsupported")

    source = data.get("source", "")
    witness = data.get("witness", "")
    _require(isinstance(source, str) and isinstance(witness, str),
             "source/witness must be strings")
    if op in WORK_OPS:
        _require(bool(source) ^ bool(witness),
                 "exactly one of source (.s text) or witness "
                 "(gadget-class subject) is required")

    defense_name = data.get("defense", DefenseKind.SPECASAN.value)
    try:
        defense = DefenseKind(defense_name)
    except ValueError:
        raise ServiceError(
            f"unknown defense {defense_name!r}; have "
            f"{[d.value for d in DefenseKind]}", kind="malformed")

    raw_ranges = data.get("secret_ranges", [])
    _require(isinstance(raw_ranges, list), "secret_ranges must be a list")
    ranges: List[Tuple[int, int]] = []
    for entry in raw_ranges:
        _require(isinstance(entry, (list, tuple)) and len(entry) == 2
                 and all(isinstance(v, int) for v in entry),
                 f"secret range {entry!r} must be [lo, hi]")
        lo, hi = entry
        _require(0 <= lo < hi, f"secret range [{lo}, {hi}] must satisfy "
                               "0 <= lo < hi")
        ranges.append((lo, hi))

    confirm = data.get("confirm", False)
    _require(isinstance(confirm, bool), "confirm must be a boolean")
    deadline_s = data.get("deadline_s")
    _require(deadline_s is None
             or (isinstance(deadline_s, (int, float))
                 and not isinstance(deadline_s, bool) and deadline_s > 0),
             "deadline_s must be a positive number")
    chaos = data.get("chaos", "")
    _require(chaos == "" or chaos in CHAOS_MODES,
             f"unknown chaos mode {chaos!r}", kind="unsupported")
    trace = data.get("trace", "")
    _require(trace == "" or is_trace_id(trace),
             f"trace must be a short lowercase hex id, got {trace!r}")
    fmt = data.get("format", "json")
    _require(fmt in ("json", "prometheus"),
             f"unknown stats format {fmt!r}; have ['json', 'prometheus']",
             kind="unsupported")

    return Request(
        id="" if request_id is None else str(request_id), op=op,
        source=source, witness=witness, defense=defense,
        secret_ranges=tuple(ranges), confirm=confirm,
        deadline_s=float(deadline_s) if deadline_s is not None else None,
        chaos=chaos, trace=trace, fmt=fmt)


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------

def timing_breakdown(*, queue_wait_ms: float, analysis_ms: float,
                     confirm_ms: float, total_ms: float) -> dict:
    """The served-tier timing breakdown carried in every response.

    The named parts never overlap; ``other_ms`` is the remainder (worker
    fork, cache I/O, scheduling) so the parts always sum to the observed
    ``total_ms`` exactly — the envelope invariant the tests assert.
    """
    queue_wait_ms = max(0.0, queue_wait_ms)
    analysis_ms = max(0.0, analysis_ms)
    confirm_ms = max(0.0, confirm_ms)
    total_ms = max(total_ms, queue_wait_ms + analysis_ms + confirm_ms)
    other_ms = total_ms - queue_wait_ms - analysis_ms - confirm_ms
    return {"queue_wait_ms": round(queue_wait_ms, 3),
            "analysis_ms": round(analysis_ms, 3),
            "confirm_ms": round(confirm_ms, 3),
            "other_ms": round(other_ms, 3),
            "total_ms": round(queue_wait_ms + analysis_ms + confirm_ms
                              + other_ms, 3)}


def ok_response(request_id: str, *, tier: str, verdicts: dict,
                gadgets: list, degraded: bool = False,
                degraded_reason: str = "", cached: bool = False,
                coalesced: bool = False, dynamic: Optional[dict] = None,
                elapsed_s: float = 0.0, trace: str = "",
                timings: Optional[dict] = None) -> dict:
    response = {
        "v": PROTOCOL_VERSION, "id": request_id, "ok": True,
        "tier": tier, "degraded": degraded, "cached": cached,
        "coalesced": coalesced, "verdicts": verdicts, "gadgets": gadgets,
        "elapsed_s": round(elapsed_s, 6),
    }
    if trace:
        response["trace"] = trace
    if timings is not None:
        response["timings"] = timings
    if degraded_reason:
        response["degraded_reason"] = degraded_reason
    if dynamic is not None:
        response["dynamic"] = dynamic
    return response


def error_response(request_id: str, error: ServiceError,
                   trace: str = "") -> dict:
    response = {
        "v": PROTOCOL_VERSION, "id": request_id, "ok": False,
        "error": {"kind": error.kind, "message": str(error),
                  "retryable": error.retryable},
    }
    if trace:
        response["trace"] = trace
    return response


def pong_response(request_id: str, health: dict) -> dict:
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True,
            "pong": True, "health": health}


def stats_response(request_id: str, stats,
                   fmt: str = "json") -> dict:
    """``stats`` op payload: a registry dump (``json``) or a Prometheus
    text exposition snapshot (``prometheus``)."""
    if fmt == "prometheus":
        return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True,
                "format": "prometheus", "stats_text": stats}
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True,
            "stats": stats}


def encode(response: dict) -> str:
    """One response line (newline-terminated, compact)."""
    return json.dumps(response, sort_keys=True,
                      separators=(",", ":")) + "\n"


# ----------------------------------------------------------------------
# content identity
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _ContentKeyFields:
    """What makes two lint requests 'the same computation'."""

    subject: str
    is_witness: bool
    defense: str
    secret_ranges: Tuple[Tuple[int, int], ...] = ()
    confirm: bool = False
    chaos: str = field(default="")


def content_key(request: Request) -> str:
    """Content hash coalescing identical (program, config) requests.

    The served verdict depends on exactly these fields, so two requests
    agreeing on them share one computation (single-flight) and one cache
    entry.  Chaos-mode requests are keyed apart so an injected crash never
    poisons the cache entry of the genuine program.
    """
    fields = _ContentKeyFields(
        subject=request.subject, is_witness=bool(request.witness),
        defense=request.defense.value,
        secret_ranges=request.secret_ranges, confirm=request.confirm,
        chaos=request.chaos)
    canonical = json.dumps(
        {"subject": fields.subject, "witness": fields.is_witness,
         "defense": fields.defense,
         "secrets": [list(r) for r in fields.secret_ranges],
         "confirm": fields.confirm, "chaos": fields.chaos},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
