"""Exception hierarchy shared across the simulator.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch simulator problems without swallowing unrelated Python
errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package.

    Attributes:
        flight: the tail of the process's
            :class:`~repro.telemetry.obs.FlightRecorder` — the last N
            spans/events before the failure — attached by the layer that
            owns the recorder (service front end, campaign scheduler) so a
            post-mortem carries recent history without verbose tracing
            enabled.  A tuple of plain event dicts; empty when no recorder
            was in scope.
    """

    #: Flight-recorder tail (recent event dicts) attached at raise time.
    flight: tuple = ()


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class AssemblerError(ReproError):
    """The assembler could not parse or resolve a program.

    Attributes:
        line_no: 1-based source line where the problem was found, or ``None``
            when the error is not tied to a specific line (e.g. a missing
            label referenced from several places).
    """

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class SimulationError(ReproError):
    """The simulation reached an invalid state (simulator bug or bad program)."""


class MemoryFault(SimulationError):
    """An architectural access touched unmapped memory.

    Carries the faulting (untagged) physical address so test harnesses and
    attack detectors can report precisely what went wrong.
    """

    def __init__(self, address: int, message: str = ""):
        self.address = address
        detail = message or "access to unmapped memory"
        super().__init__(f"{detail} at {address:#x}")


class TagCheckFault(SimulationError):
    """An MTE tag check failed on the committed path.

    Mirrors the synchronous tag-check fault ARM MTE raises when a pointer's
    key does not match the allocation tag (lock) of the granule it touches.
    Under SpecASan a *speculative* mismatch is delayed rather than faulting;
    the fault is only raised once the access is bound to commit (§3.4).
    """

    def __init__(self, address: int, key: int, lock: int, pc: int | None = None):
        self.address = address
        self.key = key
        self.lock = lock
        self.pc = pc
        where = f" (pc={pc:#x})" if pc is not None else ""
        super().__init__(
            f"tag check fault at {address:#x}: key {key:#x} != lock {lock:#x}{where}"
        )


class DeadlockError(SimulationError):
    """The pipeline made no forward progress for too many consecutive cycles.

    Attributes:
        cycles: consecutive cycles without a commit when the core gave up.
        snapshot: structured pipeline state captured at detection time
            (see :func:`repro.resilience.snapshot.core_snapshot`); empty when
            the error was raised without a core in hand.
    """

    def __init__(self, cycles: int, detail: str = "",
                 snapshot: dict | None = None):
        self.cycles = cycles
        self.snapshot = snapshot or {}
        suffix = f": {detail}" if detail else ""
        super().__init__(f"no instruction committed for {cycles} cycles{suffix}")


class LivelockError(SimulationError):
    """Instructions commit but the architectural PC makes no forward progress.

    Distinct from :class:`DeadlockError`: the commit stage is busy (so the
    no-commit watchdog never fires), yet the same tiny set of PCs retires
    forever — e.g. a one-instruction ``B .`` spin or a squash/replay storm
    that keeps re-committing the same loop with no exit.

    Attributes:
        commits: committed instructions observed inside the stuck window.
        distinct_pcs: the PCs the stuck window kept revisiting.
        snapshot: structured pipeline state captured at detection time.
    """

    def __init__(self, commits: int, distinct_pcs: tuple = (),
                 snapshot: dict | None = None):
        self.commits = commits
        self.distinct_pcs = tuple(distinct_pcs)
        self.snapshot = snapshot or {}
        pcs = ", ".join(f"{pc:#x}" for pc in self.distinct_pcs)
        super().__init__(
            f"{commits} commits with no forward PC progress (pcs: {pcs})")


class InvariantViolation(ReproError):
    """A cycle-level microarchitectural invariant failed.

    Raised by :class:`repro.resilience.invariants.InvariantChecker` when the
    pipeline or memory-system state is internally inconsistent — either a
    simulator bug or the intended effect of injected faults.

    Attributes:
        invariant: machine-readable invariant name (e.g. ``"rob-commit-order"``).
        structure: the faulty structure (``"rob"``, ``"lq"``, ``"sq"``,
            ``"mshr"``, ``"lfb"``, ``"tag-storage"``, ...).
        snapshot: structured pipeline state captured at detection time.
    """

    def __init__(self, invariant: str, message: str, structure: str = "",
                 snapshot: dict | None = None):
        self.invariant = invariant
        self.structure = structure or invariant.split("-")[0]
        self.snapshot = snapshot or {}
        super().__init__(f"invariant '{invariant}' violated "
                         f"[structure={self.structure}]: {message}")


class CheckpointError(ReproError):
    """A checkpoint could not be written, read, or restored.

    Restore-side failures are *expected* events, not bugs: the campaign
    worker catches this error when its shared warm-state file does not
    verify, re-warms the cell locally, and records the degradation in
    ``report.json``.  The structured attributes exist so that degradation
    records can name the fault class that was detected.

    Attributes:
        path: the checkpoint file involved.
        section: the section whose integrity check failed, or ``""`` when
            the failure is file-level (truncation, unparseable header).
        kind: machine-readable failure class — one of ``"truncated"``,
            ``"torn-header"``, ``"bad-magic"``, ``"schema-skew"``,
            ``"config-skew"``, ``"section-corrupt"``, ``"missing"``,
            ``"state-mismatch"``.
    """

    def __init__(self, message: str, *, path: str = "", section: str = "",
                 kind: str = "corrupt"):
        self.path = path
        self.section = section
        self.kind = kind
        where = f" [{path}]" if path else ""
        which = f" section={section!r}" if section else ""
        super().__init__(f"checkpoint {kind}{which}: {message}{where}")


class CampaignError(ReproError):
    """An experiment campaign could not be orchestrated.

    Cell-level *simulation* failures never raise this — they are retried and,
    at worst, surface as missing-cell markers in the rendered figures.
    ``CampaignError`` is reserved for harness-level problems: an unusable run
    directory, a manifest that does not match, a worker that died in a way
    the scheduler cannot interpret.
    """


class ManifestMismatch(CampaignError):
    """A resumed run directory was created by a different campaign config.

    Resuming under a changed configuration would silently mix rows measured
    under different parameters, so the mismatch is fail-stop.

    Attributes:
        expected: config hash recorded in the run directory's manifest.
        actual: config hash of the campaign requesting the resume.
    """

    def __init__(self, expected: str, actual: str, detail: str = ""):
        self.expected = expected
        self.actual = actual
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"run directory was created by a different campaign config: "
            f"manifest hash {expected} != requested {actual}{suffix}")


#: Machine-readable :class:`ServiceError` kinds, each mapped 1:1 to a
#: protocol error response by :mod:`repro.service.protocol`.
SERVICE_ERROR_KINDS = frozenset({
    "malformed",          # request line is not a valid protocol object
    "oversize",           # request exceeds the line-size budget
    "unsupported",        # unknown op / protocol version skew
    "invalid-program",    # the submitted program failed to assemble/link
    "overloaded",         # admission queue full: load shed
    "client-over-limit",  # per-client fairness cap exceeded
    "deadline",           # request budget expired (queued or running)
    "cancelled",          # cooperatively cancelled (client gone, drain cut)
    "quarantined",        # content hash tripped the poison-program breaker
    "draining",           # server is in SIGTERM drain; admission stopped
    "degraded-unavailable",  # ladder bottom: no tier can serve this request
    "worker-lost",        # worker died repeatedly; retries exhausted
})


class ServiceError(ReproError):
    """A spec-lint service request could not be served.

    Service failures are *protocol events*, not crashes: every kind maps to
    a typed error response the client can interpret (back off on
    ``overloaded``, re-submit later on ``draining``, give up on
    ``quarantined``).  The server never lets one of these take down the
    accept loop.

    Attributes:
        kind: machine-readable failure class, one of
            :data:`SERVICE_ERROR_KINDS`.
        retryable: hint to clients whether re-submitting the identical
            request later can succeed (load/lifecycle kinds) or is futile
            until the request itself changes (malformed, quarantined...).
    """

    #: Kinds a client may retry later without changing the request.
    RETRYABLE = frozenset({"overloaded", "client-over-limit", "deadline",
                           "cancelled", "draining",
                           "degraded-unavailable", "worker-lost"})

    def __init__(self, message: str, *, kind: str):
        if kind not in SERVICE_ERROR_KINDS:
            raise ValueError(f"unknown service error kind {kind!r}")
        self.kind = kind
        self.retryable = kind in self.RETRYABLE
        super().__init__(f"[{kind}] {message}")


class AnalysisError(ReproError):
    """The static-analysis toolchain could not complete a request.

    Raised by witness synthesis (a synthesized program failed its
    assemble/disassemble round-trip or does not exhibit the requested gadget
    class) and by automatic repair (no sufficient fix exists for a gadget,
    or a repaired program failed re-verification).
    """


class FuzzError(ReproError):
    """The differential fuzzer could not complete a request.

    Raised for harness-level failures — a generated candidate that fails
    its assemble/disassemble round-trip, a corpus directory whose manifest
    does not match the requested configuration, or a replay that diverges
    from its recorded corpus.  Analyzer/simulator *disagreements* are never
    exceptions: they are the fuzzer's product, triaged into minimized
    regression records.
    """
