"""Resilience subsystem: fault injection, invariant checking, watchdogs.

Answers the robustness question the paper's threat model leaves open: when
the machinery SpecASan relies on (tag storage, tag responses, miss-tracking
structures, predictors) is itself perturbed, does protection fail *safe* —
delays, replays, fence fallback, typed faults — rather than silently leak?

Quick start::

    from repro.resilience import (FaultKind, FaultSchedule, FaultInjector,
                                  InvariantChecker, Watchdog,
                                  GracefulDegradation)

    checker = InvariantChecker(degradation=GracefulDegradation()).attach(core)
    Watchdog().attach(core)
    FaultInjector(FaultSchedule.generate(7, [FaultKind.TAG_BIT_FLIP])).attach(core)
    core.run()

``python -m repro.resilience --selftest`` runs the built-in smoke sweep.
"""

from repro.resilience.faults import (ALL_FAULT_KINDS, FaultEvent,
                                     FaultInjector, FaultKind, FaultSchedule)
from repro.resilience.harness import (DEFAULT_DEFENSES, ResilienceCell,
                                      evaluate_resilience_matrix,
                                      render_resilience_matrix,
                                      run_resilient_attack)
from repro.resilience.invariants import INVARIANTS, InvariantChecker
from repro.resilience.snapshot import core_snapshot, rebuild_core, summarize
from repro.resilience.watchdog import (DegradationEvent, DegradationMode,
                                       GracefulDegradation, Watchdog)

__all__ = [
    "ALL_FAULT_KINDS", "FaultEvent", "FaultInjector", "FaultKind",
    "FaultSchedule", "DEFAULT_DEFENSES", "ResilienceCell",
    "evaluate_resilience_matrix", "render_resilience_matrix",
    "run_resilient_attack", "INVARIANTS", "InvariantChecker",
    "core_snapshot", "rebuild_core", "summarize", "DegradationEvent",
    "DegradationMode",
    "GracefulDegradation", "Watchdog",
]
