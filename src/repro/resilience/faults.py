"""Microarchitectural fault injection.

The injector perturbs the simulator's *own* state — allocation tags in DRAM
tag storage, memory-controller tag responses, MSHR/LFB free lists, predictor
state — under a seeded, reproducible schedule, so the resilience matrix can
answer the question SpecASan's threat model raises (and TikTag makes
concrete): when the machinery the defense relies on is itself perturbed,
does protection degrade *safely* (delays, replays, typed faults) rather
than silently leaking?

Fault classes and their hook points:

===================  =====================================================
``TAG_BIT_FLIP``     :meth:`repro.mte.tagstore.TagStorage.flip_bit`
``TAG_RESPONSE_DROP``/``_DELAY``
                     :attr:`repro.memory.controller.MemoryController.injector`
``MSHR_EXHAUST``     :meth:`repro.memory.mshr.MSHRFile.reserve`
``LFB_EXHAUST``      :meth:`repro.memory.lfb.LineFillBuffer.reserve`
``PREDICTOR_CORRUPT``
                     ``corrupt()`` on PHT/BTB/RSB/BHB/MDP
===================  =====================================================

Usage::

    schedule = FaultSchedule.generate(seed=7, kinds=[FaultKind.TAG_BIT_FLIP])
    injector = FaultInjector(schedule)
    injector.attach(core)          # core.run() now drives it each cycle
    core.run()
    print(injector.injected)       # the faults that actually fired
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple


class FaultKind(enum.Enum):
    """The fault classes the resilience matrix sweeps."""

    TAG_BIT_FLIP = "tag-bit-flip"
    TAG_RESPONSE_DROP = "tag-response-drop"
    TAG_RESPONSE_DELAY = "tag-response-delay"
    MSHR_EXHAUST = "mshr-exhaust"
    LFB_EXHAUST = "lfb-exhaust"
    PREDICTOR_CORRUPT = "predictor-corrupt"


ALL_FAULT_KINDS: Tuple[FaultKind, ...] = tuple(FaultKind)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``address``/``bit`` apply to tag flips; ``count``/``duration`` to
    structure exhaustion; ``delay`` to tag-response perturbation; ``target``
    names the predictor for ``PREDICTOR_CORRUPT`` (``"pht"``, ``"btb"``,
    ``"rsb"``, ``"bhb"``, ``"mdp"`` or ``"all"``).
    """

    cycle: int
    kind: FaultKind
    address: int = 0
    bit: int = 0
    count: int = 0
    duration: int = 0
    delay: int = 0
    target: str = "all"

    def describe(self) -> str:
        extra = {
            FaultKind.TAG_BIT_FLIP: f"addr={self.address:#x} bit={self.bit}",
            FaultKind.TAG_RESPONSE_DROP: f"count={self.count}",
            FaultKind.TAG_RESPONSE_DELAY: f"count={self.count} delay={self.delay}",
            FaultKind.MSHR_EXHAUST: f"count={self.count} for={self.duration}",
            FaultKind.LFB_EXHAUST: f"count={self.count} for={self.duration}",
            FaultKind.PREDICTOR_CORRUPT: f"target={self.target}",
        }[self.kind]
        return f"@{self.cycle} {self.kind.value} {extra}"


@dataclass
class FaultSchedule:
    """A seeded, ordered list of fault events."""

    seed: int
    events: List[FaultEvent] = field(default_factory=list)

    @classmethod
    def generate(cls, seed: int, kinds: Sequence[FaultKind],
                 *, count: int = 4, start_cycle: int = 200,
                 window: int = 20_000,
                 address_range: Tuple[int, int] = (0x04000, 0x08000),
                 tag_bits: int = 4, exhaust_count: int = 64,
                 exhaust_duration: int = 2_000,
                 response_delay: int = 400) -> "FaultSchedule":
        """Build a reproducible schedule of ``count`` events per kind.

        ``address_range`` bounds tag-flip targets (defaults cover the attack
        gadgets' victim/secret region so flips actually land somewhere that
        matters); ``exhaust_count`` intentionally exceeds any real structure
        so reservations saturate whatever capacity the config gives.
        """
        rng = random.Random(seed)
        events: List[FaultEvent] = []
        lo, hi = address_range
        for kind in kinds:
            for _ in range(count):
                cycle = start_cycle + rng.randrange(max(1, window))
                if kind is FaultKind.TAG_BIT_FLIP:
                    granule = rng.randrange(lo // 16, hi // 16)
                    events.append(FaultEvent(
                        cycle, kind, address=granule * 16,
                        bit=rng.randrange(tag_bits)))
                elif kind is FaultKind.TAG_RESPONSE_DROP:
                    events.append(FaultEvent(cycle, kind,
                                             count=1 + rng.randrange(4)))
                elif kind is FaultKind.TAG_RESPONSE_DELAY:
                    events.append(FaultEvent(
                        cycle, kind, count=1 + rng.randrange(4),
                        delay=1 + rng.randrange(response_delay)))
                elif kind in (FaultKind.MSHR_EXHAUST, FaultKind.LFB_EXHAUST):
                    events.append(FaultEvent(
                        cycle, kind, count=exhaust_count,
                        duration=1 + rng.randrange(exhaust_duration)))
                elif kind is FaultKind.PREDICTOR_CORRUPT:
                    target = rng.choice(
                        ["pht", "btb", "rsb", "bhb", "mdp", "all"])
                    events.append(FaultEvent(cycle, kind, target=target))
        events.sort(key=lambda e: e.cycle)
        return cls(seed=seed, events=events)


class FaultInjector:
    """Applies a :class:`FaultSchedule` to a running core.

    Attach with :meth:`attach`; :meth:`repro.pipeline.core.Core.run` then
    calls :meth:`tick` once per cycle.  All randomness is derived from the
    schedule's seed, so a run is exactly reproducible given (program, config,
    schedule).
    """

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        self._rng = random.Random(schedule.seed ^ 0x5EED)
        self._pending = sorted(schedule.events, key=lambda e: e.cycle)
        self._next = 0
        #: Events that have fired, as (cycle-applied, FaultEvent).
        self.injected: List[Tuple[int, FaultEvent]] = []
        # Armed tag-response perturbations, consumed by the controller.
        self._drops_armed = 0
        self._delays_armed = 0
        self._delay_cycles = 0
        # Outstanding structure reservations: (release_cycle, release_fn).
        self._releases: List[Tuple[int, object]] = []
        self.core = None

    # -- wiring ------------------------------------------------------------

    def attach(self, core) -> "FaultInjector":
        """Bind to ``core`` (and its hierarchy's controller); returns self."""
        self.core = core
        core.fault_injector = self
        core.hierarchy.controller.injector = self
        return self

    # -- controller-facing hook -------------------------------------------

    def perturb_tag_response(self) -> Tuple[bool, int]:
        """Consume one armed drop/delay, if any: (dropped, delay_cycles)."""
        dropped = False
        delay = 0
        if self._drops_armed > 0:
            self._drops_armed -= 1
            dropped = True
        if self._delays_armed > 0:
            self._delays_armed -= 1
            delay = self._delay_cycles
        return dropped, delay

    # -- per-cycle driver --------------------------------------------------

    def tick(self, core) -> None:
        """Apply every event scheduled at or before ``core.cycle``."""
        cycle = core.cycle
        if self._releases:
            due = [r for r in self._releases if r[0] <= cycle]
            if due:
                self._releases = [r for r in self._releases if r[0] > cycle]
                for _, release in due:
                    release()
        while (self._next < len(self._pending)
               and self._pending[self._next].cycle <= cycle):
            event = self._pending[self._next]
            self._next += 1
            self._apply(core, event)
            self.injected.append((cycle, event))

    def _apply(self, core, event: FaultEvent) -> None:
        hierarchy = core.hierarchy
        kind = event.kind
        if kind is FaultKind.TAG_BIT_FLIP:
            hierarchy.memory.tags.flip_bit(event.address, event.bit)
        elif kind is FaultKind.TAG_RESPONSE_DROP:
            self._drops_armed += event.count
        elif kind is FaultKind.TAG_RESPONSE_DELAY:
            self._delays_armed += event.count
            self._delay_cycles = event.delay
        elif kind is FaultKind.MSHR_EXHAUST:
            release_at = core.cycle + event.duration
            for mshrs in list(hierarchy.l1_mshrs) + [hierarchy.l2_mshrs]:
                if mshrs.reserve(event.count, release_at):
                    self._releases.append((release_at, mshrs.release_reserved))
        elif kind is FaultKind.LFB_EXHAUST:
            release_at = core.cycle + event.duration
            lfb = hierarchy.lfbs[core.core_id]
            if lfb.reserve(event.count, release_at):
                self._releases.append((release_at, lfb.release_reserved))
        elif kind is FaultKind.PREDICTOR_CORRUPT:
            self._corrupt_predictors(core, event.target)

    def _corrupt_predictors(self, core, target: str) -> None:
        structures = {
            "pht": core.pht, "btb": core.btb, "rsb": core.rsb,
            "bhb": core.bhb, "mdp": core.mdp,
        }
        if target == "all":
            for structure in structures.values():
                structure.corrupt(self._rng)
        else:
            structures[target].corrupt(self._rng)

    # -- reporting ---------------------------------------------------------

    @property
    def injected_kinds(self) -> set:
        return {event.kind for _, event in self.injected}

    def report(self) -> str:
        """Human-readable log of the faults that fired."""
        if not self.injected:
            return "no faults injected"
        return "\n".join(event.describe() for _, event in self.injected)
