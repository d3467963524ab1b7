"""Gadget detection and per-defense static verdicts.

A *gadget* is a speculative entry (a :class:`~repro.analysis.windows
.Window` or an MDS pattern) plus at least one *transmitter* it reaches:

- a **cache** transmitter — a load whose address is secret-tainted (the
  ``ARRAY2[secret * 4096]`` touch);
- a **contention** transmitter — a ``MUL``/``UDIV`` with a secret-tainted
  operand (the SMoTHERSpectre/SpectreRewind resource channel).

The MDS patterns need no window:

- **SBB** (Fallout) — an uncommitted store with secret data and a younger
  load at the same page offset but a different granule (loosenet aliasing
  forwards the store's data), within one ROB of each other;
- **LFB** (RIDL/ZombieLoad) — a line-crossing constant-address load (the
  microcode-assist trigger) issued after a secret line transited the fill
  buffers.

For MDS gadgets the taint runs a second pass with the sampling loads marked
*stale* so the sampled value's path to a transmitter is tracked separately
from architectural secret use (the victim's own legitimate loads must not
count as transmitters).

``sanitized`` is the static SpecASan call (§3.3, §4.1):

- PHT/BTB/RSB — every access in the window that can touch a secret range
  carries a pointer key different from the allocation lock (cross-allocation
  access ⇒ the tag check fails and the ACCESS is delayed).  A same-key
  access is the TikTag-style residual of §4.3 and is **not** sanitized.
- STL — the bypassing load is *tagged* (key != 0), so its data is held
  until the store queue disambiguates.
- SBB — forwarding requires matching address keys: load key != store key
  ⇒ blocked.
- LFB — the entry's stored allocation tags gate hits: sampler key != the
  stale line's lock ⇒ blocked.

:func:`leaks_under` folds a gadget into one boolean per
:class:`~repro.config.DefenseKind`, mirroring the simulator's Table-1
behaviour; :mod:`repro.analysis.differential` cross-checks the two.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis import hooks
from repro.analysis.options import AnalysisOptions
from repro.analysis.taint import TaintResult, analyze
from repro.analysis.windows import EntryKind, Window, compute_windows
from repro.config import CoreConfig, DefenseKind
from repro.isa.instructions import INSTR_BYTES
from repro.isa.program import Program
from repro.mte.tags import key_of, strip_tag

#: Page size used by the loosenet partial-address match.
PAGE = 4096
#: MTE granule size used by the full-address disambiguation.
GRANULE = 16
#: Cache line size used by the line-crossing (assist) check.
LINE = 64


class Channel(enum.Enum):
    """How a gadget's transmitter is observed."""

    CACHE = "cache"
    CONTENTION = "contention"


@dataclass(frozen=True)
class Gadget:
    """One statically-found transient leak: entry, transmitters, verdicts."""

    kind: EntryKind
    #: Address of the branch/store/pattern source opening the window.
    source: int
    #: Speculative entry address (for MDS: the sampling load).
    entry: int
    #: Transmitter instruction addresses inside the window.
    transmitters: Tuple[int, ...]
    channels: Tuple[Channel, ...]
    #: (tagged pointer, key, lock) of every secret-range access involved.
    secret_accesses: Tuple[Tuple[int, int, int], ...]
    #: SpecASan's tag check stops this gadget (see module docstring).
    sanitized: bool
    entry_is_bti: bool = False
    description: str = ""

    def render(self) -> str:
        """One lint-style report line."""
        channels = "+".join(c.value for c in self.channels)
        transmit = ",".join(f"{t:#x}" for t in self.transmitters)
        verdict = "sanitized" if self.sanitized else "RESIDUAL"
        return (f"{self.source:#x}: [{self.kind.value}] entry {self.entry:#x}"
                f"{' (bti)' if self.entry_is_bti else ''} "
                f"transmit[{channels}] @ {transmit} — specasan: {verdict}"
                f"{' — ' + self.description if self.description else ''}")


def leaks_under(gadget: Gadget, defense: DefenseKind) -> bool:
    """Does ``gadget`` still leak when the core runs ``defense``?"""
    kind = gadget.kind
    mds = kind in (EntryKind.SBB, EntryKind.LFB)
    if defense is DefenseKind.NONE:
        return True
    if defense is DefenseKind.FENCE:
        # Barriers serialize speculation but the MDS loads are bound to
        # commit — no misprediction to fence off.
        return mds
    if defense in (DefenseKind.STT, DefenseKind.GHOSTMINION):
        # Delay-USE / hide-TRANSMIT: kills the cache channel of genuinely
        # speculative gadgets, but neither delays arithmetic (contention
        # still observable) nor helps against bound-to-commit MDS loads.
        return mds or Channel.CONTENTION in gadget.channels
    if defense is DefenseKind.SPECCFI:
        # Control-flow enforcement only: refuses speculative control
        # transfers to non-landing-pad targets and keeps a shadow stack.
        blocked = kind in (EntryKind.BTB, EntryKind.RSB) \
            and not gadget.entry_is_bti
        return not blocked
    if defense is DefenseKind.SPECASAN:
        return not gadget.sanitized
    if defense is DefenseKind.SPECASAN_CFI:
        return (leaks_under(gadget, DefenseKind.SPECASAN)
                and leaks_under(gadget, DefenseKind.SPECCFI))
    raise ValueError(f"unknown defense {defense!r}")


def program_leaks(gadgets: Sequence[Gadget], defense: DefenseKind) -> bool:
    """A program leaks if *any* of its gadgets survives the defense."""
    return any(leaks_under(gadget, defense) for gadget in gadgets)


# -- window gadgets -----------------------------------------------------------


def _window_gadget(taint: TaintResult, window: Window) -> Optional[Gadget]:
    transmitters: List[int] = []
    channels: Set[Channel] = set()
    accesses: List[Tuple[int, int, int]] = []
    for address in window.body:
        load = taint.loads.get(address)
        if load is not None:
            if load.address.secret:
                transmitters.append(address)
                channels.add(Channel.CACHE)
            accesses.extend(load.secret_accesses)
        value = taint.contention.get(address)
        if value is not None and value.secret \
                and not hooks.injected("drop-contention-transmitter"):
            transmitters.append(address)
            channels.add(Channel.CONTENTION)
    if not transmitters:
        return None
    if window.kind is EntryKind.STL:
        # §4.1: a tagged bypassing load is held until disambiguation.
        sanitized = bool(accesses) and all(key != 0 for _, key, _ in accesses)
    else:
        sanitized = bool(accesses) and all(key != lock
                                           for _, key, lock in accesses)
    return Gadget(kind=window.kind, source=window.source, entry=window.entry,
                  transmitters=tuple(sorted(set(transmitters))),
                  channels=tuple(sorted(channels, key=lambda c: c.value)),
                  secret_accesses=tuple(accesses), sanitized=sanitized,
                  entry_is_bti=window.entry_is_bti)


# -- MDS patterns -------------------------------------------------------------


@dataclass(frozen=True)
class _Pattern:
    kind: EntryKind
    source: int        # victim store (SBB) / victim secret load (LFB)
    sampler: int       # the attacker load that receives in-flight data
    sanitized: bool


def _find_loosenet(taint: TaintResult, rob: int) -> List[_Pattern]:
    """Fallout: secret store + younger page-offset-aliased load."""
    patterns = []
    for store_addr, store in taint.stores.items():
        if not store.data.secret or not store.pointers:
            continue
        for load_addr, load in taint.loads.items():
            distance = (load_addr - store_addr) // INSTR_BYTES
            if not 0 < distance <= rob:
                continue
            if load.address.consts is None:
                continue
            for sp in store.pointers:
                for lp in load.address.consts:
                    sa, la = strip_tag(sp), strip_tag(lp)
                    if sa % PAGE != la % PAGE or sa // GRANULE == la // GRANULE:
                        continue
                    patterns.append(_Pattern(
                        EntryKind.SBB, store_addr, load_addr,
                        sanitized=key_of(lp) != key_of(sp)))
    return patterns


def _find_lfb(taint: TaintResult) -> List[_Pattern]:
    """RIDL/ZombieLoad: line-crossing load after a secret line was in
    flight.  Not ROB-bounded: the stale fill-buffer entry outlives the
    victim load's ROB residency."""
    secret_loads = [(addr, load) for addr, load in taint.loads.items()
                    if load.secret_accesses]
    patterns = []
    for load_addr, load in taint.loads.items():
        if not load.line_crossing or load.address.consts is None:
            continue
        for victim_addr, victim in secret_loads:
            if victim_addr >= load_addr:
                continue
            locks = {lock for _, _, lock in victim.secret_accesses}
            keys = {key_of(p) for p in load.address.consts}
            patterns.append(_Pattern(
                EntryKind.LFB, victim_addr, load_addr,
                sanitized=all(key != lock for key in keys for lock in locks)))
    return patterns


def _pattern_gadgets(program: Program, taint: TaintResult,
                     patterns: List[_Pattern],
                     options: Optional[AnalysisOptions] = None) -> List[Gadget]:
    """Pass 2: re-run taint with the samplers stale, find what the sampled
    value reaches."""
    stale = analyze(program, taint.secret_ranges, cfg=taint.cfg,
                    stale_loads={p.sampler for p in patterns},
                    options=options)
    gadgets = []
    for pattern in patterns:
        transmitters: List[int] = []
        channels: Set[Channel] = set()
        for address, load in stale.loads.items():
            if address > pattern.sampler and load.address.stale:
                transmitters.append(address)
                channels.add(Channel.CACHE)
        for address, value in stale.contention.items():
            if address > pattern.sampler and value.stale:
                transmitters.append(address)
                channels.add(Channel.CONTENTION)
        if not transmitters:
            continue
        sampler = taint.loads[pattern.sampler]
        accesses = taint.loads.get(pattern.source)
        gadgets.append(Gadget(
            kind=pattern.kind, source=pattern.source, entry=pattern.sampler,
            transmitters=tuple(sorted(set(transmitters))),
            channels=tuple(sorted(channels, key=lambda c: c.value)),
            secret_accesses=(accesses.secret_accesses
                             if accesses is not None else
                             (taint.stores[pattern.source].pointers and ())
                             or ()),
            sanitized=pattern.sanitized,
            description=f"samples in-flight data via load {pattern.sampler:#x}"
                        f" (width {sampler.width})"))
    return gadgets


# -- entry point --------------------------------------------------------------


def find_gadgets(program: Program,
                 secret_ranges: Sequence[Tuple[int, int]] = (),
                 core: Optional[CoreConfig] = None,
                 taint: Optional[TaintResult] = None,
                 options: Optional[AnalysisOptions] = None) -> List[Gadget]:
    """All transient-leak gadgets of ``program`` (windows + MDS patterns).

    ``options`` reaches both taint passes (the MDS stale re-run reuses
    every cached region that holds no sampler load); a summary cache in it
    changes no gadget.
    """
    core = core or CoreConfig()
    if taint is None:
        taint = analyze(program, secret_ranges, options=options)
    gadgets: List[Gadget] = []
    for window in compute_windows(taint, core):
        gadget = _window_gadget(taint, window)
        if gadget is not None:
            gadgets.append(gadget)
    patterns = _find_loosenet(taint, core.rob_entries) + _find_lfb(taint)
    if patterns:
        gadgets.extend(_pattern_gadgets(program, taint, patterns, options))
    # Deterministic report order: window source, gadget class, entry block,
    # transmitter addresses.  Two runs over the same program (and re-runs in
    # CI) produce byte-identical reports.
    gadgets.sort(key=lambda g: (g.source, g.kind.value, g.entry,
                                g.transmitters))
    sink = hooks.coverage_sink()
    if sink is not None:
        for gadget in gadgets:
            for defense in DefenseKind:
                sink(hooks.verdict_feature(gadget.kind.value, defense.value,
                                           leaks_under(gadget, defense)))
    return gadgets
