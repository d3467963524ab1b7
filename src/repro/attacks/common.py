"""Shared scaffolding for attack proof-of-concepts.

Every attack in :mod:`repro.attacks` builds a self-contained program with
the :class:`~repro.isa.builder.ProgramBuilder` and describes itself with an
:class:`AttackProgram`: where the planted secret lives, where the probe
array is, and which covert channel the PoC uses.  :func:`run_attack_program`
executes it under a chosen defense and applies the paper's §4.3 evaluation
methodology: rather than timing a real side channel, it inspects the
simulator's microarchitectural state (cache/LFB presence) and the
detection log of secret-dependent speculative activity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.config import CORTEX_A76, DefenseKind, SystemConfig
from repro.errors import DeadlockError, SimulationError
from repro.isa.builder import ProgramBuilder
from repro.system import build_system

#: Probe-array stride: one value per page, like the paper's ARRAY2[Y*4096].
PROBE_STRIDE = 4096
#: Number of candidate secret values the detector probes (one nibble).
CANDIDATES = 16

# Fixed address-space layout shared by the gadgets (untagged addresses).
ARRAY1_BASE = 0x04000       # victim array (in-bounds region)
SECRET_BASE = 0x04100       # the planted secret, a different tag granule
SIZE_CELL_A = 0x05000       # ARRAY1_SIZE copy used while training (cached)
SIZE_CELL_B = 0x06040       # ARRAY1_SIZE copy used in the attack (cold)
TABLES_BASE = 0x07000       # per-iteration index/pointer tables
PROBE_BASE = 0x100000       # ARRAY2: the transmission/probe array
SCRATCH_BASE = 0x0A000      # spill space for gadgets
SLOW_CELLS = 0x200000       # never-touched lines used to delay resolution

#: MTE tags used by the gadgets.
TAG_PUBLIC = 0x2            # attacker-accessible data
TAG_SECRET = 0x5            # the victim's protected data


@dataclass
class AttackProgram:
    """A built PoC plus everything the detector needs."""

    name: str
    variant: str
    builder_program: object  # repro.isa.program.Program
    secret_value: int
    secret_address: int
    secret_size: int = 16
    probe_base: int = PROBE_BASE
    probe_stride: int = PROBE_STRIDE
    candidates: int = CANDIDATES
    #: "cache" — recover via probe-array presence; "contention" — leak via
    #: secret-dependent execution-resource usage (SCC attacks).
    channel: str = "cache"
    #: Probe values architecturally touched by training/replay (excluded
    #: from the leak decision).
    benign_values: List[int] = field(default_factory=list)
    description: str = ""
    max_cycles: int = 400_000


@dataclass
class AttackOutcome:
    """Result of one PoC under one defense."""

    attack: str
    variant: str
    defense: DefenseKind
    leaked: bool
    recovered: List[int]
    contention_events: int
    cycles: int
    faulted: bool
    restricted: int

    def __str__(self) -> str:  # pragma: no cover - convenience
        verdict = "LEAKED" if self.leaked else "blocked"
        return (f"{self.attack}/{self.variant} under {self.defense.value}: "
                f"{verdict} (recovered={self.recovered})")


def run_attack_program(attack: AttackProgram, defense: DefenseKind,
                       config: Optional[SystemConfig] = None,
                       policy_factory=None) -> AttackOutcome:
    """Run ``attack`` under ``defense`` and evaluate leakage (§4.3).

    ``policy_factory`` substitutes a custom policy (ablation variants);
    ``defense`` is still used for reporting.
    """
    system = build_system((config or CORTEX_A76).with_defense(defense),
                          policy_factory=policy_factory)
    core = system.prepare(attack.builder_program)
    core.secret_ranges = [(attack.secret_address,
                           attack.secret_address + attack.secret_size)]
    try:
        core.run(max_cycles=attack.max_cycles)
    except (DeadlockError, SimulationError):
        # Deadlock/timeout counts as "did not leak via cache"; anything
        # else (a real bug) propagates.
        pass
    # Let in-flight fills land before probing.
    system.hierarchy.drain(core.cycle + 10_000)
    recovered = [
        value for value in range(attack.candidates)
        if value not in attack.benign_values
        and system.hierarchy.is_cached(
            attack.probe_base + value * attack.probe_stride)
    ]
    contention = sum(1 for event in core.leak_log
                     if event["kind"] == "contention")
    if attack.channel == "cache":
        leaked = attack.secret_value in recovered
    else:
        leaked = contention > 0
    return AttackOutcome(
        attack=attack.name, variant=attack.variant, defense=defense,
        leaked=leaked, recovered=recovered, contention_events=contention,
        cycles=core.cycle, faulted=core.fault is not None,
        restricted=len(core.policy.restricted_seqs))


def make_probe_array(b: ProgramBuilder, candidates: int = CANDIDATES,
                     tag: Optional[int] = None) -> int:
    """Lay out the probe (ARRAY2) segment; returns its base address."""
    b.zero_segment("probe", PROBE_BASE, candidates * PROBE_STRIDE, tag=tag)
    return PROBE_BASE


def plant_secret(b: ProgramBuilder, value: int,
                 address: int = SECRET_BASE, tag: int = TAG_SECRET) -> int:
    """Place the secret byte in its own tag granule; returns its address."""
    b.bytes_segment("secret", address, bytes([value] + [0] * 15), tag=tag)
    return address


def emit_transmit(b: ProgramBuilder, value_reg: str, probe_reg: str,
                  scratch: str = "X6", dest: str = "X8") -> None:
    """The USE+TRANSMIT stages: ``LDRB dest, [probe + value << 12]``."""
    b.lsl(scratch, value_reg, imm=12, note="USE: Y * 4096")
    b.add("X7", probe_reg, scratch)
    b.ldrb(dest, "X7", note="TRANSMIT: touch probe[Y*4096]")


def slow_cell_segment(b: ProgramBuilder, count: int = 8,
                      values: Optional[List[int]] = None) -> None:
    """Back the slow cells with real memory so the loads return data."""
    import struct
    payload = bytearray(count * 4096)
    for index in range(count):
        value = 0 if values is None or index >= len(values) else values[index]
        payload[index * 4096:index * 4096 + 8] = struct.pack(
            "<Q", value & (2**64 - 1))
    b.bytes_segment("slow_cells", SLOW_CELLS, bytes(payload))
