"""Configuration dataclasses for the simulated system.

The default values reproduce Table 2 of the paper (an ARM Cortex-A76-like
core): 8-wide issue/commit, 32-entry issue queue, 40-entry ROB, 16-entry load
and store queues, 32KB 2-way L1 caches, a 1MB 16-way L2, and a 16-entry
Line-Fill Buffer.  ``CORTEX_A76`` is the ready-made instance used by the
evaluation harness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError


class DefenseKind(enum.Enum):
    """The mitigation mechanisms the paper evaluates (Figures 6-9, Table 1).

    ``NONE`` is the unsafe baseline every figure normalizes against.
    ``FENCE`` models the "Speculative Barriers" bars (delay-ACCESS class),
    ``STT`` Speculative Taint Tracking (delay-USE), ``GHOSTMINION`` the
    shadow-structure scheme (delay-TRANSMIT), ``SPECCFI`` control-flow-only
    protection, ``SPECASAN`` the paper's contribution, and ``SPECASAN_CFI``
    the SpecASan+SpecCFI composition of §4.2/Figure 9.
    """

    NONE = "none"
    FENCE = "fence"
    STT = "stt"
    GHOSTMINION = "ghostminion"
    SPECCFI = "speccfi"
    SPECASAN = "specasan"
    SPECASAN_CFI = "specasan+cfi"

    @property
    def uses_specasan(self) -> bool:
        """Whether this defense includes the SpecASan tag-check mechanism."""
        return self in (DefenseKind.SPECASAN, DefenseKind.SPECASAN_CFI)

    @property
    def uses_cfi(self) -> bool:
        """Whether this defense includes speculative CFI enforcement."""
        return self in (DefenseKind.SPECCFI, DefenseKind.SPECASAN_CFI)


#: The defense bars of Figure 6/7 (plus the implicit unsafe baseline).
FIG6_DEFENSES = [DefenseKind.FENCE, DefenseKind.STT,
                 DefenseKind.GHOSTMINION, DefenseKind.SPECASAN]
#: Figure 8 compares restriction fractions for these mechanisms.
FIG8_DEFENSES = [DefenseKind.FENCE, DefenseKind.STT, DefenseKind.SPECASAN]
#: Figure 9's three bars.
FIG9_DEFENSES = [DefenseKind.SPECCFI, DefenseKind.SPECASAN,
                 DefenseKind.SPECASAN_CFI]


class TagPolicy(enum.Enum):
    """How the tagging allocator assigns allocation tags (§6).

    ``RANDOM`` mimics IRG-style random tag generation (tags may collide,
    1/16 chance for unrelated allocations).  ``DETERMINISTIC`` cycles tags so
    that adjacent and reused allocations always differ, the policy the paper
    recommends for security-critical data since leaked tags then do not help
    the attacker.
    """

    RANDOM = "random"
    DETERMINISTIC = "deterministic"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    ``tagged`` selects whether the cache stores MTE allocation tags alongside
    each line and performs the tag check at lookup time (§3.3.1).
    """

    name: str
    size_bytes: int
    associativity: int
    line_bytes: int = 64
    hit_latency: int = 2
    mshr_entries: int = 8
    tagged: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0 or self.line_bytes <= 0:
            raise ConfigError(f"{self.name}: sizes must be positive")
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} is not divisible by "
                f"assoc*line ({self.associativity}*{self.line_bytes})"
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigError(f"{self.name}: line size must be a power of two")

    @property
    def num_sets(self) -> int:
        """Number of sets in this cache."""
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class MemoryConfig:
    """DRAM, memory-controller, and Line-Fill Buffer parameters.

    The memory controller issues a tag-storage read in parallel with each
    data read (§3.3.4); ``tag_fetch_extra_latency`` models the cases where
    the tag response is the critical path.
    """

    dram_latency: int = 80
    controller_latency: int = 4
    lfb_entries: int = 16
    lfb_hit_latency: int = 2
    tag_fetch_extra_latency: int = 2
    size_bytes: int = 1 << 24  # 16 MiB of simulated physical memory
    #: Whether LFB entries carry allocation tags (§3.3.3).  Disabling this
    #: is the "LFB tagging off" ablation: stale in-flight data is no longer
    #: gated by locks and the MDS protection collapses.
    lfb_tagged: bool = True
    #: Hardware prefetcher: "none" or "next-line" (§6 future work).
    prefetcher: str = "none"
    #: Whether the prefetcher checks allocation tags before installing a
    #: line (the SpecASan prefetcher extension §6 leaves to future work).
    prefetch_check_tags: bool = False

    def __post_init__(self) -> None:
        if self.dram_latency <= 0 or self.size_bytes <= 0:
            raise ConfigError("memory latencies and size must be positive")
        if self.size_bytes % 16:
            raise ConfigError("memory size must be a multiple of the 16B granule")


@dataclass(frozen=True)
class MTEConfig:
    """Memory Tagging Extension parameters (§2.3).

    ARM MTE fixes the granule at 16 bytes and the tag width at 4 bits; both
    are configurable here so the tag-collision ablation can explore wider
    tags.
    """

    granule_bytes: int = 16
    tag_bits: int = 4
    tag_policy: TagPolicy = TagPolicy.DETERMINISTIC
    seed: int = 0xA11C

    def __post_init__(self) -> None:
        if self.granule_bytes & (self.granule_bytes - 1):
            raise ConfigError("granule size must be a power of two")
        if not 1 <= self.tag_bits <= 8:
            raise ConfigError("tag width must be between 1 and 8 bits")

    @property
    def num_tags(self) -> int:
        """Number of distinct tag values (16 for ARM MTE)."""
        return 1 << self.tag_bits


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (Table 2)."""

    fetch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    iq_entries: int = 32
    rob_entries: int = 40
    lq_entries: int = 16
    sq_entries: int = 16
    # Branch prediction structures exercised by Spectre v1/v2/v5/BHB.
    # (A76-class: multi-K-entry direction and target predictors.)
    pht_entries: int = 16384
    btb_entries: int = 4096
    rsb_entries: int = 16
    bhb_bits: int = 8
    # Memory-dependence predictor (MDU, §3.4) for Spectre-STL.
    mdp_entries: int = 256
    # Functional-unit latencies.  Branch resolution is deliberately deep
    # (condition evaluation + redirect sit many stages past fetch on an
    # A76-class pipeline); together with ``mispredict_penalty`` this sets
    # the speculation-window length every delay-based defense pays for.
    alu_latency: int = 1
    mul_latency: int = 3
    div_latency: int = 12
    branch_latency: int = 4
    agu_latency: int = 1
    mispredict_penalty: int = 6
    # Cycles the ROB takes to broadcast "unsafe" to dependents (§3.4 notes
    # a large ROB may need multiple cycles; ablated in the benchmarks).
    unsafe_broadcast_latency: int = 1
    # Consecutive cycles without a commit before the core declares deadlock.
    # Must comfortably exceed the worst legitimate stall (an MSHR-full chain
    # of DRAM fetches plus tag reads is still well under a thousand cycles).
    deadlock_threshold: int = 50_000
    # Cycle budget for one run: the core raises SimulationError when a
    # program has not halted after this many cycles.  Hoisted here (it used
    # to be a hard-coded ``Core.run`` default) so experiment campaigns can
    # budget cycles per workload the same way they budget wall-clock time.
    max_cycles: int = 2_000_000

    def __post_init__(self) -> None:
        for name in ("fetch_width", "issue_width", "commit_width", "iq_entries",
                     "rob_entries", "lq_entries", "sq_entries"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"core parameter {name} must be positive")
        if self.rsb_entries <= 0 or self.btb_entries <= 0 or self.pht_entries <= 0:
            raise ConfigError("predictor sizes must be positive")
        if self.deadlock_threshold <= 0:
            raise ConfigError("deadlock_threshold must be positive")
        if self.max_cycles <= 0:
            raise ConfigError("max_cycles must be positive")


@dataclass(frozen=True)
class SystemConfig:
    """A complete simulated system: cores, caches, memory, MTE, and defense."""

    core: CoreConfig = field(default_factory=CoreConfig)
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L1I", size_bytes=32 * 1024, associativity=2, hit_latency=1,
        tagged=False))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L1D", size_bytes=32 * 1024, associativity=2, hit_latency=2))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L2", size_bytes=1024 * 1024, associativity=16, hit_latency=12,
        mshr_entries=16))
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    mte: MTEConfig = field(default_factory=MTEConfig)
    defense: DefenseKind = DefenseKind.NONE
    num_cores: int = 1

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigError("num_cores must be positive")
        if self.l1d.line_bytes != self.l2.line_bytes:
            raise ConfigError("L1D and L2 must share a line size")

    def with_defense(self, defense: DefenseKind) -> "SystemConfig":
        """Return a copy of this config running under ``defense``."""
        return replace(self, defense=defense)

    def with_cores(self, num_cores: int) -> "SystemConfig":
        """Return a copy of this config with ``num_cores`` cores."""
        return replace(self, num_cores=num_cores)


#: The configuration of Table 2: an ARM Cortex-A76-like core.
CORTEX_A76 = SystemConfig()


def describe(config: SystemConfig) -> str:
    """Render ``config`` as the rows of Table 2 (used by the quickstart)."""
    c = config.core
    rows = [
        ("CPU", "ARM Cortex A76 (modelled)"),
        ("Issue/Commit", f"{c.issue_width}-way issue, {c.commit_width} micro-ops/cycle commit"),
        ("IQ/ROB", f"{c.iq_entries}-entry Issue Queue, {c.rob_entries}-entry Reorder Buffer"),
        ("Load/Store Queues", f"{c.lq_entries}-entry each"),
        ("L1 I-Cache", _cache_row(config.l1i)),
        ("L1 D-Cache", _cache_row(config.l1d)),
        ("L2 Cache", _cache_row(config.l2)),
        ("Line Fill Buffer", f"{config.memory.lfb_entries}-entry (cache line), "
                             f"{config.memory.lfb_hit_latency} cycle hit, tagged"),
        ("Defense", config.defense.value),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _cache_row(cache: CacheConfig) -> str:
    size_kb = cache.size_bytes // 1024
    size = f"{size_kb} KB" if size_kb < 1024 else f"{size_kb // 1024} MB"
    tagged = ", tagged" if cache.tagged else ""
    return (f"{size}, {cache.associativity}-way, {cache.line_bytes}B line, "
            f"{cache.hit_latency} cycle hit{tagged}")
