"""PARSEC-like multi-threaded workloads (Figure 7/8's x-axis).

Seven profiles, one per benchmark the paper runs on the 4-core system
(§5.1 excludes 6 of 13).  Each thread runs the same body over a private
heap slice plus a fraction of traffic directed at a shared, coherently-
maintained region; shared *stores* generate real invalidation traffic
when the threads run on the cores of one
:class:`repro.system.SimulatedSystem`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.workloads.generator import generate, GeneratedWorkload, HEAP_BASE
from repro.workloads.profiles import WorkloadProfile

KB = 1024

#: Shared-region placement (all threads map it).
SHARED_BASE = 0xA00000
SHARED_SIZE = 16 * KB
#: Address stride between per-thread private heaps.
THREAD_HEAP_STRIDE = 0x180000


@dataclass(frozen=True)
class ParsecSpec:
    """A PARSEC profile plus its sharing behaviour."""

    profile: WorkloadProfile
    shared_fraction: float
    shared_store_fraction: float

    @property
    def name(self) -> str:
        return self.profile.name


PARSEC_SPECS: List[ParsecSpec] = [
    ParsecSpec(WorkloadProfile(
        "blackscholes", dependent_load=0.05, alu_weight=4.8, mul_weight=2.0, div_weight=0.4,
        load_weight=2.2, store_weight=0.8, branch_weight=0.7,
        branch_entropy=0.03, working_set=64 * KB),
        shared_fraction=0.05, shared_store_fraction=0.01),
    ParsecSpec(WorkloadProfile(
        "canneal", dependent_load=0.30, alu_weight=2.4, load_weight=4.2, store_weight=1.2,
        branch_weight=1.6, branch_entropy=0.12, working_set=512 * KB,
        pointer_chase=0.45),
        shared_fraction=0.20, shared_store_fraction=0.05),
    ParsecSpec(WorkloadProfile(
        "ferret", dependent_load=0.15, alu_weight=3.6, mul_weight=1.2, load_weight=3.0,
        store_weight=1.0, branch_weight=1.5, branch_entropy=0.09,
        working_set=512 * KB, pointer_chase=0.12, call_fraction=0.08,
        indirect_fraction=0.35),
        shared_fraction=0.15, shared_store_fraction=0.03),
    ParsecSpec(WorkloadProfile(
        "fluidanimate", dependent_load=0.10, alu_weight=4.2, mul_weight=1.8, load_weight=2.8,
        store_weight=1.4, branch_weight=1.0, branch_entropy=0.06,
        working_set=256 * KB, pointer_chase=0.08),
        shared_fraction=0.18, shared_store_fraction=0.08),
    ParsecSpec(WorkloadProfile(
        "freqmine", dependent_load=0.20, alu_weight=3.2, load_weight=3.4, store_weight=1.1,
        branch_weight=2.0, branch_entropy=0.13, working_set=512 * KB,
        pointer_chase=0.22, call_fraction=0.05),
        shared_fraction=0.12, shared_store_fraction=0.02),
    ParsecSpec(WorkloadProfile(
        "streamcluster", dependent_load=0.10, alu_weight=3.0, mul_weight=1.4, load_weight=4.0,
        store_weight=0.9, branch_weight=0.8, branch_entropy=0.04,
        working_set=512 * KB),
        shared_fraction=0.30, shared_store_fraction=0.02),
    ParsecSpec(WorkloadProfile(
        "swaptions", dependent_load=0.05, alu_weight=4.6, mul_weight=2.2, div_weight=0.5,
        load_weight=2.2, store_weight=0.8, branch_weight=0.8,
        branch_entropy=0.05, working_set=128 * KB),
        shared_fraction=0.06, shared_store_fraction=0.01),
]

PARSEC_BY_NAME: Dict[str, ParsecSpec] = {
    spec.name: spec for spec in PARSEC_SPECS}


def parsec_names() -> List[str]:
    """Benchmark names in Figure 7's plot order."""
    return [spec.name for spec in PARSEC_SPECS]


def build_parsec(name: str, num_threads: int = 4, seed: int = 0,
                 target_instructions: int = 8_000,
                 mte_instrumented: bool = False,
                 ) -> List[GeneratedWorkload]:
    """Generate one program per thread for the named PARSEC workload.

    ``target_instructions`` is per thread.  Threads get disjoint private
    heaps and a common shared region (tag 1); the seed staggers their
    shared-region cursors so invalidations really interleave.
    ``mte_instrumented`` selects the MTE-instrumented build, as
    :func:`~repro.workloads.generator.generate` does.
    """
    spec = PARSEC_BY_NAME[name]
    return [
        generate(spec.profile, seed=seed + thread * 101,
                 target_instructions=target_instructions,
                 heap_base=HEAP_BASE + thread * THREAD_HEAP_STRIDE,
                 shared_base=SHARED_BASE, shared_size=SHARED_SIZE,
                 shared_fraction=spec.shared_fraction,
                 shared_store_fraction=spec.shared_store_fraction,
                 mte_instrumented=mte_instrumented)
        for thread in range(num_threads)
    ]
