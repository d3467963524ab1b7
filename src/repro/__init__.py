"""SpecASan reproduction: speculative address sanitization on a Python OoO CPU simulator.

This package reproduces *SpecASan: Mitigating Transient Execution Attacks
Using Speculative Address Sanitization* (ISCA 2025).  It contains, built from
scratch:

- ``repro.isa`` -- an ARM-flavoured RISC instruction set with a two-pass
  assembler and a programmatic builder.
- ``repro.mte`` -- a model of ARM's Memory Tagging Extension: 4-bit locks per
  16-byte granule, pointer keys in the top byte, and a tagging heap allocator.
- ``repro.memory`` -- a tagged cache hierarchy (L1/L2), MSHRs, a Line-Fill
  Buffer, a memory controller that issues paired data+tag requests, and DRAM
  with separate tag storage.
- ``repro.pipeline`` -- a cycle-level out-of-order core: branch-predicting
  front end, rename/ROB, issue queue, split load/store queues with
  store-to-load forwarding and memory-dependence prediction, and in-order
  commit with squash recovery.
- ``repro.core`` -- SpecASan itself: the per-entry tag-check status (``tcs``),
  the Tag-check Status Handler (TSH), safe-speculative-access (SSA) bits in
  the ROB, and the selective-delay mechanism.
- ``repro.defenses`` -- the baselines the paper compares against: speculative
  barriers, STT, GhostMinion, SpecCFI, and the SpecASan+CFI composition.
- ``repro.attacks`` -- gadget programs and a leak detector for the Table-1
  attack variants (Spectre v1/v2/v4/v5/BHB, Fallout/RIDL/ZombieLoad, SCC).
- ``repro.workloads`` -- deterministic synthetic stand-ins for the SPEC
  CPU2017 and PARSEC workloads the paper measures.
- ``repro.system`` -- one memory hierarchy and 1..N cores run in lockstep:
  one core for the SPEC experiments, four for PARSEC.
- ``repro.hwcost`` -- an analytical area/power/energy model for Table 3.
- ``repro.eval`` -- the experiment harness that regenerates every table and
  figure of the paper's evaluation.
- ``repro.resilience`` -- fault injection, cycle-level invariant checking,
  and watchdog diagnostics for single simulations.
- ``repro.campaign`` -- crash-safe experiment campaigns: process-isolated
  workers, a durable resumable result store, and straggler recovery
  (``python -m repro.campaign``).
"""

from repro.config import (
    CacheConfig,
    CoreConfig,
    CORTEX_A76,
    DefenseKind,
    MemoryConfig,
    MTEConfig,
    SystemConfig,
)
from repro.errors import (
    AssemblerError,
    ConfigError,
    ReproError,
    SimulationError,
    TagCheckFault,
)
from repro.system import build_system, SimulatedSystem, RunResult

__all__ = [
    "AssemblerError",
    "CacheConfig",
    "ConfigError",
    "CoreConfig",
    "CORTEX_A76",
    "DefenseKind",
    "MemoryConfig",
    "MTEConfig",
    "ReproError",
    "RunResult",
    "SimulatedSystem",
    "SimulationError",
    "SystemConfig",
    "TagCheckFault",
    "build_system",
]

__version__ = "1.0.0"
