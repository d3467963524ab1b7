"""The cycle-level out-of-order core (Table 2 configuration)."""

from repro.pipeline.core import Core
from repro.pipeline.dyninstr import DynInstr, InstrState, TagCheckStatus
from repro.pipeline.exec_units import ExecPorts
from repro.pipeline.lsq import LoadStoreQueues
from repro.pipeline.predictors import (
    BranchHistoryBuffer,
    BranchTargetBuffer,
    MemoryDependencePredictor,
    PatternHistoryTable,
    ReturnStackBuffer,
)
from repro.pipeline.stats import CoreStats

__all__ = [
    "BranchHistoryBuffer",
    "BranchTargetBuffer",
    "Core",
    "CoreStats",
    "DynInstr",
    "ExecPorts",
    "InstrState",
    "LoadStoreQueues",
    "MemoryDependencePredictor",
    "PatternHistoryTable",
    "ReturnStackBuffer",
    "TagCheckStatus",
]
