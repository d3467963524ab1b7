"""Crash-safe experiment campaigns (``python -m repro.campaign``).

The sweeps behind Figures 6/7/9 as independent, process-isolated cells with
wall-clock and cycle budgets, heartbeat-based straggler recovery, retry
with exponential backoff + reseeding, and a durable resumable result store:

    python -m repro.campaign --figure 6 --run-dir runs/fig6
    # ... SIGKILL, power loss, Ctrl-C ...
    python -m repro.campaign --resume runs/fig6   # finishes what's missing

See DESIGN.md § "Campaign orchestration" for the cell lifecycle, store
format, and resume semantics.
"""

from repro.campaign.cells import (CampaignConfig, CellSpec, FIGURES,
                                  SCHEMA_VERSION, rows_from_records,
                                  system_config)
from repro.campaign.heartbeat import Heartbeat
from repro.campaign.scheduler import (AttemptFailure, CampaignOutcome,
                                      CampaignScheduler)
from repro.campaign.store import ResultStore
from repro.campaign.worker import run_cell

__all__ = [
    "AttemptFailure",
    "CampaignConfig",
    "CampaignOutcome",
    "CampaignScheduler",
    "CellSpec",
    "FIGURES",
    "Heartbeat",
    "ResultStore",
    "rows_from_records",
    "run_cell",
    "SCHEMA_VERSION",
    "system_config",
]
