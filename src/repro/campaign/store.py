"""Durable, resumable result store for experiment campaigns.

Layout of one run directory::

    run-dir/
      manifest.json     # config hash, seed, schema version, cell ids
      results.jsonl     # append-only records, one JSON object per line
      work/             # per-attempt scratch: outcomes, heartbeats, logs
      report.json       # structured failure report (written at campaign end)

Durability is :mod:`repro.store`'s protocol (DESIGN.md § "Durable
state"): atomic rewrites, per-record SHA-256, and a corruption-tolerant
load.  A truncated tail, a flipped byte or a record of another schema is
*reported* as corrupt and its cell re-queued, never silently trusted; a
missing or foreign manifest fails closed with
:class:`~repro.errors.CampaignError`.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.cells import SCHEMA_VERSION, CampaignConfig, CellSpec
from repro.errors import CampaignError, ManifestMismatch
from repro.store import (Reject, append_record, atomic_write, load_manifest,
                         load_records)


class ResultStore:
    """Append-only JSONL store with checksums, bound to one run directory."""

    MANIFEST = "manifest.json"
    RESULTS = "results.jsonl"
    WORK = "work"
    REPORT = "report.json"

    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.results_path = os.path.join(run_dir, self.RESULTS)
        self.manifest_path = os.path.join(run_dir, self.MANIFEST)
        self.report_path = os.path.join(run_dir, self.REPORT)
        self.work_dir = os.path.join(run_dir, self.WORK)

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------

    def initialize(self, config: CampaignConfig,
                   cells: Sequence[CellSpec]) -> None:
        """Create the run directory and write its manifest."""
        os.makedirs(self.work_dir, exist_ok=True)
        manifest = {
            "schema": SCHEMA_VERSION,
            "config_hash": config.config_hash(),
            "config": config.to_dict(),
            "seed": config.seed,
            "cells": [cell.cell_id for cell in cells],
        }
        atomic_write(self.manifest_path, json.dumps(manifest, indent=2))

    def load_manifest(self) -> dict:
        return load_manifest(self.manifest_path, SCHEMA_VERSION,
                             CampaignError)

    def resume_config(self,
                      expected: Optional[CampaignConfig] = None
                      ) -> CampaignConfig:
        """Reload the manifest's config, verifying the hash.

        With ``expected`` the caller supplies its own config, and a hash
        mismatch (changed parameters against an old run directory) is
        fail-stop: :class:`~repro.errors.ManifestMismatch`.
        """
        manifest = self.load_manifest()
        config = CampaignConfig.from_dict(manifest["config"])
        recorded = manifest["config_hash"]
        if config.config_hash() != recorded:
            raise ManifestMismatch(recorded, config.config_hash(),
                                   "manifest hash does not match its own "
                                   "config — manifest edited by hand?")
        if expected is not None and expected.config_hash() != recorded:
            raise ManifestMismatch(recorded, expected.config_hash())
        return config

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------

    def append(self, record: dict) -> None:
        """Durably append one record (schema and checksum added here).

        A crash mid-append leaves the previous intact store.
        """
        append_record(self.results_path,
                      {"schema": SCHEMA_VERSION, **record})

    def load(self) -> Tuple[List[dict], List[Reject]]:
        """All intact records plus a report of every rejected line."""
        return load_records(self.results_path, SCHEMA_VERSION)

    def completed(self, expected_ids: Sequence[str]
                  ) -> Tuple[Dict[str, dict], List[Reject]]:
        """Map of cell_id -> latest *ok* record, restricted to this
        campaign's cells; anything corrupt or unknown is left pending."""
        records, corrupt = self.load()
        expected = set(expected_ids)
        done: Dict[str, dict] = {}
        for record in records:
            cell_id = record.get("cell_id")
            if record.get("status") == "ok" and cell_id in expected:
                done[cell_id] = record
        return done, corrupt

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------

    def write_report(self, report: dict) -> None:
        atomic_write(self.report_path, json.dumps(report, indent=2))
