"""Result-store durability: atomic appends, checksums, corruption handling."""

import json
import os

import pytest

from repro.campaign import CampaignConfig, ResultStore
from repro.campaign.cells import SCHEMA_VERSION
from repro.errors import CampaignError, ManifestMismatch
from repro.store import checksum


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "run"))


@pytest.fixture
def config():
    return CampaignConfig(figure="figure6", benchmarks=("505.mcf_r",),
                          target_instructions=300)


def ok_record(cell_id="spec:505.mcf_r:none", cycles=1000):
    return {"cell_id": cell_id, "status": "ok", "attempt": 0, "reseed": 0,
            "cell": {}, "row": {"cycles": cycles, "instructions": 500,
                                "restricted_fraction": 0.0, "ipc": 0.5,
                                "halted": True}}


class TestAppendLoad:
    def test_roundtrip(self, store, config):
        store.initialize(config, config.build_cells())
        store.append(ok_record())
        store.append(ok_record("spec:505.mcf_r:fence", 1500))
        records, corrupt = store.load()
        assert corrupt == []
        assert [r["cell_id"] for r in records] == [
            "spec:505.mcf_r:none", "spec:505.mcf_r:fence"]
        assert all(r["schema"] == SCHEMA_VERSION for r in records)

    def test_empty_store_loads_empty(self, store):
        os.makedirs(store.run_dir)
        assert store.load() == ([], [])


class TestCorruptionDetection:
    """Satellite: truncated or checksum-bad records are detected on load,
    reported, and their cells re-queued rather than silently trusted."""

    def _ids(self, store):
        return [cell_id for cell_id in (
            "spec:505.mcf_r:none", "spec:505.mcf_r:fence")]

    def test_truncated_tail_is_reported_and_requeued(self, store, config):
        store.initialize(config, config.build_cells())
        store.append(ok_record())
        store.append(ok_record("spec:505.mcf_r:fence", 1500))
        # Simulate a record torn mid-write (crash between write and rename
        # of a non-atomic writer, or a partial disk flush).
        with open(store.results_path, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(store.results_path, "w", encoding="utf-8") as handle:
            handle.write(lines[0])
            handle.write(lines[1][: len(lines[1]) // 2])
        records, corrupt = store.load()
        assert len(records) == 1
        assert len(corrupt) == 1
        assert "truncated" in corrupt[0].reason
        done, corrupt = store.completed(self._ids(store))
        assert set(done) == {"spec:505.mcf_r:none"}  # fence re-queued

    def test_bitflip_fails_checksum(self, store, config):
        store.initialize(config, config.build_cells())
        store.append(ok_record(cycles=1000))
        with open(store.results_path, encoding="utf-8") as handle:
            line = handle.read()
        with open(store.results_path, "w", encoding="utf-8") as handle:
            handle.write(line.replace('"cycles":1000', '"cycles":9999'))
        records, corrupt = store.load()
        assert records == []
        assert len(corrupt) == 1
        assert "checksum" in corrupt[0].reason
        assert corrupt[0].record["cell_id"] == "spec:505.mcf_r:none"

    def test_stale_schema_is_requeued(self, store, config):
        store.initialize(config, config.build_cells())
        record = ok_record()
        record["schema"] = SCHEMA_VERSION + 1
        record["sha256"] = checksum(record)
        os.makedirs(store.run_dir, exist_ok=True)
        with open(store.results_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        records, corrupt = store.load()
        assert records == []
        assert "stale" in corrupt[0].reason

    def test_failed_records_do_not_count_as_completed(self, store, config):
        store.initialize(config, config.build_cells())
        store.append({"cell_id": "spec:505.mcf_r:none", "status": "failed",
                      "cell": {}, "failures": []})
        done, _ = store.completed(["spec:505.mcf_r:none"])
        assert done == {}


class TestManifest:
    def test_missing_manifest_is_typed(self, store):
        with pytest.raises(CampaignError):
            store.load_manifest()

    def test_resume_config_roundtrip(self, store, config):
        store.initialize(config, config.build_cells())
        reloaded = store.resume_config()
        assert reloaded == config
        assert reloaded.config_hash() == config.config_hash()

    def test_mismatched_resume_is_fail_stop(self, store, config):
        store.initialize(config, config.build_cells())
        changed = CampaignConfig(figure="figure6",
                                 benchmarks=("505.mcf_r",),
                                 target_instructions=999)
        with pytest.raises(ManifestMismatch) as excinfo:
            store.resume_config(expected=changed)
        assert excinfo.value.expected == config.config_hash()
        assert excinfo.value.actual == changed.config_hash()

    def test_hand_edited_manifest_detected(self, store, config):
        store.initialize(config, config.build_cells())
        with open(store.manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["config"]["target_instructions"] = 12345
        with open(store.manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ManifestMismatch):
            store.resume_config()
