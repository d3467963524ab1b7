"""Cell model: building, serialization, config derivation, row assembly."""

import pytest

from repro.campaign import (CampaignConfig, CellSpec, rows_from_records,
                            system_config)
from repro.config import CORTEX_A76, DefenseKind
from repro.errors import CampaignError


class TestCellSpec:
    def test_dict_roundtrip(self):
        cell = CellSpec(kind="parsec", benchmark="canneal",
                        defense="specasan", num_threads=4, max_cycles=50_000)
        assert CellSpec.from_dict(cell.to_dict()) == cell

    def test_bad_kind_rejected(self):
        with pytest.raises(CampaignError):
            CellSpec(kind="nope", benchmark="x", defense="none")

    def test_bad_defense_rejected(self):
        with pytest.raises(ValueError):
            CellSpec(kind="spec", benchmark="x", defense="warded")


class TestSystemConfig:
    def test_defense_and_budget_applied(self):
        cell = CellSpec(kind="spec", benchmark="505.mcf_r",
                        defense="specasan", max_cycles=123_456)
        config = system_config(cell)
        assert config.defense is DefenseKind.SPECASAN
        assert config.core.max_cycles == 123_456
        assert config.num_cores == 1

    def test_default_budget_comes_from_core_config(self):
        cell = CellSpec(kind="spec", benchmark="505.mcf_r", defense="none")
        assert (system_config(cell).core.max_cycles
                == CORTEX_A76.core.max_cycles)

    def test_reseed_perturbs_only_the_tag_seed(self):
        cell = CellSpec(kind="spec", benchmark="505.mcf_r", defense="none")
        base, retried = system_config(cell), system_config(cell, reseed=2)
        assert retried.mte.seed == base.mte.seed + 2
        assert retried.core == base.core

    def test_parsec_gets_cores(self):
        cell = CellSpec(kind="parsec", benchmark="canneal", defense="none",
                        num_threads=4)
        assert system_config(cell).num_cores == 4


class TestCampaignConfig:
    def test_cells_cover_baseline_plus_defenses(self):
        config = CampaignConfig(figure="figure6", benchmarks=("505.mcf_r",))
        ids = [cell.cell_id for cell in config.build_cells()]
        assert ids[0] == "spec:505.mcf_r:none"
        assert len(ids) == len(set(ids)) == 1 + len(config.defenses)

    def test_figure7_builds_parsec_cells(self):
        config = CampaignConfig(figure="figure7", benchmarks=("canneal",),
                                num_threads=4)
        cells = config.build_cells()
        assert all(cell.kind == "parsec" and cell.num_threads == 4
                   for cell in cells)

    def test_repair_overhead_schedules_no_baseline_cells(self):
        config = CampaignConfig(figure="repair-overhead")
        cells = config.build_cells()
        # One self-normalizing cell per residual witness subject.
        assert all(cell.kind == "repair" for cell in cells)
        assert all(cell.defense == "specasan" for cell in cells)
        assert [c.benchmark for c in cells] == [
            "pht/same-key", "btb/same-key", "rsb/same-key",
            "stl/untagged", "sbb/same-key", "lfb/same-key"]

    def test_hash_is_stable_and_parameter_sensitive(self):
        a = CampaignConfig(figure="figure6", target_instructions=300)
        b = CampaignConfig(figure="figure6", target_instructions=300)
        c = CampaignConfig(figure="figure6", target_instructions=301)
        assert a.config_hash() == b.config_hash() != c.config_hash()

    def test_default_hash_is_pinned(self):
        # Existing run directories resume only while their manifest's hash
        # still matches, so every field stays in to_dict(), including the
        # two checkpoint fields the campaign does not read.
        assert CampaignConfig(figure="figure6").config_hash() == \
            "159947a5349d1de4"

    def test_unknown_figure_rejected(self):
        with pytest.raises(CampaignError):
            CampaignConfig(figure="figure42")


class TestRowAssembly:
    def _record(self, cycles):
        return {"row": {"cycles": cycles, "instructions": 100,
                        "restricted_fraction": 0.1, "ipc": 1.0,
                        "halted": True}}

    def test_rows_join_against_baseline(self):
        config = CampaignConfig(figure="figure6", benchmarks=("505.mcf_r",))
        cells = config.build_cells()
        records = {"spec:505.mcf_r:none": self._record(1000),
                   "spec:505.mcf_r:fence": self._record(2500)}
        rows = rows_from_records(cells, records)
        by_defense = {row.defense: row for row in rows}
        assert by_defense[DefenseKind.FENCE].normalized_time == 2.5
        assert by_defense[DefenseKind.NONE].normalized_time == 1.0

    def test_repair_rows_normalize_against_their_own_payload(self):
        config = CampaignConfig(figure="repair-overhead",
                                benchmarks=("btb/same-key",))
        cells = config.build_cells()
        record = self._record(1100)
        record["row"]["baseline_cycles"] = 1000
        rows = rows_from_records(
            cells, {"repair:btb/same-key:specasan": record})
        assert len(rows) == 1
        assert rows[0].normalized_time == pytest.approx(1.1)

    def test_missing_baseline_drops_the_benchmark(self):
        # Without a baseline there is nothing sound to normalize against;
        # the rows vanish and render_rows shows MISSING markers instead.
        config = CampaignConfig(figure="figure6", benchmarks=("505.mcf_r",))
        cells = config.build_cells()
        rows = rows_from_records(
            cells, {"spec:505.mcf_r:fence": self._record(2500)})
        assert rows == []
