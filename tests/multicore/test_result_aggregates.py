"""RunResult aggregation arithmetic over several cores."""

from repro.pipeline.stats import CoreStats
from repro.system import RunResult


class TestAggregates:
    def _result(self):
        per_core = [
            CoreStats(cycles=100, committed=150, restricted_committed=3),
            CoreStats(cycles=120, committed=250, restricted_committed=1),
        ]
        return RunResult(cycles=120, per_core=per_core,
                               faults=[None, None], restricted=4,
                               invalidations=7)

    def test_instruction_sum(self):
        assert self._result().instructions == 400

    def test_ipc_uses_total_cycles(self):
        result = self._result()
        assert result.ipc == 400 / 120

    def test_restricted_fraction_pools_threads(self):
        assert self._result().restricted_fraction == 4 / 400

    def test_empty_guards(self):
        empty = RunResult(cycles=0, per_core=[], faults=[],
                                restricted=0, invalidations=0)
        assert empty.ipc == 0.0
        assert empty.restricted_fraction == 0.0
