"""Several cores on one system: parallel execution, coherence,
aggregation."""

import pytest

from repro.config import CORTEX_A76, DefenseKind
from repro.errors import ConfigError
from repro.isa import assemble
from repro.system import build_system
from repro.telemetry import OccupancyProfiler, TraceSink
from repro.workloads import build_parsec


def counting_program(increment, address):
    return assemble(f"""
        MOV X0, #0
        MOV X1, #20
    loop:
        ADD X0, X0, #{increment}
        SUB X1, X1, #1
        CBNZ X1, loop
        MOV X2, #{address}
        STR X0, [X2]
        HALT
    """)


class TestBasics:
    def test_two_cores_run_independent_programs(self):
        system = build_system(CORTEX_A76.with_cores(2))
        result = system.run([counting_program(2, 0x3000),
                             counting_program(3, 0x3100)])
        assert system.hierarchy.memory.read_word(0x3000) == 40
        assert system.hierarchy.memory.read_word(0x3100) == 60
        assert result.instructions == sum(s.committed for s in result.per_core)

    def test_cycles_is_the_slowest_thread(self):
        system = build_system(CORTEX_A76.with_cores(2))
        result = system.run([counting_program(1, 0x3000),
                             assemble("HALT")])
        assert result.cycles == max(s.cycles for s in result.per_core)

    def test_too_many_programs_rejected(self):
        system = build_system(CORTEX_A76.with_cores(1))
        with pytest.raises(ConfigError):
            system.run([assemble("HALT"), assemble("HALT")])

    @pytest.mark.parametrize("hook", ["tracer", "occupancy"])
    def test_telemetry_observes_one_core(self, hook):
        system = build_system(CORTEX_A76.with_cores(2))
        setattr(system, hook, TraceSink() if hook == "tracer"
                else OccupancyProfiler())
        system.run(assemble("HALT"))  # one program: fine
        with pytest.raises(ConfigError):
            system.prepare([assemble("HALT"), assemble("HALT")])


class TestCoherence:
    def test_cross_core_store_invalidates_sharer(self):
        """Core 1's committed store must invalidate core 0's L1 copy."""
        reader = assemble("""
            MOV X1, #0x3000
            LDR X2, [X1]        // brings the line into core 0's L1
            MOV X3, #4000
        spin:
            SUB X3, X3, #1
            CBNZ X3, spin
            LDR X4, [X1]        // after the writer's store
            HALT
        """)
        writer = assemble("""
            MOV X3, #600
        delay:
            SUB X3, X3, #1
            CBNZ X3, delay
            MOV X1, #0x3000
            MOV X2, #777
            STR X2, [X1]
            HALT
        """)
        system = build_system(CORTEX_A76.with_cores(2))
        result = system.run([reader, writer])
        assert result.invalidations >= 1
        reader_core = system.cores[0]
        assert reader_core.arf[4] == 777  # saw the remote write

    def test_parsec_runs_under_every_defense(self):
        for defense in (DefenseKind.NONE, DefenseKind.SPECASAN):
            threads = build_parsec("swaptions", num_threads=2,
                                   target_instructions=600)
            system = build_system(
                CORTEX_A76.with_cores(2).with_defense(defense))
            result = system.run([t.program for t in threads])
            assert not any(result.faults)
            assert result.instructions > 800
