"""Idle-cycle skip-ahead in the run loop is invisible.

The run loop (``run_cores``, behind ``Core.run`` and
``SimulatedSystem.run_prepared``) does not tick cycles in which no core
can change state, but it never jumps past an interval observer's next
firing.  A no-op heartbeat with ``interval=1`` therefore forces a real
tick every cycle, which is the reference every test here compares
against: same stats dump, same leak log, registers and fault, same pause
points and the same deadlock report, for one core and for four.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.attacks import TABLE1_ROWS, build_variants
from repro.config import CORTEX_A76, DefenseKind
from repro.errors import DeadlockError, SimulationError
from repro.isa import assemble
from repro.isa.instructions import InstrClass
from repro.resilience import summarize
from repro.system import build_system
from repro.workloads import build_parsec, SPEC_BY_NAME
from repro.workloads import generator

ALL_DEFENSES = list(DefenseKind)
#: Slower address generation and unsafe broadcasts than Table 2's: with
#: one-cycle latencies those wake cycles always fall on the next tick.
SLOW = replace(CORTEX_A76, core=replace(CORTEX_A76.core, agu_latency=3,
                                        unsafe_broadcast_latency=3))


def _program(instructions=1000):
    return generator.generate(SPEC_BY_NAME["505.mcf_r"], seed=5,
                              target_instructions=instructions,
                              mte_instrumented=True).program


def _outcome(system):
    core = system.core
    return (system.stats_registry().dump(), core.leak_log, core.arf,
            None if core.fault is None else str(core.fault))


def _every_cycle(core):
    """Attach a no-op heartbeat that fires every cycle."""
    core.heartbeat = SimpleNamespace(interval=1, beat=lambda cycle: None)
    return core


def _record_ticks(core):
    """The cycles ``core.tick`` is called for (an instance attribute
    shadows the method that the run loop looks up on the core)."""
    ticked = []
    tick = core.tick

    def recording():
        tick()
        ticked.append(core.cycle)

    core.tick = recording
    return ticked


@pytest.mark.parametrize(
    "config",
    [CORTEX_A76.with_defense(d) for d in ALL_DEFENSES]
    + [SLOW.with_defense(DefenseKind.SPECASAN),
       SLOW.with_defense(DefenseKind.STT)],
    ids=[d.value for d in ALL_DEFENSES] + ["specasan-slow", "stt-slow"])
def test_skipping_changes_no_result(config):
    program = _program()

    skipped = build_system(config)
    core = skipped.prepare(program)
    ticks = _record_ticks(core)
    core.run()

    ticked = build_system(config)
    reference = _every_cycle(ticked.prepare(program))
    reference_ticks = _record_ticks(reference)
    reference.run()

    assert core.halted
    assert _outcome(skipped) == _outcome(ticked)
    assert len(reference_ticks) == reference.cycle
    assert len(ticks) < core.cycle  # the plain run did skip


def _attack_outcome(attack, config, attach):
    system = build_system(config)
    core = attach(system.prepare(attack.builder_program))
    core.secret_ranges = [(attack.secret_address,
                           attack.secret_address + attack.secret_size)]
    try:
        core.run(max_cycles=attack.max_cycles)
        error = None
    except SimulationError as exc:
        error = str(exc)
    return _outcome(system), core.cycle, error


@pytest.mark.parametrize("attack", TABLE1_ROWS)
@pytest.mark.parametrize("config", [
    CORTEX_A76.with_defense(DefenseKind.NONE),
    CORTEX_A76.with_defense(DefenseKind.SPECASAN),
    SLOW.with_defense(DefenseKind.SPECASAN)],
    ids=["none", "specasan", "specasan-slow"])
def test_skipping_changes_no_attack_outcome(attack, config):
    # The attack PoCs reach what benign workloads do not: stale LFB
    # forwards, partial (loosenet) forwards, withheld unsafe loads and
    # unsafe broadcasts.
    program = build_variants(attack)[0]
    assert (_attack_outcome(program, config, lambda core: core)
            == _attack_outcome(program, config, _every_cycle))


@pytest.mark.parametrize("source", [
    # A committed load with the wrong key, served from DRAM: the withheld
    # access faults once it reaches the ROB head.
    """
    .data buf 0x200000 tag=5 words 42
    MOV X1, #0x200000
    ADDG X1, X1, #0, #3
    LDR X2, [X1]
    HALT
    """,
    # A committed store with the wrong key.
    """
    .data buf 0x200000 tag=5 words 0
    MOV X1, #0x200000
    ADDG X1, X1, #0, #2
    MOV X2, #1
    STR X2, [X1]
    HALT
    """], ids=["load", "store"])
def test_skipping_keeps_committed_tag_faults(source):
    program = assemble(source)
    outcomes = []
    for attach in (lambda core: core, _every_cycle):
        system = build_system(CORTEX_A76.with_defense(DefenseKind.SPECASAN))
        attach(system.prepare(program)).run()
        outcomes.append((_outcome(system), system.core.cycle))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0][3] is not None  # it did fault


def _tick_cycles(config, program):
    """The cycles a plain run actually ticks, and its final cycle."""
    core = build_system(config).prepare(program)
    ticked = _record_ticks(core)
    core.run()
    return ticked, core.cycle


def test_pause_inside_an_idle_stretch_stops_there_and_resumes():
    config = CORTEX_A76.with_defense(DefenseKind.SPECASAN)
    program = _program()
    ticked, _ = _tick_cycles(config, program)
    # Pause points strictly inside skipped stretches, and right at a
    # stretch's last idle cycle.
    gaps = [(a, b) for a, b in zip(ticked, ticked[1:]) if b - a > 2]
    assert len(gaps) >= 4
    pauses = sorted({a + (b - a) // 2 for a, b in gaps[:3]}
                    | {gaps[3][1] - 1})

    straight = build_system(config)
    straight.prepare(program).run()

    paused = build_system(config)
    core = paused.prepare(program)
    stepped = build_system(config)
    reference = _every_cycle(stepped.prepare(program))
    for pause in pauses:
        core.run(until_cycle=pause)
        reference.run(until_cycle=pause)
        assert core.cycle == pause == core.stats.cycles
        assert core.state_dict() == reference.state_dict()
        assert ([core.ports.occupancy(k) for k in InstrClass]
                == [reference.ports.occupancy(k) for k in InstrClass])
    core.run()
    assert _outcome(paused) == _outcome(straight)


def test_interval_observers_fire_on_every_multiple():
    config = CORTEX_A76.with_defense(DefenseKind.SPECASAN)
    core = build_system(config).prepare(_program())
    beats = []
    core.heartbeat = SimpleNamespace(interval=7, beat=beats.append)
    core.run()
    assert beats == list(range(7, core.cycle + 1, 7))


def test_cycle_budget_stops_at_the_same_cycle():
    config = CORTEX_A76.with_defense(DefenseKind.SPECASAN)
    program = _program()
    ticked, final = _tick_cycles(config, program)
    # A budget that expires inside an idle stretch.
    a, b = next((a, b) for a, b in zip(ticked, ticked[1:]) if b - a > 2)
    budget = a + 1
    outcomes = []
    for attach in (lambda core: core, _every_cycle):
        system = build_system(config)
        core = attach(system.prepare(program))
        with pytest.raises(SimulationError, match=f"within {budget} cycles"):
            core.run(max_cycles=budget)
        outcomes.append((core.cycle, core.state_dict()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == budget < final


DEADLOCK_PROGRAM = assemble("""
    .data arr 0x5000 zero 1024
    MOV X1, #0x5000
    LDR X2, [X1]
    ADD X0, X2, #7
    HALT
""")


def _deadlock(attach):
    config = replace(CORTEX_A76,
                     core=replace(CORTEX_A76.core, deadlock_threshold=5))
    core = attach(build_system(config).prepare(DEADLOCK_PROGRAM))
    with pytest.raises(DeadlockError) as excinfo:
        core.run()
    return excinfo.value


def test_deadlock_report_is_the_same():
    plain = _deadlock(lambda core: core)
    ticked = _deadlock(_every_cycle)
    assert plain.cycles == ticked.cycles == 6
    assert summarize(plain.snapshot) == summarize(ticked.snapshot)
    assert plain.snapshot == ticked.snapshot


# -- four cores ------------------------------------------------------------

FOUR_CORES = CORTEX_A76.with_defense(DefenseKind.SPECASAN).with_cores(4)


def _threads():
    return [w.program for w in build_parsec(
        "canneal", seed=3, num_threads=4, target_instructions=1000)]


def _system_outcome(system):
    return (system.stats_registry().dump(),
            [(core.leak_log, core.arf,
              None if core.fault is None else str(core.fault))
             for core in system.cores])


def _every_system_cycle(system):
    """Attach a no-op system heartbeat that fires every cycle."""
    system.heartbeat = SimpleNamespace(interval=1, beat=lambda cycle: None)
    return system


def test_four_core_skipping_changes_no_result():
    programs = _threads()
    skipped = build_system(FOUR_CORES)
    ticks = [_record_ticks(core) for core in skipped.prepare(programs)]
    skipped.run_prepared()

    ticked = _every_system_cycle(build_system(FOUR_CORES))
    reference_ticks = [_record_ticks(core)
                       for core in ticked.prepare(programs)]
    ticked.run_prepared()

    assert _system_outcome(skipped) == _system_outcome(ticked)
    for core, cycles in zip(ticked.cores, reference_ticks):
        assert cycles == list(range(1, core.cycle + 1))
    assert sum(map(len, ticks)) < sum(map(len, reference_ticks))
    # A halted core is ticked no more: its cycle stays at its halt cycle
    # while the others run on.
    for core, cycles in zip(skipped.cores, ticks):
        assert core.halted and core.cycle == core.stats.cycles == cycles[-1]
    assert len({core.cycle for core in skipped.cores}) > 1


def test_four_core_pause_inside_an_all_idle_stretch():
    programs = _threads()
    plain = build_system(FOUR_CORES)
    ticks = [_record_ticks(core) for core in plain.prepare(programs)]
    plain.run_prepared()
    # A stretch of cycles in which no core ticked.
    ticked = sorted(set().union(*ticks))
    a, b = next((a, b) for a, b in zip(ticked, ticked[1:]) if b - a > 2)
    pause = a + (b - a) // 2

    paused = build_system(FOUR_CORES)
    paused.prepare(programs)
    paused.run_prepared(until_cycle=pause)
    stepped = _every_system_cycle(build_system(FOUR_CORES))
    stepped.prepare(programs)
    stepped.run_prepared(until_cycle=pause)
    live = [core for core in paused.cores if not core.halted]
    assert live and all(core.cycle == pause for core in live)
    assert paused.state_dict() == stepped.state_dict()
    paused.run_prepared()
    assert _system_outcome(paused) == _system_outcome(plain)
