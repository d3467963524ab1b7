"""The four benchmark workloads: seeded inputs, fixed work, checks.

Every workload is a closed loop over fixed work generated from the seed;
a run measures that work once, however long it takes.  Each function
takes its sizes as parameters (the tests run them tiny) and returns a
:class:`Run` holding:

- the end-to-end metrics by name, in host time at quiet-host speed
  (:mod:`hostspeed`) unless marked simulated, and the same host-time
  metrics as measured under ``info["raw"]``;
- ``ops_attempted`` / ``ops_failed``: every checked item or response;
- a digest of the outputs that must not change when only speed changes;
- with ``trace=True``, the per-layer metrics of a second, traced run over
  the same inputs (end-to-end numbers always come from the untraced one).

Load comes from one process using at most two threads or connections,
matching the two cores the benchmark was sized on.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import hostspeed
import metrics as m
import seams
from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

WORKLOADS = ("sim-mem", "campaign-fig6", "lint", "service")

#: Pointer-chasing profiles with 4 MB and 2 MB working sets.
SIM_PROFILES = ("505.mcf_r", "520.omnetpp_r")
#: sim-mem programs per profile (seeds S, S+1, ...) and their length.
#: How fast the simulator runs a program depends on the program: host
#: work per simulated cycle varies by 11-15% between seeds, so a run
#: averages eight shorter programs rather than four longer ones.
SIM_SEEDS = 4
SIM_INSTRUCTIONS = 10_000
#: Branchy profiles with L1/L2-resident working sets.
CAMPAIGN_PROFILES = ("541.leela_r", "531.deepsjeng_r", "500.perlbench_r")

#: End-to-end metrics by workload: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_cycles_per_s": ("1/s", "higher"),
    "sim_instr_per_s": ("1/s", "higher"),
    "sim_ipc": ("instr/cycle", "higher"),
    "cells_per_s": ("1/s", "higher"),
    "specasan_overhead_pct": ("%", "lower"),
    "lint_cold_ms_p50": ("ms", "lower"),
    "lint_cold_ms_p95": ("ms", "lower"),
    "lint_edit_cold_ms_p50": ("ms", "lower"),
    "lint_edit_modular_cold_ms_p50": ("ms", "lower"),
    "lint_edit_warm_ms_p50": ("ms", "lower"),
    "service_fresh_ms_p50": ("ms", "lower"),
    "service_fresh_ms_p90": ("ms", "lower"),
    # The headline metrics of BENCHMARK.json, which every workload reports.
    "throughput_per_s": ("1/s", "higher"),
    "latency_ms_p50": ("ms", "lower"),
}
#: Metrics measured in simulated time: they repeat exactly for a seed.
SIMULATED = ("sim_ipc", "specasan_overhead_pct")

_S, _R, _N = "s", "ratio", "count"
#: Per-layer metrics of a traced run: name -> (unit, better).  A layer a
#: workload never enters reports 0.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "pipeline.tick_self_s": (_S, "lower"),
    "pipeline.host_us_per_cycle": ("us", "lower"),
    "pipeline.slice_cycles_per_s_p10": ("1/s", "higher"),
    "pipeline.commit_ratio": (_R, "higher"),
    "pipeline.lsq.self_s": (_S, "lower"),
    "pipeline.lsq.calls": (_N, "lower"),
    "memory.access_s": (_S, "lower"),
    "memory.access_calls": (_N, "lower"),
    "memory.access_l1_s": (_S, "lower"),
    "memory.access_lfb_s": (_S, "lower"),
    "memory.access_l2_s": (_S, "lower"),
    "memory.access_dram_s": (_S, "lower"),
    "memory.access_minion_s": (_S, "lower"),
    "memory.commit_store_s": (_S, "lower"),
    "memory.controller.fetch_line_s": (_S, "lower"),
    "memory.dram.tag_lookup_s": (_S, "lower"),
    "memory.l1_hit_rate": (_R, "higher"),
    "core.policy.hooks_s": (_S, "lower"),
    "core.policy.hook_calls": (_N, "lower"),
    **{f"core.policy.{hook}_s": (_S, "lower") for hook in seams.POLICY_HOOKS},
    "core.policy.restricted_fraction": (_R, "lower"),
    "campaign.generate_s": (_S, "lower"),
    "campaign.restore_s": (_S, "lower"),
    "campaign.warm_s": (_S, "lower"),
    "campaign.simulate_s": (_S, "lower"),
    "campaign.attempt_overhead_s": (_S, "lower"),
    "campaign.worker_utilization": (_R, "higher"),
    "checkpoint.io_s": (_S, "lower"),
    "workloads.generate_s": (_S, "lower"),
    "analysis.cfg_s": (_S, "lower"),
    "analysis.taint_s": (_S, "lower"),
    "analysis.windows_s": (_S, "lower"),
    "analysis.gadgets_self_s": (_S, "lower"),
    "analysis.modular.summaries_s": (_S, "lower"),
    "analysis.modular.cache_io_s": (_S, "lower"),
    "analysis.modular.hit_rate": (_R, "higher"),
    "service.queue_wait_ms_p50": ("ms", "lower"),
    "service.analysis_ms_p50": ("ms", "lower"),
    "service.confirm_ms_p50": ("ms", "lower"),
    "service.other_ms_p50": ("ms", "lower"),
    "service.hit_ms_p50": ("ms", "lower"),
    "service.cache_hit_rate": (_R, "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "trace.overhead_frac": (_R, "lower"),
    "trace.attributed_frac": (_R, "higher"),
}


class Run:
    """One workload run's outcome, filled in as the workload proceeds."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.info: Dict[str, object] = {}
        self.spans: Optional[seams.SpanLog] = None

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a failed check is a failed op."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    def measure(self, speed: HostSpeed,
                values: Callable[[Callable[[float, float], float]],
                                 Dict[str, float]]) -> None:
        """Host-time metrics from ``values(scale)``, where ``scale`` turns
        a perf_counter interval into seconds: at quiet-host speed into
        ``metrics``, and as measured into ``info["raw"]``."""
        self.metrics.update(values(speed.scale))
        self.info["raw"] = values(hostspeed.raw)

    def finish(self, speed: HostSpeed) -> "Run":
        self.metrics["peak_rss_mb"] = peak_rss_mb()
        if self.per_layer:
            self.per_layer["peak_rss_mb"] = self.metrics["peak_rss_mb"]
        self.info["host_slowdown"] = speed.slowdown()
        return self

    def to_dict(self) -> dict:
        return {"workload": self.workload, "seed": self.seed,
                "ops_attempted": self.attempted, "ops_failed": self.failed,
                "failures": self.failures[:20], "metrics": self.metrics,
                "per_layer": self.per_layer, "info": self.info}


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------

def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@contextlib.contextmanager
def work_dir():
    """A fresh scratch directory beside this file, removed afterwards: a
    run writes nothing outside the checkout it runs from."""
    path = tempfile.mkdtemp(prefix=".scratch-", dir=HERE)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@contextlib.contextmanager
def child(argv: List[str], scratch: str, **kwargs):
    """A subprocess in its own session; the session is killed and the
    process waited for however the block ends."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1",
               TMPDIR=scratch)
    proc = subprocess.Popen(argv, cwd=scratch, env=env,
                            start_new_session=True, **kwargs)
    try:
        yield proc
    finally:
        if proc.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        # Whatever the session left behind (workers of a killed parent).
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        for stream in (proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()


def timed(fn: Callable, *args):
    """``fn(*args)`` and its (start, end) perf_counter stamps."""
    start = time.perf_counter()
    result = fn(*args)
    return result, (start, time.perf_counter())


def sum_stats(dumps: Sequence[dict], scope: str, key: str) -> float:
    return sum(dump.get(scope, {}).get(key, 0) for dump in dumps)


def layer_metrics(run: Run, tracer: seams.Tracer, factor: float,
                  traced_s: float, untraced_s: float,
                  dumps: Sequence[dict] = (), **extra: float) -> None:
    """Fill ``run.per_layer`` (every name, 0 for untouched layers) from
    the tracer (its times rescaled by ``factor``), the simulated stats
    dumps and workload-specific values."""
    out = dict.fromkeys(PER_LAYER, 0.0)

    def own(name: str) -> float:
        return tracer.self_s(name) * factor

    out["pipeline.tick_self_s"] = own("pipeline.tick")
    out["pipeline.host_us_per_cycle"] = m.ratio(
        tracer.inclusive_s("pipeline.tick") * factor * 1e6,
        tracer.calls("pipeline.tick"))
    committed = sum_stats(dumps, "core", "committed")
    out["pipeline.commit_ratio"] = m.ratio(
        committed, committed + sum_stats(dumps, "core", "squashed"))
    out["pipeline.lsq.self_s"] = own("pipeline.lsq")
    out["pipeline.lsq.calls"] = tracer.calls("pipeline.lsq")
    out["memory.access_s"] = own("memory.access")
    out["memory.access_calls"] = tracer.calls("memory.access")
    for level in ("l1", "lfb", "l2", "dram", "minion"):
        out[f"memory.access_{level}_s"] = tracer.inclusive_s(
            f"memory.access_{level}") * factor
    for name in ("memory.commit_store", "memory.controller.fetch_line",
                 "memory.dram.tag_lookup", "checkpoint.io",
                 "workloads.generate", "analysis.cfg", "analysis.taint",
                 "analysis.windows", "analysis.modular.summaries",
                 "analysis.modular.cache_io"):
        out[f"{name}_s"] = own(name)
    out["analysis.gadgets_self_s"] = own("analysis.gadgets")
    out["memory.l1_hit_rate"] = m.ratio(sum_stats(dumps, "mem", "l1_hits"),
                                        sum_stats(dumps, "mem", "loads"))
    for hook in seams.POLICY_HOOKS:
        out[f"core.policy.{hook}_s"] = own(f"core.policy.{hook}")
        out["core.policy.hook_calls"] += tracer.calls(f"core.policy.{hook}")
    out["core.policy.hooks_s"] = sum(out[f"core.policy.{hook}_s"]
                                     for hook in seams.POLICY_HOOKS)
    out["core.policy.restricted_fraction"] = m.ratio(
        sum_stats(dumps, "core", "restricted_committed"), committed)
    out["trace.overhead_frac"] = m.ratio(traced_s, untraced_s) - 1.0
    out["trace.attributed_frac"] = m.ratio(tracer.attributed_s() * factor,
                                           traced_s)
    out.update(extra)
    run.per_layer = out


def trace_id(workload: str, seed: int) -> str:
    from repro.rng import derive_seed
    return f"{derive_seed(seed, 'perfbench', workload):016x}"


def _item(spans: Optional[seams.SpanLog], tracer: Optional[seams.Tracer],
          name: str, fn: Callable, *args, **attrs):
    """``fn(*args)`` timed; a traced item also becomes a span."""
    before = tracer.snapshot() if tracer is not None else None
    result, (start, end) = timed(fn, *args)
    if spans is not None:
        spans.item(name, start, end, tracer.since(before), **attrs)
    return result, (start, end)


# ----------------------------------------------------------------------
# sim-mem: the simulator in-process, pointer-chasing profiles
# ----------------------------------------------------------------------

def sim_inputs(seed: int, profiles: Sequence[str] = SIM_PROFILES,
               instructions: int = SIM_INSTRUCTIONS, seeds: int = SIM_SEEDS
               ) -> List[Tuple[str, object]]:
    """(label, program) per profile for seeds S..S+seeds-1,
    MTE-instrumented."""
    from repro.workloads import SPEC_BY_NAME
    from repro.workloads import generator
    return [(f"{name}@{s}", generator.generate(
        SPEC_BY_NAME[name], seed=s, target_instructions=instructions,
        mte_instrumented=True).program)
        for name in profiles for s in range(seed, seed + seeds)]


def _simulate(program, slice_cycles: int):
    """One run on a fresh system (modelled caches start empty), driven in
    ``slice_cycles`` slices; returns the system and per-slice
    ``(cycles, committed, start, end)``."""
    from repro.config import CORTEX_A76, DefenseKind
    from repro.system import build_system
    system = build_system(CORTEX_A76.with_defense(DefenseKind.SPECASAN))
    core = system.prepare(program)
    slices = []
    clock = time.perf_counter
    while not core.halted:
        cycle, committed = core.cycle, core.stats.committed
        start = clock()
        core.run(until_cycle=cycle + slice_cycles)
        slices.append((core.cycle - cycle, core.stats.committed - committed,
                       start, clock()))
    return system, slices


def check_against_interpreter(run: Run, label: str, system, program) -> None:
    """Halted, no fault, and the committed count and registers (MTE keys
    stripped) equal the sequential reference interpreter's."""
    from repro.isa.interpreter import Interpreter
    from repro.mte.tags import strip_tag
    result = system.result()
    reference = Interpreter(program)
    reference.run()
    same_regs = all(strip_tag(result.registers.get(reg, 0))
                    == strip_tag(reference.regs[reg]) for reg in range(31))
    run.check(result.halted and result.fault is None
              and reference.halted
              and result.instructions == reference.executed and same_regs,
              f"{label}: simulator disagrees with the interpreter "
              f"(halted={result.halted} fault={result.fault} "
              f"committed={result.instructions} "
              f"reference={reference.executed} regs_equal={same_regs})")


def _sim_all(programs, slice_cycles: int, run: Optional[Run] = None,
             spans=None, tracer=None):
    """Simulate every program; checks run off the clock when ``run`` is
    given.  Returns (slices, stats dumps, per-program (start, end))."""
    all_slices, dumps, stamps = [], [], []
    for label, program in programs:
        (system, slices), stamp = _item(spans, tracer, "program-run",
                                        _simulate, program, slice_cycles,
                                        program=label)
        stamps.append(stamp)
        dumps.append(system.stats_registry().dump())
        all_slices.extend(slices)
        if run is not None:
            check_against_interpreter(run, label, system, program)
    return all_slices, dumps, stamps


def sim_mem(seed: int, trace: bool = False, *,
            profiles: Sequence[str] = SIM_PROFILES, seeds: int = SIM_SEEDS,
            instructions: int = SIM_INSTRUCTIONS, slice_cycles: int = 2000,
            setups: int = 3) -> Run:
    """Simulator throughput on pointer-chasing programs under SpecASan."""
    from repro.checkpoint import program_fingerprint
    from repro.config import CORTEX_A76, DefenseKind
    from repro.system import build_system
    run = Run("sim-mem", seed)
    with HostSpeed(in_process=True) as speed:
        setup_stamps, fingerprints = [], set()
        for _ in range(setups):
            programs, stamp = timed(sim_inputs, seed, profiles, instructions,
                                    seeds)
            setup_stamps.append(stamp)
            fingerprints.add(program_fingerprint([p for _, p in programs]))
        run.check(len(fingerprints) == 1, "inputs differ between setups")
        run.info["inputs"] = fingerprints.pop()
        # Untimed warm-up item: one slice of the first program.
        build_system(CORTEX_A76.with_defense(DefenseKind.SPECASAN)).prepare(
            programs[0][1]).run(until_cycle=slice_cycles)

        slices, dumps, stamps = _sim_all(programs, slice_cycles, run)
        run.info["digest"] = m.sha256_json(dumps)
        run.info["samples"] = {"slices": len(slices)}

        def values(scale):
            hosts = [scale(start, end) for _, _, start, end in slices]
            rates = [c / h for (c, _, _, _), h in zip(slices, hosts)]
            return {
                "setup_s": statistics.median(scale(*s) for s in setup_stamps),
                "sim_cycles_per_s": statistics.median(rates),
                "sim_instr_per_s": statistics.median(
                    i / h for (_, i, _, _), h in zip(slices, hosts)),
                # Over the whole run, so that every program weighs by its
                # length: seeds move this less than the median slice.
                "throughput_per_s": sum(c for c, _, _, _ in slices)
                / sum(hosts),
                # Host ms to simulate one slice.
                "latency_ms_p50": statistics.median(hosts) * 1000.0}

        run.measure(speed, values)
        run.metrics["sim_ipc"] = m.ratio(sum_stats(dumps, "core", "committed"),
                                         sum_stats(dumps, "core", "cycles"))

        if trace:
            tracer = seams.Tracer()
            run.spans = seams.SpanLog(trace_id("sim-mem", seed))
            with seams.patched(tracer):
                traced, (start, _) = timed(sim_inputs, seed, profiles,
                                           instructions, seeds)
                _, traced_dumps, traced_stamps = _sim_all(
                    traced, slice_cycles, spans=run.spans, tracer=tracer)
            run.check(m.sha256_json(traced_dumps) == run.info["digest"],
                      "traced run changed the simulated statistics")
            end = traced_stamps[-1][1]
            untraced_s = run.metrics["setup_s"] + sum(
                speed.scale(*stamp) for stamp in stamps)
            rates = [c / speed.scale(a, b) for c, _, a, b in slices]
            layer_metrics(run, tracer, speed.factor(start, end),
                          speed.scale(start, end), untraced_s, traced_dumps,
                          **{"pipeline.slice_cycles_per_s_p10":
                             m.percentile(rates, 10)})
    return run.finish(speed)


# ----------------------------------------------------------------------
# campaign-fig6: the user's own campaign command
# ----------------------------------------------------------------------

def campaign_argv(seed: int, run_dir: str,
                  profiles: Sequence[str] = CAMPAIGN_PROFILES,
                  instructions: int = 8000) -> List[str]:
    return [sys.executable, "-m", "repro.campaign", "--figure", "6",
            "--max-workers", "2", "--target-instructions", str(instructions),
            "--benchmarks", ",".join(profiles), "--seed", str(seed),
            "--run-dir", run_dir]


def campaign_config(seed: int, profiles: Sequence[str] = CAMPAIGN_PROFILES,
                    instructions: int = 8000):
    """The config the command builds from its arguments."""
    from repro.campaign.cells import CampaignConfig
    return CampaignConfig(figure="figure6", benchmarks=tuple(profiles),
                          target_instructions=instructions, seed=seed,
                          max_workers=2)


def _launch_campaign(argv: List[str], scratch: str, stop_when_ready: bool
                     ) -> Tuple[float, Optional[float], float, int, list]:
    """Run the command; returns (start, first-cell launch or None, end,
    exit code, stderr tail).  ``stop_when_ready`` sends SIGTERM at the
    first cell launch (a set-up probe: the scheduler stops gracefully)."""
    ready: List[float] = []
    tail: List[str] = []
    start = time.perf_counter()
    with child(argv, scratch, stdout=subprocess.DEVNULL,
               stderr=subprocess.PIPE, text=True) as proc:

        def read() -> None:
            for line in proc.stderr:
                if not ready and "attempt 0 started" in line:
                    ready.append(time.perf_counter())
                    if stop_when_ready:
                        proc.send_signal(signal.SIGTERM)
                tail.append(line.rstrip())
                del tail[:-20]

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        code = proc.wait(timeout=170)
        end = time.perf_counter()
        reader.join(timeout=10)
    return start, (ready[0] if ready else None), end, code, tail


def _campaign_rows(run_dir: str, cells) -> Dict[str, dict]:
    from repro.campaign.store import ResultStore
    completed, _ = ResultStore(run_dir).completed([c.cell_id for c in cells])
    return {cell_id: record["row"] for cell_id, record in completed.items()}


def _row_digest(rows: Dict[str, dict]) -> str:
    """Digest of the simulated rows; the ``checkpoint`` stats scope counts
    which worker won the race to write the shared warm state, so it is
    orchestration, not simulation, and is left out."""
    return m.sha256_json({
        cell_id: {"cycles": row["cycles"], "instructions": row["instructions"],
                  "stats": {scope: values for scope, values
                            in row["stats"].items() if scope != "checkpoint"}}
        for cell_id, row in rows.items()})


def _replay(config, scratch: str, spans=None, tracer=None) -> Dict[str, dict]:
    """The command's cells in-process, serially, through ``run_cell`` with
    the command's checkpointing (warm once per workload, fan out)."""
    from repro.campaign.worker import CheckpointPlan, run_cell
    os.makedirs(scratch)
    rows = {}
    for cell in config.build_cells():
        safe = cell.cell_id.replace(":", "_").replace("+", "") \
            .replace("/", "-")
        plan = CheckpointPlan(stem=os.path.join(scratch, safe),
                              interval=config.checkpoint_interval,
                              keep=config.checkpoint_keep, warm_dir=scratch)
        rows[cell.cell_id], _ = _item(spans, tracer, "cell", run_cell, cell,
                                      0, None, plan, cell=cell.cell_id)
    return rows


def _span_phases(run_dir: str) -> Tuple[List[float], Dict[str, float]]:
    """Cell-attempt durations (ms) and summed phase times (s) from the
    command's own span log."""
    from repro.telemetry.obs import load_spans
    attempts, phases = [], {}
    for span in load_spans(os.path.join(run_dir, "spans.jsonl")):
        if span.name == "cell-attempt":
            attempts.append(span.dur_ms)
        else:
            phases[span.name] = phases.get(span.name, 0.0) \
                + span.dur_ms / 1000.0
    return attempts, phases


def _finished_command(run: Run, run_dir: str, code: int, tail: list,
                      cells) -> Dict[str, dict]:
    """Check one command's report and rows; returns the rows."""
    report_path = os.path.join(run_dir, "report.json")
    report = {}
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
    run.check(code == 0 and report.get("ok") is True
              and report.get("completed") == len(cells)
              == report.get("total_cells"),
              f"campaign exit {code}, report {report}: {tail[-3:]}")
    rows = _campaign_rows(run_dir, cells)
    for cell in cells:
        row = rows.get(cell.cell_id)
        run.check(row is not None and row["halted"] and row["cycles"] > 0,
                  f"{cell.cell_id}: no completed row")
    return rows


def campaign_fig6(seed: int, trace: bool = False, *,
                  profiles: Sequence[str] = CAMPAIGN_PROFILES, seeds: int = 2,
                  instructions: int = 8000, setups: int = 3) -> Run:
    """Campaign throughput: spawn, warm sharing, squash-heavy simulation.

    The command runs once per seed S..S+seeds-1: the simulation one seed's
    programs need varies by about 10% from seed to seed, and a command's
    wall time with it.
    """
    import repro.campaign.worker  # noqa: F401  (imported before any replay)
    run = Run("campaign-fig6", seed)
    configs = [campaign_config(s, profiles, instructions)
               for s in range(seed, seed + seeds)]
    run.info["inputs"] = m.sha256_json(
        [campaign_argv(c.seed, "RUN_DIR", profiles, instructions)[1:]
         for c in configs])
    with HostSpeed(in_process=False) as speed, work_dir() as scratch:
        ready_stamps: List[Tuple[float, float]] = []
        for probe in range(max(1, setups - seeds)):
            start, ready, _, _, tail = _launch_campaign(
                campaign_argv(seed, os.path.join(scratch, f"probe{probe}"),
                              profiles, instructions), scratch, True)
            if run.check(ready is not None,
                         f"set-up probe never launched a cell: {tail[-3:]}"):
                ready_stamps.append((start, ready))

        launched = []
        for config in configs:
            run_dir = os.path.join(scratch, f"run-{config.seed}")
            launched.append((config, run_dir) + _launch_campaign(
                campaign_argv(config.seed, run_dir, profiles, instructions),
                scratch, False))
        rows: Dict[str, dict] = {}
        for config, run_dir, start, ready, end, code, tail in launched:
            if ready is not None:
                ready_stamps.append((start, ready))
            rows.update({f"{config.seed}/{cell_id}": row for cell_id, row
                         in _finished_command(run, run_dir, code, tail,
                                              config.build_cells()).items()})
        run.info["digest"] = _row_digest(rows)
        run.info["samples"] = {"commands": len(launched)}

        def values(scale):
            walls = [scale(start, end)
                     for _, _, start, _, end, _, _ in launched]
            return {
                "setup_s": statistics.median(scale(*s) for s in ready_stamps)
                if ready_stamps else 0.0,
                "cells_per_s": len(rows) / sum(walls),
                "throughput_per_s": len(rows) / sum(walls),
                # The command's wall time: what a user waits for a figure.
                "latency_ms_p50": statistics.median(walls) * 1000.0}

        run.measure(speed, values)
        ratios = [rows[f"{c.seed}/spec:{b}:specasan"]["cycles"]
                  / rows[f"{c.seed}/spec:{b}:none"]["cycles"]
                  for c in configs for b in profiles
                  if f"{c.seed}/spec:{b}:none" in rows
                  and f"{c.seed}/spec:{b}:specasan" in rows]
        run.metrics["specasan_overhead_pct"] = (
            (m.geomean(ratios) - 1.0) * 100.0 if ratios else 0.0)

        if trace:
            config, run_dir, start, _, end = launched[0][:5]
            attempt_ms, phases = _span_phases(run_dir)
            factor = speed.factor(start, end)
            extra = {name: phases.get(phase, 0.0) * factor for name, phase in (
                ("campaign.generate_s", "workload-generate"),
                ("campaign.restore_s", "checkpoint-restore"),
                ("campaign.warm_s", "warm-up"),
                ("campaign.simulate_s", "simulate"))}
            extra["campaign.attempt_overhead_s"] = factor * (
                sum(attempt_ms) / 1000.0 - sum(phases.values()))
            extra["campaign.worker_utilization"] = m.ratio(
                sum(attempt_ms) / 1000.0, config.max_workers * (end - start))
            expected = _row_digest(_campaign_rows(run_dir,
                                                  config.build_cells()))
            untraced, stamp = timed(_replay, config,
                                    os.path.join(scratch, "replay"))
            tracer = seams.Tracer()
            run.spans = seams.SpanLog(trace_id("campaign-fig6", seed))
            with seams.patched(tracer):
                traced, traced_stamp = timed(
                    _replay, config, os.path.join(scratch, "traced"),
                    run.spans, tracer)
            run.check(_row_digest(untraced) == expected
                      == _row_digest(traced),
                      "in-process replay or tracing changed the rows")
            layer_metrics(run, tracer, speed.factor(*traced_stamp),
                          speed.scale(*traced_stamp), speed.scale(*stamp),
                          [row["stats"] for row in traced.values()], **extra)
    return run.finish(speed)


# ----------------------------------------------------------------------
# lint: spec-lint in-process, no simulation
# ----------------------------------------------------------------------

def candidates(rng, count: int) -> List[Tuple[str, str, object, list]]:
    """``count`` fuzz-generator candidates with distinct ``.s`` text:
    (label, source, program, secret ranges)."""
    from repro.fuzz.generator import build, sample_spec
    out, specs, texts = [], set(), set()
    while len(out) < count:
        spec = sample_spec(rng)
        if spec in specs:
            continue
        specs.add(spec)
        candidate = build(spec)
        if candidate.source_text in texts:
            continue
        texts.add(candidate.source_text)
        out.append((spec.label, candidate.source_text,
                    candidate.attack.builder_program,
                    [tuple(r) for r in candidate.secret_ranges]))
    return out


def lint_inputs(seed: int, programs: int = 400, edits: int = 32) -> dict:
    """Phase-1 programs (fuzz candidates plus the Table-1 attack variants)
    and the one-function edits of the modular bench fixture."""
    from repro.analysis.modular.fixtures import BENCH_FUNCTIONS, bench_program
    from repro.attacks import REGISTRY, TABLE1_ROWS, build_variants
    from repro.rng import stream
    phase1 = [(label, program, ranges) for label, _, program, ranges
              in candidates(stream(seed, "perfbench", "lint"), programs)]
    for attack in TABLE1_ROWS:
        for (variant, _), poc in zip(REGISTRY[attack],
                                     build_variants(attack)):
            phase1.append((f"{attack}/{variant}", poc.builder_program,
                           [(poc.secret_address,
                             poc.secret_address + poc.secret_size)]))
    rng = stream(seed, "perfbench", "lint-edits")
    chosen: List[Tuple[int, int]] = []
    while len(chosen) < edits:
        edit = (rng.randrange(BENCH_FUNCTIONS), rng.randrange(1, 1000))
        if edit not in chosen:
            chosen.append(edit)
    return {"phase1": phase1, "base": bench_program(),
            "edits": [(f"fn{fn}+{delta}",) + bench_program(edits={fn: delta})
                      for fn, delta in chosen]}


def _report(gadgets) -> List[str]:
    return [gadget.render() for gadget in gadgets]


def _lint_all(inputs: dict, cache_path: str, warm_rounds: int,
              run: Optional[Run], spans=None, tracer=None) -> dict:
    """Phases 1-3, each item's (start, end) kept per phase.  ``run``
    receives the byte-identity checks.

    The phases are interleaved edit by edit (a share of the phase-1
    programs, then the edit cold, modular and warm), so every metric
    samples the whole run rather than one stretch of a noisy host.
    """
    from repro.analysis import gadgets as lint
    from repro.analysis.modular import SummaryCache
    from repro.analysis.options import AnalysisOptions

    def modular(cache):
        return AnalysisOptions.summary_backed(cache=cache)

    def warm_lint(program, ranges):
        cache = SummaryCache(cache_path)
        report = _report(lint.find_gadgets(program, ranges,
                                           options=modular(cache)))
        out["hits"] += cache.hits
        out["misses"] += cache.misses
        return report

    def item(phase, label, fn, *args):
        report, stamp = _item(spans, tracer, "lint", fn, *args,
                              phase=phase, program=label)
        out[phase].append(stamp)
        return report

    def cold(program, ranges, options=None):
        return _report(lint.find_gadgets(program, ranges, options=options))

    out = {"cold": [], "edit-cold": [], "edit-modular-cold": [],
           "edit-warm": [], "reports": [], "hits": 0, "misses": 0}
    # Untimed: the base fixture's summaries, written to the persistent
    # cache that phase 3 reads back (the write half of the pair).
    warm = SummaryCache(cache_path)
    lint.find_gadgets(*inputs["base"], options=modular(warm))
    warm.flush()

    phase1, edits = inputs["phase1"], inputs["edits"]
    for k, (label, program, ranges) in enumerate(edits):
        share = phase1[k * len(phase1) // len(edits):
                       (k + 1) * len(phase1) // len(edits)]
        for other, other_program, other_ranges in share:
            out["reports"].append(item("cold", other, cold, other_program,
                                       other_ranges))
        whole = item("edit-cold", label, cold, program, ranges)
        out["reports"].append(whole)
        split = item("edit-modular-cold", label, cold, program, ranges,
                     modular(SummaryCache()))
        if run is not None:
            run.check(split == whole,
                      f"{label}: modular report differs from whole-program")
        for _ in range(warm_rounds):
            report = item("edit-warm", label, warm_lint, program, ranges)
            if run is not None:
                run.check(report == whole,
                          f"{label}: warm report differs from whole-program")
    return out


def lint(seed: int, trace: bool = False, *, programs: int = 400,
         edits: int = 32, warm_rounds: int = 3, setups: int = 3) -> Run:
    """spec-lint cost: cold whole-program, edit re-lint cold and warm."""
    from repro.analysis.differential import (compare_to_expected,
                                             static_matrix, unexpected)
    from repro.analysis.gadgets import find_gadgets
    from repro.analysis.options import AnalysisOptions
    from repro.checkpoint import program_fingerprint
    run = Run("lint", seed)
    with HostSpeed(in_process=True) as speed, work_dir() as scratch:
        setup_stamps, fingerprints = [], set()
        for _ in range(setups):
            inputs, stamp = timed(lint_inputs, seed, programs, edits)
            setup_stamps.append(stamp)
            fingerprints.add(m.sha256_json(
                [(label, program_fingerprint(p), ranges) for label, p, ranges
                 in inputs["phase1"] + inputs["edits"]]))
        run.check(len(fingerprints) == 1, "inputs differ between setups")
        run.info["inputs"] = fingerprints.pop()
        mismatches = unexpected(compare_to_expected(static_matrix()))
        run.check(not mismatches,
                  f"static Table 1 differs from the paper: {mismatches}")
        # Untimed warm-up item, through both engines.
        find_gadgets(*inputs["base"])
        find_gadgets(*inputs["base"],
                     options=AnalysisOptions.summary_backed())

        out, stamp = timed(_lint_all, inputs,
                           os.path.join(scratch, "summaries.jsonl"),
                           warm_rounds, run)
        untraced_s = speed.scale(*stamp)
        run.info["digest"] = m.sha256_json(out["reports"])
        run.info["samples"] = {phase: len(out[phase]) for phase in
                               ("cold", "edit-cold", "edit-warm")}
        run.info["cold_tail_percentile"] = m.tail_percentile(len(out["cold"]))

        def values(scale):
            def ms(phase):
                return [scale(*stamp) * 1000.0 for stamp in out[phase]]

            cold = ms("cold")
            warm = statistics.median(ms("edit-warm"))
            return {
                "setup_s": statistics.median(scale(*s) for s in setup_stamps),
                "lint_cold_ms_p50": statistics.median(cold),
                "lint_cold_ms_p95": m.percentile(cold, 95),
                "lint_edit_cold_ms_p50": statistics.median(ms("edit-cold")),
                "lint_edit_modular_cold_ms_p50": statistics.median(
                    ms("edit-modular-cold")),
                "lint_edit_warm_ms_p50": warm,
                # Cold whole-program programs/s, and the warm edit re-lint.
                "throughput_per_s": 1000.0 / statistics.median(cold),
                "latency_ms_p50": warm}

        run.measure(speed, values)

        if trace:
            # Fresh programs, as the untraced run had: a program caches
            # its linking on first use.
            inputs = lint_inputs(seed, programs, edits)
            tracer = seams.Tracer()
            run.spans = seams.SpanLog(trace_id("lint", seed))
            with seams.patched(tracer):
                traced, stamp = timed(_lint_all, inputs,
                                      os.path.join(scratch, "traced.jsonl"),
                                      warm_rounds, None, run.spans, tracer)
            run.check(m.sha256_json(traced["reports"]) == run.info["digest"],
                      "traced run changed the gadget reports")
            layer_metrics(run, tracer, speed.factor(*stamp),
                          speed.scale(*stamp), untraced_s, **{
                              "analysis.modular.hit_rate": m.ratio(
                                  traced["hits"],
                                  traced["hits"] + traced["misses"])})
    return run.finish(speed)


# ----------------------------------------------------------------------
# service: the spec-lint service as a subprocess, two client connections
# ----------------------------------------------------------------------

def service_inputs(seed: int, fresh: int = 100, confirms: int = 20,
                   repeats: int = 200, connections: int = 2) -> dict:
    """Fresh requests (unique candidate sources, ``confirms`` of them with
    simulator confirmation) and, per connection, a closed-loop schedule of
    ``("fresh" | "repeat", fresh index)``: every repeat names a request
    already answered on the same connection, so it is served from cache."""
    from repro.rng import stream
    rng = stream(seed, "perfbench", "service")
    sources = candidates(rng, fresh)
    confirmed = set(rng.sample(range(fresh), confirms))
    requests = []
    for index, (_, source, _, ranges) in enumerate(sources):
        request = {"op": "lint", "source": source,
                   "secret_ranges": [list(r) for r in ranges]}
        if index in confirmed:
            request["confirm"] = True
        requests.append(request)
    schedules = []
    for conn in range(connections):
        mine = list(range(conn, fresh, connections))
        tokens = ["repeat"] * (repeats // connections
                               + (conn < repeats % connections))
        tokens += ["fresh"] * (len(mine) - 1)
        rng.shuffle(tokens)
        schedule, sent = [], []
        for kind in ["fresh"] + tokens:
            if kind == "fresh":
                sent.append(mine[len(sent)])
                schedule.append(("fresh", sent[-1]))
            else:
                schedule.append(("repeat", rng.choice(sent)))
        schedules.append(schedule)
    return {"requests": requests, "schedules": schedules}


def service_argv(state_dir: str) -> List[str]:
    return [sys.executable, "-m", "repro.service", "--state-dir", state_dir,
            "--static-workers", "2", "--dynamic-workers", "1"]


@contextlib.asynccontextmanager
async def _connection(port: int):
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=64 * 1024 * 1024)

    async def ask(payload: dict) -> dict:
        writer.write((json.dumps(payload) + "\n").encode("utf-8"))
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), 120.0)
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    try:
        yield ask
    finally:
        writer.close()
        await writer.wait_closed()


async def _ping(port: int) -> dict:
    async with _connection(port) as ask:
        return await ask({"id": "ready", "op": "ping"})


async def _drive(port: int, inputs: dict) -> Tuple[list, dict]:
    """Every connection's closed loop; returns per-request records
    ``(kind, fresh index, start, end, response)`` and a final stats
    dump."""
    records: list = []

    async def loop(conn: int, schedule) -> None:
        async with _connection(port) as ask:
            for k, (kind, index) in enumerate(schedule):
                payload = dict(inputs["requests"][index], id=f"c{conn}-{k}")
                start = time.perf_counter()
                response = await ask(payload)
                records.append((kind, index, start, time.perf_counter(),
                                response))

    await asyncio.gather(*(loop(conn, schedule) for conn, schedule
                           in enumerate(inputs["schedules"])))
    async with _connection(port) as ask:
        stats = await ask({"id": "stats", "op": "stats"})
    return records, stats.get("stats", {})


@contextlib.contextmanager
def _service(scratch: str, name: str):
    """A service subprocess; yields (process, port, launch, ready or
    None), and drains it with SIGTERM when the block ends."""
    state_dir = os.path.join(scratch, name)
    with open(os.path.join(scratch, f"{name}.log"), "w") as log, \
            child(service_argv(state_dir), scratch, stdout=subprocess.PIPE,
                  stderr=log, text=True) as proc:
        start = time.perf_counter()
        line = proc.stdout.readline()
        port = json.loads(line)["port"] if line else None
        pong = asyncio.run(_ping(port)) if port else {}
        yield proc, port, start, (time.perf_counter() if pong.get("pong")
                                  else None)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)


def reference_verdicts(request: dict) -> Tuple[dict, List[str]]:
    """The in-process spec-lint answer for one source request."""
    from repro.analysis.gadgets import find_gadgets, leaks_under
    from repro.config import DefenseKind
    from repro.isa.assembler import assemble
    gadgets = find_gadgets(assemble(request["source"]),
                           [tuple(r) for r in request["secret_ranges"]])
    return ({defense.value: any(leaks_under(g, defense) for g in gadgets)
             for defense in DefenseKind}, _report(gadgets))


def check_service(run: Run, inputs: dict, records: list) -> None:
    """Every response ok; fresh verdicts equal in-process spec-lint;
    confirmations served at full tier; repeats served from cache with the
    fresh answer."""
    answers: Dict[int, dict] = {}
    for kind, index, _, _, response in records:
        if not run.check(response.get("ok") is True,
                         f"{kind} {index}: {json.dumps(response)[:200]}"):
            continue
        request = inputs["requests"][index]
        if kind == "fresh":
            verdicts, report = reference_verdicts(request)
            served = [g.get("report") for g in response.get("gadgets", [])]
            tier = "static+dynamic" if request.get("confirm") else "static"
            run.check(response.get("verdicts") == verdicts
                      and served == report and response.get("tier") == tier
                      and not response.get("degraded"),
                      f"fresh {index}: verdict differs from in-process "
                      f"spec-lint or tier {response.get('tier')}")
            answers[index] = response
        else:
            run.check(response.get("cached") is True,
                      f"repeat {index}: not served from cache")
    for kind, index, _, _, response in records:
        if kind == "repeat" and index in answers and response.get("ok"):
            run.check(response.get("verdicts")
                      == answers[index].get("verdicts"),
                      f"repeat {index}: verdict differs from the fresh one")


def service(seed: int, trace: bool = False, *, fresh: int = 100,
            confirms: int = 20, repeats: int = 200, setups: int = 3) -> Run:
    """Request latency through admission, worker spawn, IPC and cache."""
    run = Run("service", seed)
    with HostSpeed(in_process=False) as speed, work_dir() as scratch:
        setup_stamps, fingerprints, outcomes = [], set(), []

        def launch(name: str, drive: bool) -> None:
            inputs, made = timed(service_inputs, seed, fresh, confirms,
                                 repeats)
            fingerprints.add(m.sha256_json(inputs))
            with _service(scratch, name) as (proc, port, start, ready):
                if not run.check(ready is not None,
                                 f"{name}: service never got ready"):
                    return
                setup_stamps.append((made, (start, ready)))
                if drive:
                    (records, stats), stamp = timed(asyncio.run,
                                                    _drive(port, inputs))
            if drive:
                run.check(proc.returncode == 0,
                          f"service exited {proc.returncode} after draining")
                outcomes.append((inputs, records, stats, stamp))

        for probe in range(setups - 1):
            launch(f"probe{probe}", False)
        launch("run", True)
        run.check(len(fingerprints) == 1, "inputs differ between setups")
        run.info["inputs"] = fingerprints.pop()
    if not outcomes:
        return run.finish(speed)
    inputs, records, stats, stamp = outcomes[0]
    check_service(run, inputs, records)
    run.info["digest"] = m.sha256_json(sorted(
        (index, response.get("verdicts"),
         [g.get("report") for g in response.get("gadgets", [])])
        for kind, index, _, _, response in records if kind == "fresh"))
    run.info["samples"] = {"fresh": sum(kind == "fresh"
                                        for kind, *_ in records)}

    def values(scale):
        fresh_ms = [scale(start, end) * 1000.0
                    for kind, _, start, end, _ in records if kind == "fresh"]
        return {
            "setup_s": statistics.median(scale(*made) + scale(*ready)
                                         for made, ready in setup_stamps),
            "service_fresh_ms_p50": statistics.median(fresh_ms),
            "service_fresh_ms_p90": m.percentile(fresh_ms, 90),
            # Responses per second over the closed loop, and fresh latency.
            "throughput_per_s": len(records) / scale(*stamp),
            "latency_ms_p50": statistics.median(fresh_ms)}

    run.measure(speed, values)

    if trace:
        # The service times its own phases in every response and the
        # benchmark adds no instrumentation: tracing costs nothing here.
        phases = ("queue_wait", "analysis", "confirm", "other")
        run.spans = seams.SpanLog(trace_id("service", seed),
                                  epoch=stamp[0])
        fresh_phases: Dict[str, List[float]] = {p: [] for p in phases}
        for kind, index, start, end, response in records:
            t = response.get("timings", {})
            run.spans.item("request", start, end, children=tuple(
                (phase, t.get(f"{phase}_ms", 0.0)) for phase in phases),
                kind=kind, index=index)
            confirm = inputs["requests"][index].get("confirm", False)
            for phase in phases:
                if kind == "fresh" and (phase != "confirm" or confirm):
                    fresh_phases[phase].append(
                        t.get(f"{phase}_ms", 0.0) * speed.factor(start, end))
        cache = stats.get("service", {}).get("cache", {})
        hits, misses = cache.get("hits", 0), cache.get("misses", 0)
        extra = {f"service.{phase}_ms_p50": statistics.median(values)
                 for phase, values in fresh_phases.items() if values}
        extra["service.hit_ms_p50"] = statistics.median(
            speed.scale(start, end) * 1000.0
            for kind, _, start, end, _ in records if kind == "repeat")
        extra["service.cache_hit_rate"] = m.ratio(hits, hits + misses)
        wall = speed.scale(*stamp)
        layer_metrics(run, seams.Tracer(), 1.0, wall, wall, **extra)
    return run.finish(speed)


RUNNERS = {"sim-mem": sim_mem, "campaign-fig6": campaign_fig6,
           "lint": lint, "service": service}
