"""Command-line differential fuzzing: runs, campaigns, replay, drills.

- ``python -m repro.fuzz --run`` — one seeded run; writes a run
  directory (``--out``) and prints the ``fuzz.*`` registry.
- ``python -m repro.fuzz --campaign N`` — N deterministic shards under
  the supervised worker pool, merged into ``<out>/merged``;
  ``--resume`` re-runs only missing/unloadable shards.
- ``python -m repro.fuzz --replay DIR`` — re-run every minimized
  regression stored in a run directory; nonzero when any no longer
  reproduces (the retire-the-regression signal).
- ``python -m repro.fuzz --export-requests FILE`` — dump a run's
  findings as spec-lint service ``lint`` requests (JSONL).
- ``python -m repro.fuzz --smoke`` — the acceptance drill: a clean
  seeded run must grow coverage with zero disagreements and replay
  byte-identically; an injected analyzer bug (``drop-sb-cut``) must be
  caught as a minimized regression and survive replay.
- ``python -m repro.fuzz --selftest`` — the CI gate: the same drill at
  a smaller budget.

Exit codes: 0 clean, 1 findings/drill failure, 2 usage or harness error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import List, Optional

from repro.analysis.hooks import KNOWN_BUGS
from repro.config import DefenseKind
from repro.errors import FuzzError, ReproError
from repro.fuzz import campaign as campaign_mod
from repro.fuzz import corpus
from repro.fuzz.executor import FuzzConfig, FuzzExecutor
from repro.fuzz.generator import GeneratorBias
from repro.telemetry.registry import StatsRegistry

DEFENSE_NAMES = {d.value: d for d in DefenseKind}

#: The acceptance drill's seeds and budgets (smoke / selftest scale).
SMOKE_SEED = 0xA5A5
SMOKE_BUDGET = 520
SELFTEST_BUDGET = 120
DRILL_BUDGET = 48


def _config_from_args(args: argparse.Namespace) -> FuzzConfig:
    defenses = tuple(DEFENSE_NAMES[name] for name in args.defense) \
        if args.defense else FuzzConfig().defenses
    return FuzzConfig(
        seed=args.seed, budget=args.budget, defenses=defenses,
        sim_every=args.sim_every, inject=tuple(args.inject),
        bias=GeneratorBias(barrier_bias=args.barrier_bias,
                           contention_bias=args.contention_bias))


def _run(config: FuzzConfig, out: Optional[str], quiet: bool = False) -> int:
    registry = StatsRegistry()
    result = FuzzExecutor(config, registry).run()
    if out:
        corpus.save_run(out, result)
    if not quiet:
        print(registry.render(title=f"fuzz run seed={config.seed:#x} "
                                    f"budget={config.budget}"))
        for finding in result.disagreements:
            print(f"  {finding.render()}")
        if out:
            print(f"run directory: {out}  (digest {corpus.run_digest(out)})")
    return 1 if result.disagreements else 0


def _replay(directory: str) -> int:
    run = corpus.load_run(directory)
    if run.corrupt:
        print(f"note: {run.corrupt} corrupt record(s) skipped")
    if not run.regressions:
        print("replay: no stored regressions")
        return 0
    failures = 0
    for record in run.regressions:
        ok, detail = corpus.replay_regression(directory, record)
        print(f"  {'ok  ' if ok else 'GONE'} {record['file']}: {detail}")
        failures += 0 if ok else 1
    print(f"replay: {len(run.regressions) - failures}/"
          f"{len(run.regressions)} regression(s) still reproduce")
    return 1 if failures else 0


def _campaign(args: argparse.Namespace) -> int:
    if not args.out:
        print("error: --campaign requires --out DIR", file=sys.stderr)
        return 2
    config = _config_from_args(args)
    outcomes = campaign_mod.run_campaign(args.out, config, args.campaign,
                                         resume=args.resume)
    merged_dir = os.path.join(args.out, campaign_mod.MERGED_DIR)
    merged = corpus.load_run(merged_dir) if any(o.ok for o in outcomes) \
        else None
    print(campaign_mod.render_outcomes(outcomes, merged))
    if not all(o.ok for o in outcomes):
        return 1
    return 1 if merged is not None and merged.regressions else 0


def _drill(workdir: str, budget: int) -> int:
    """Inject ``drop-sb-cut`` and demand a minimized precision finding.

    The injected analyzer ignores ``SB`` cuts, so a barrier-carrying PHT
    candidate reads as a static leak while the simulator (running the
    true microarchitecture) stays clean — the fuzzer must catch that as
    a minimized ``precision`` regression, and the stored record must
    replay.
    """
    drill_dir = os.path.join(workdir, "drill")
    config = FuzzConfig(
        seed=SMOKE_SEED + 1, budget=budget,
        defenses=(DefenseKind.SPECASAN,), sim_every=1,
        inject=("drop-sb-cut",),
        bias=GeneratorBias(barrier_bias=True))
    result = FuzzExecutor(config, StatsRegistry()).run()
    corpus.save_run(drill_dir, result)
    findings = [d for d in result.disagreements if d.kind == "precision"]
    shrunk = [d for d in findings if d.minimized_lines < d.original_lines]
    print(f"drill: injected drop-sb-cut -> {len(result.disagreements)} "
          f"finding(s), {len(findings)} precision, "
          f"{len(shrunk)} minimized")
    if not findings:
        print("drill: FAIL (injected analyzer bug was not caught)")
        return 1
    if not shrunk:
        print("drill: FAIL (no finding actually shrank)")
        return 1
    code = _replay(drill_dir)
    if code:
        print("drill: FAIL (stored regression did not replay)")
    return code


def _smoke(budget: int, drill_budget: int) -> int:
    failures = 0
    workdir = tempfile.mkdtemp(prefix="repro-fuzz-smoke-")
    try:
        # 1. A clean seeded run: coverage grows, the analyzer and the
        #    simulator agree on every simulated candidate.
        config = FuzzConfig(seed=SMOKE_SEED, budget=budget)
        run_a = os.path.join(workdir, "run-a")
        registry = StatsRegistry()
        result = FuzzExecutor(config, registry).run()
        corpus.save_run(run_a, result)
        print(registry.render(title=f"smoke run ({budget} candidates)"))
        ok = (result.executed >= budget
              and result.coverage.frontier > 0
              and not result.disagreements
              and result.build_errors == 0)
        print(f"clean run: {'ok' if ok else 'FAIL'} "
              f"(executed={result.executed} "
              f"frontier={result.coverage.frontier} "
              f"disagreements={len(result.disagreements)} "
              f"build_errors={result.build_errors})")
        for finding in result.disagreements:
            print(f"  {finding.render()}")
        failures += 0 if ok else 1

        # 2. Determinism: the same seed must reproduce the run directory
        #    byte for byte.
        run_b = os.path.join(workdir, "run-b")
        corpus.save_run(run_b, FuzzExecutor(config, StatsRegistry()).run())
        digest_a, digest_b = corpus.run_digest(run_a), corpus.run_digest(run_b)
        same = digest_a == digest_b
        print(f"determinism: {'ok' if same else 'FAIL'} "
              f"({digest_a} vs {digest_b})")
        failures += 0 if same else 1

        # 3. The injected-bug drill.
        failures += _drill(workdir, drill_budget)

        # 4. Findings export as service subjects (shape check only).
        drill_dir = os.path.join(workdir, "drill")
        requests_path = os.path.join(workdir, "requests.jsonl")
        count = corpus.export_requests(drill_dir, requests_path)
        with open(requests_path, encoding="utf-8") as handle:
            parsed = [json.loads(line) for line in handle if line.strip()]
        ok = count == len(parsed) and all(
            r.get("op") == "lint" and r.get("source") for r in parsed)
        print(f"export: {'ok' if ok else 'FAIL'} ({count} lint request(s))")
        failures += 0 if ok else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"smoke: {'PASS' if not failures else 'FAIL'}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Coverage-guided differential fuzzing of spec-lint "
                    "against the simulator.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--run", action="store_true",
                      help="one seeded fuzzing run (see --seed/--budget)")
    mode.add_argument("--campaign", type=int, metavar="N",
                      help="run N supervised worker shards into --out")
    mode.add_argument("--replay", metavar="DIR",
                      help="re-run every stored regression in DIR")
    mode.add_argument("--export-requests", metavar="FILE",
                      help="write a run's findings as service lint "
                           "requests (needs --out with the run directory)")
    mode.add_argument("--smoke", action="store_true",
                      help="acceptance drill: clean run + determinism + "
                           "injected-bug catch (default budget "
                           f"{SMOKE_BUDGET})")
    mode.add_argument("--selftest", action="store_true",
                      help="CI gate: the smoke drill at a reduced budget")
    parser.add_argument("--seed", type=lambda v: int(v, 0),
                        default=SMOKE_SEED, help="root seed (default "
                        f"{SMOKE_SEED:#x})")
    parser.add_argument("--budget", type=int, default=SMOKE_BUDGET,
                        help="candidates to draw")
    parser.add_argument("--out", metavar="DIR",
                        help="run / campaign directory to write")
    parser.add_argument("--resume", action="store_true",
                        help="with --campaign: keep finished shards")
    parser.add_argument("--defense", action="append",
                        choices=sorted(DEFENSE_NAMES),
                        help="defense oracle (repeatable; default "
                             "none+specasan)")
    parser.add_argument("--sim-every", type=int, default=4,
                        help="simulate every Nth candidate regardless of "
                             "coverage (default 4)")
    parser.add_argument("--inject", action="append", default=[],
                        choices=sorted(KNOWN_BUGS),
                        help="inject a named analyzer defect (repeatable)")
    parser.add_argument("--barrier-bias", action="store_true",
                        help="bias generation toward barrier-carrying PHT "
                             "candidates")
    parser.add_argument("--contention-bias", action="store_true",
                        help="bias generation toward contention candidates")
    args = parser.parse_args(argv)

    try:
        if args.smoke:
            return _smoke(args.budget if args.budget != SMOKE_BUDGET
                          else SMOKE_BUDGET, DRILL_BUDGET)
        if args.selftest:
            return _smoke(SELFTEST_BUDGET, DRILL_BUDGET // 2)
        if args.campaign is not None:
            return _campaign(args)
        if args.replay:
            return _replay(args.replay)
        if args.export_requests:
            if not args.out:
                print("error: --export-requests requires --out DIR "
                      "(the run directory)", file=sys.stderr)
                return 2
            count = corpus.export_requests(args.out, args.export_requests)
            print(f"wrote {count} lint request(s) to "
                  f"{args.export_requests}")
            return 0
        return _run(_config_from_args(args), args.out)
    except FuzzError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"harness error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
