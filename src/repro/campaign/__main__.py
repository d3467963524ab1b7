"""Campaign CLI: run, resume, and smoke-test experiment sweeps.

    python -m repro.campaign --figure 6 --run-dir runs/fig6
    python -m repro.campaign --resume runs/fig6
    python -m repro.campaign --smoke

Exit codes: 0 — every cell completed; 1 — campaign finished but some cells
exhausted their retries (partial figure printed, structured report in
``report.json``); 2 — usage error.

``--smoke`` is the CI acceptance check: it runs a small sweep twice — once
uninterrupted, once SIGKILLed mid-flight and resumed — and asserts the
resumed run skipped completed cells and rendered byte-identical rows.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from repro.campaign.cells import CampaignConfig, FIGURES
from repro.campaign.pool import worker_env
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.store import ResultStore
from repro.errors import CampaignError


def _progress(message: str) -> None:
    print(f"[campaign] {message}", file=sys.stderr)


def _finish(outcome) -> int:
    print(outcome.render("normalized"))
    report = outcome.report()
    if not outcome.ok:
        print(f"\ncampaign incomplete: {len(report['failed'])} cell(s) "
              f"failed, {len(report['corrupt_records'])} corrupt record(s); "
              "see report.json", file=sys.stderr)
        for cell_id, failures in report["failed"].items():
            for failure in failures:
                print(f"  {cell_id}: attempt {failure['attempt']} "
                      f"{failure['kind']}: {failure['error']}",
                      file=sys.stderr)
        return 1
    print(f"\ncampaign complete: {report['completed']}/"
          f"{report['total_cells']} cells "
          f"({report['skipped_already_done']} resumed)", file=sys.stderr)
    return 0


def _figure_name(figure: str) -> str:
    """``6`` -> ``figure6``; named sweeps (``repair-overhead``) pass as-is."""
    if figure in FIGURES or figure.startswith("figure"):
        return figure
    return f"figure{figure}"


def _config_from_args(args) -> CampaignConfig:
    figure = _figure_name(args.figure)
    benchmarks = tuple(b for b in (args.benchmarks or "").split(",") if b)
    return CampaignConfig(
        figure=figure, benchmarks=benchmarks,
        target_instructions=args.target_instructions,
        warm_runs=args.warm_runs, num_threads=args.num_threads,
        seed=args.seed, max_cycles=args.max_cycles,
        timeout_s=args.timeout, max_retries=args.max_retries,
        stall_timeout_s=args.stall_timeout, max_workers=args.max_workers,
        share_warm=not args.no_share_warm)


# ----------------------------------------------------------------------
# the kill / resume / compare smoke (CI acceptance check)
# ----------------------------------------------------------------------

def _smoke_config() -> CampaignConfig:
    return CampaignConfig(
        figure="figure9", benchmarks=("505.mcf_r", "541.leela_r"),
        target_instructions=300, warm_runs=0, timeout_s=120.0,
        max_retries=1, max_workers=2, backoff_base_s=0.05,
        backoff_jitter_s=0.05, stall_timeout_s=60.0)


def smoke(base_dir: str = "", verbose: bool = True) -> int:
    """Run the smoke in ``base_dir``, or in a temp dir that is removed when
    the smoke passes and kept (its path printed) when it fails."""
    if base_dir:
        return _smoke(base_dir, verbose)
    base = tempfile.mkdtemp(prefix="campaign-smoke-")
    code = 1
    try:
        code = _smoke(base, verbose)
    finally:
        if code == 0:
            shutil.rmtree(base, ignore_errors=True)
        else:
            print(f"smoke: artifacts kept in {base}", file=sys.stderr)
    return code


def _smoke(base: str, verbose: bool) -> int:
    say = _progress if verbose else (lambda message: None)
    config = _smoke_config()
    dir_ref = os.path.join(base, "uninterrupted")
    dir_kill = os.path.join(base, "interrupted")

    say("phase 1: uninterrupted reference sweep")
    reference = CampaignScheduler(config, dir_ref).run()
    if not reference.ok:
        print(f"FAIL: reference sweep incomplete: {reference.report()}",
              file=sys.stderr)
        return 1

    say("phase 2: sweep in a child process, SIGKILLed mid-flight")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.campaign", "--smoke-child", dir_kill],
        env=worker_env(), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    store = ResultStore(dir_kill)
    total = len(config.build_cells())
    deadline = time.monotonic() + 120
    done_before_kill = 0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            print("FAIL: child sweep finished before it could be killed — "
                  "smoke workload too small", file=sys.stderr)
            return 1
        records, _ = store.load()
        done_before_kill = sum(1 for r in records if r.get("status") == "ok")
        if 1 <= done_before_kill < total:
            break
        time.sleep(0.05)
    else:
        print("FAIL: no cell completed within the smoke deadline",
              file=sys.stderr)
        return 1
    # SIGKILL the whole session: scheduler and any in-flight workers die
    # with no chance to clean up — the crash we claim to survive.
    os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    proc.wait()
    say(f"killed mid-flight with {done_before_kill}/{total} cells done")

    say("phase 3: resume the interrupted run directory")
    resumed = CampaignScheduler(config, dir_kill, progress=say).run(
        resume=True)

    failures = []
    if not resumed.ok:
        failures.append(f"resumed sweep incomplete: {resumed.report()}")
    if resumed.skipped < done_before_kill:
        failures.append(
            f"resume re-ran completed cells: skipped {resumed.skipped} "
            f"< {done_before_kill} done before the kill")
    for metric in ("normalized", "restricted"):
        if resumed.render(metric) != reference.render(metric):
            failures.append(
                f"{metric} rows differ between resumed and uninterrupted "
                f"runs:\n--- resumed ---\n{resumed.render(metric)}\n"
                f"--- reference ---\n{reference.render(metric)}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if verbose:
        print(resumed.render("normalized"))
        print(f"\nsmoke: OK — killed at {done_before_kill}/{total} cells, "
              f"resume skipped {resumed.skipped} and rows match",
              file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Crash-safe, resumable experiment campaigns "
                    "(Figures 6/7/9).")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--resume", metavar="RUN_DIR",
                      help="finish an interrupted campaign from its run "
                           "directory (config comes from the manifest)")
    mode.add_argument("--smoke", action="store_true",
                      help="kill/resume/compare self-test (CI target)")
    mode.add_argument("--smoke-child", metavar="RUN_DIR",
                      help=argparse.SUPPRESS)  # internal: smoke's victim
    parser.add_argument("--figure", default="6",
                        help="6, 7, 9, or repair-overhead (default 6); "
                             "ignored with --resume")
    parser.add_argument("--run-dir", help="run directory (created if needed)")
    parser.add_argument("--benchmarks",
                        help="comma-separated subset (default: full suite)")
    parser.add_argument("--target-instructions", type=int, default=4000)
    parser.add_argument("--warm-runs", type=int, default=1)
    parser.add_argument("--num-threads", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-cycles", type=int, default=None,
                        help="cycle budget per run (default: config)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="wall-clock budget per cell (seconds)")
    parser.add_argument("--stall-timeout", type=float, default=60.0,
                        help="heartbeat staleness before a worker is "
                             "declared a straggler")
    parser.add_argument("--max-retries", type=int, default=2)
    parser.add_argument("--max-workers", type=int, default=2)
    parser.add_argument("--no-share-warm", action="store_true",
                        help="re-warm the hierarchy inside every cell "
                             "instead of fanning defenses out from one "
                             "shared warm checkpoint per workload")
    parser.add_argument("--smoke-dir", default="",
                        help="keep --smoke artifacts here (default: tmp)")
    args = parser.parse_args(argv)

    try:
        if args.smoke:
            return smoke(args.smoke_dir)
        if args.smoke_child:
            scheduler = CampaignScheduler(_smoke_config(), args.smoke_child)
            return 0 if scheduler.run().ok else 1
        if args.resume:
            store = ResultStore(args.resume)
            config = store.resume_config()
            scheduler = CampaignScheduler(config, args.resume,
                                          progress=_progress)
            return _finish(scheduler.run(resume=True))
        if not args.run_dir:
            parser.error("--run-dir is required (or use --resume/--smoke)")
        figure = _figure_name(args.figure)
        if figure not in FIGURES:
            parser.error(f"unsupported figure {args.figure!r}; campaigns "
                         f"cover {sorted(FIGURES)}")
        scheduler = CampaignScheduler(_config_from_args(args), args.run_dir,
                                      progress=_progress)
        return _finish(scheduler.run())
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
