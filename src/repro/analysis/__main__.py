"""Command-line spec-lint: report, differential, witnesses, repair, CI gate.

- ``python -m repro.analysis`` (or ``--report``) — static gadget report for
  every Table-1 PoC plus the predicted matrix; no simulation.
- ``python -m repro.analysis --differential`` — additionally run the live
  simulator matrix and diff cell by cell; exits nonzero on any mismatch not
  covered by :data:`repro.analysis.differential.ALLOWLIST`.  With
  ``--confirm``, every disagreeing cell is re-executed variant by variant
  and reported as structured ``WitnessDisagreement`` records.
- ``python -m repro.analysis --witness`` — synthesize the per-gadget-class
  counterexample witnesses (both variants), confirm each against the
  simulator under every defense, and report any static-vs-dynamic
  divergence.  ``--emit DIR`` dumps the ``.s`` sources.
- ``python -m repro.analysis --repair SUBJECT`` — the full
  analyze -> witness -> repair -> re-verify pipeline for one subject
  (a witness like ``pht`` / ``stl/untagged``, or a ``.s`` file), printing
  the fixes, the flipped verdicts, and the per-fix cycle-overhead table
  from the telemetry registry.
- ``python -m repro.analysis --selftest`` — the CI gate: CFG
  well-formedness over generated workloads, static-vs-EXPECTED agreement,
  the full live differential, one witness-confirm cell, and one
  repair-verify cell.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import List, Optional, Tuple

from repro.analysis import repair as repair_mod
from repro.analysis.cfg import build_cfg, require_well_formed
from repro.analysis.differential import (
    compare_matrices,
    compare_to_expected,
    confirm_mismatches,
    render_differential,
    render_report,
    render_static,
    static_matrix,
    unexpected,
)
from repro.analysis.gadgets import find_gadgets, leaks_under
from repro.analysis.witness import (
    Witness,
    confirm,
    render_confirmation,
    secret_ranges_of,
    synthesize,
    synthesize_all,
    variant_name,
    witness_kind,
    WITNESS_KINDS,
)
from repro.attacks import TABLE1_ROWS
from repro.attacks.common import run_attack_program
from repro.config import DefenseKind
from repro.errors import AnalysisError
from repro.isa.disasm import disassemble

#: Defense names accepted by ``--defense``.
DEFENSE_NAMES = {d.value: d for d in DefenseKind}


def _report(attacks: Optional[List[str]]) -> int:
    print(render_report(attacks))
    print()
    print(render_static(static_matrix(attacks)))
    return 0


def _report_file(path: str, secrets: List[str]) -> int:
    """Static gadget report for one ``.s`` file (``--report FILE.s``).

    Degenerate inputs — an empty program, unreachable victim code, flow
    that falls off the end of the text — are refused with the CFG
    diagnostics rather than reported as "no gadgets"
    (:func:`~repro.analysis.cfg.require_well_formed`).
    """
    from repro.errors import AssemblerError
    from repro.isa.assembler import assemble
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as err:
        raise AnalysisError(f"cannot read {path}: {err}")
    try:
        program = assemble(source)
    except AssemblerError as err:
        raise AnalysisError(f"{path} does not assemble: {err}")
    require_well_formed(program)
    secret_ranges = [_parse_secret(s) for s in secrets]
    from repro.analysis.taint import analyze
    taint = analyze(program, secret_ranges)
    gadgets = find_gadgets(program, secret_ranges, taint=taint)
    print(f"{path}: {len(program.instructions)} instruction(s), "
          f"{len(gadgets)} gadget(s)")
    for gadget in gadgets:
        print(f"  {gadget.render()}")
        verdicts = ", ".join(
            f"{d.value}={'leak' if leaks_under(gadget, d) else 'safe'}"
            for d in DefenseKind)
        print(f"    {verdicts}")
    _report_widenings(program, taint)
    return 0


def _report_widenings(program, taint) -> None:
    """Surface the bounded-iteration cutoff as explicit widening events.

    Mutually-recursive ``BL`` cycles (and unbounded loop counters) only
    converge because the constant-set join collapses past ``CONST_CAP``;
    silent convergence would hide that the analysis widened.  Print the
    event count and the functions it affected.
    """
    if not taint.widenings:
        return
    from repro.analysis.modular.callgraph import build_callgraph
    callgraph = build_callgraph(program, taint.cfg)
    total = sum(taint.widenings.values())
    functions = sorted({
        node.name for (start, _reg) in taint.widenings
        for node in (callgraph.function_at(start),) if node is not None})
    print(f"widening: {total} constant-set collapse event(s) at "
          f"{len(taint.widenings)} join point(s) — the bounded-iteration "
          f"cutoff converged the fixpoint")
    print(f"  affected function(s): {', '.join(functions)}")


def _differential(attacks: Optional[List[str]],
                  confirm_cells: bool = False) -> int:
    from repro.attacks.matrix import evaluate_matrix

    static = static_matrix(attacks)
    dynamic = evaluate_matrix(attacks)
    mismatches = compare_matrices(static, dynamic)
    print(render_differential(static, dynamic, mismatches))
    if confirm_cells:
        if not mismatches:
            print("confirm: no disagreeing cells to execute")
        else:
            records = confirm_mismatches(mismatches)
            print(f"confirm: {len(mismatches)} cell(s) re-executed, "
                  f"{len(records)} per-variant disagreement(s)")
            for record in records:
                print(f"  {record}")
    return 1 if unexpected(mismatches) else 0


def _witness(kinds: Optional[List[str]], emit: Optional[str]) -> int:
    """Synthesize and confirm witnesses; nonzero on any disagreement."""
    selected = [witness_kind(k) for k in kinds] if kinds else None
    failures = 0
    for witness in synthesize_all(selected):
        checks, disagreements = confirm(witness)
        print(render_confirmation(witness, checks, disagreements))
        failures += len(disagreements)
        if emit:
            os.makedirs(emit, exist_ok=True)
            path = os.path.join(
                emit, f"witness-{witness.subject.replace('/', '-')}.s")
            with open(path, "w") as handle:
                handle.write(witness.source_text)
            print(f"  wrote {path}")
    print(f"witness: {'PASS' if not failures else 'FAIL'} "
          f"({failures} disagreement(s))")
    return 1 if failures else 0


def _parse_secret(spec: str) -> Tuple[int, int]:
    try:
        lo, hi = (int(part, 0) for part in spec.split(":"))
        return lo, hi
    except ValueError:
        raise AnalysisError(
            f"bad --secret range {spec!r}; want LO:HI (e.g. 0x4100:0x4110)")


def _repair_subject(subject: str, secrets: List[str]
                    ) -> Tuple[object, List[Tuple[int, int]],
                               Optional[Witness]]:
    """Resolve a ``--repair`` subject into (program, secret ranges, witness).

    A subject naming a gadget class (``pht``, optionally ``pht/same-key``)
    synthesizes that witness — the residual variant by default, since the
    sanitized one has nothing to repair; a path assembles a ``.s`` file
    whose secret ranges come from ``--secret``.
    """
    if os.path.exists(subject) or subject.endswith(".s"):
        from repro.isa.assembler import assemble
        with open(subject) as handle:
            program = assemble(handle.read())
        return program, [_parse_secret(s) for s in secrets], None
    kind_name, _, variant = subject.partition("/")
    kind = witness_kind(kind_name)
    residual = variant != variant_name(kind, residual=False)
    witness = synthesize(kind, residual=residual)
    if variant and witness.variant != variant:
        raise AnalysisError(
            f"unknown variant {variant!r} for {kind.value}; have "
            f"{[variant_name(kind, r) for r in (False, True)]}")
    return (witness.attack.builder_program, secret_ranges_of(witness.attack),
            witness)


def _repair(subject: str, defense: DefenseKind, secrets: List[str],
            emit: Optional[str]) -> int:
    program, secret_ranges, witness = _repair_subject(subject, secrets)
    label = witness.subject if witness is not None else \
        os.path.basename(subject)
    print(f"subject: {label}  (target defense: {defense.value})")
    for gadget in find_gadgets(program, secret_ranges):
        print(f"  {gadget.render()}")

    if witness is not None:
        baseline = run_attack_program(witness.attack, DefenseKind.NONE)
        target = run_attack_program(witness.attack, defense)
        print(f"dynamic before: baseline {'LEAKS' if baseline.leaked else 'blocked'}"
              f" ({baseline.cycles} cycles), {defense.value} "
              f"{'LEAKS' if target.leaked else 'blocked'} "
              f"({target.cycles} cycles)")

    result = repair_mod.plan(program, secret_ranges, defense=defense)
    print(result.render())
    if not result.fixes:
        print("nothing to repair: no gadget leaks under "
              f"{defense.value}")
        return 0 if result.verified else 1

    failures = 0 if result.verified else 1
    if witness is not None:
        repaired_attack = replace(witness.attack,
                                  builder_program=result.repaired)
        after = run_attack_program(repaired_attack, defense)
        verdict = "LEAKS" if after.leaked else "blocked"
        fault = " (attacker load faults on the tag check)" \
            if after.faulted else ""
        print(f"dynamic after: {defense.value} {verdict}{fault}")
        failures += int(after.leaked)

    registry = repair_mod.measure_overhead(result, subject=label)
    print()
    print(registry.render(title=f"repair overhead: {label}"))

    if emit:
        os.makedirs(emit, exist_ok=True)
        path = os.path.join(emit,
                            f"repaired-{label.replace('/', '-')}.s")
        with open(path, "w") as handle:
            handle.write(disassemble(result.repaired))
        print(f"wrote {path}")
    print(f"repair: {'PASS' if not failures else 'FAIL'}")
    return 1 if failures else 0


def _selftest(attacks: Optional[List[str]]) -> int:
    failures = 0

    # 1. Every generated workload yields a well-formed CFG.
    from repro.workloads.generator import generate
    from repro.workloads.spec import SPEC_PROFILES
    for profile in SPEC_PROFILES[:4]:
        for seed in (0, 1):
            workload = generate(profile, seed=seed, target_instructions=1500)
            problems = build_cfg(workload.program).check_well_formed()
            status = "ok" if not problems else "FAIL"
            print(f"cfg {profile.name}/seed{seed}: {status}")
            for problem in problems:
                print(f"  {problem}")
            failures += len(problems)

    # 2. Static verdicts reproduce the paper's Table 1 (incl. the implicit
    #    all-leak NONE baseline) without running the simulator.
    static = static_matrix(attacks)
    for mismatch in compare_to_expected(static):
        print(f"expected-table: {mismatch}")
        failures += 1
    print(f"static vs paper Table 1: "
          f"{'ok' if not compare_to_expected(static) else 'FAIL'}")

    # 3. Full live differential.
    code = _differential(attacks)
    failures += code

    # 4. One witness-confirm cell: the PHT residual must leak on the
    #    baseline AND under SpecASan, exactly as the static verdict says.
    witness = synthesize(WITNESS_KINDS[0], residual=True)
    checks, disagreements = confirm(
        witness, [DefenseKind.NONE, DefenseKind.SPECASAN])
    ok = not disagreements and all(c.dynamic_leaked for c in checks)
    print(f"witness-confirm {witness.subject}: {'ok' if ok else 'FAIL'}")
    for disagreement in disagreements:
        print(f"  {disagreement}")
    failures += 0 if ok else 1

    # 5. One repair-verify cell: repairing that witness must flip the
    #    static verdict, kill the simulated leak, and account the cycle
    #    overhead in the telemetry registry.
    result = repair_mod.plan(witness.attack.builder_program,
                             secret_ranges_of(witness.attack))
    after = run_attack_program(
        replace(witness.attack, builder_program=result.repaired),
        DefenseKind.SPECASAN)
    registry = repair_mod.measure_overhead(result, subject=witness.subject)
    accounted = f"repair.{witness.subject.replace('/', '-')}.overhead" \
        in registry
    ok = result.verified and bool(result.fixes) and not after.leaked \
        and accounted
    print(f"repair-verify {witness.subject}: {'ok' if ok else 'FAIL'} "
          f"({len(result.fixes)} fix(es), static "
          f"{'sanitized' if result.verified else 'LEAKS'}, simulator "
          f"{'blocked' if not after.leaked else 'LEAKS'})")
    failures += 0 if ok else 1

    print(f"selftest: {'PASS' if not failures else 'FAIL'}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static speculative-leakage analysis (spec-lint).")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--report", nargs="?", const="", default=None,
                      metavar="FILE.s",
                      help="print the gadget report and static matrix "
                           "(default); with FILE.s, lint that source "
                           "file instead (use --secret for its secret "
                           "ranges); degenerate programs are refused "
                           "with CFG diagnostics (exit 2)")
    mode.add_argument("--differential", action="store_true",
                      help="also run the simulator and diff the matrices")
    mode.add_argument("--witness", action="store_true",
                      help="synthesize per-gadget-class witnesses and "
                           "confirm them against the simulator")
    mode.add_argument("--repair", metavar="SUBJECT",
                      help="repair a witness (e.g. pht, stl/untagged) or a "
                           ".s file; print fixes and the overhead table")
    mode.add_argument("--selftest", action="store_true",
                      help="CI gate: CFG property + expected-table + "
                           "differential + witness-confirm + repair-verify")
    parser.add_argument("--attack", action="append", choices=TABLE1_ROWS,
                        help="restrict to one attack (repeatable)")
    parser.add_argument("--kind", action="append",
                        choices=[k.value for k in WITNESS_KINDS],
                        help="restrict --witness to one gadget class "
                             "(repeatable)")
    parser.add_argument("--confirm", action="store_true",
                        help="with --differential: dynamically execute "
                             "every disagreeing cell")
    parser.add_argument("--defense", default=DefenseKind.SPECASAN.value,
                        choices=sorted(DEFENSE_NAMES),
                        help="target defense for --repair "
                             "(default: specasan)")
    parser.add_argument("--secret", action="append", default=[],
                        metavar="LO:HI",
                        help="secret address range for --repair on a .s "
                             "file (repeatable)")
    parser.add_argument("--emit", metavar="DIR",
                        help="write witness / repaired .s files to DIR")
    args = parser.parse_args(argv)

    try:
        if args.selftest:
            return _selftest(args.attack)
        if args.differential:
            return _differential(args.attack, confirm_cells=args.confirm)
        if args.witness:
            return _witness(args.kind, args.emit)
        if args.repair:
            return _repair(args.repair, DEFENSE_NAMES[args.defense],
                           args.secret, args.emit)
        if args.report:
            return _report_file(args.report, args.secret)
        return _report(args.attack)
    except AnalysisError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
