"""Differential validation: static spec-lint verdicts vs the live simulator.

:func:`static_matrix` rebuilds every Table-1 PoC, runs the static analyzer
over each variant, and folds :func:`~repro.analysis.gadgets.leaks_under`
into the same :class:`~repro.attacks.matrix.Mitigation` classification the
dynamic harness produces.  :func:`compare_matrices` diffs the two cell by
cell; :func:`render_differential` prints a lint-style report that names the
gadget instruction addresses behind each static verdict.

A mismatch means either the analyzer lost precision (record it in
``ALLOWLIST`` with the reason) or one of the two sides has a bug — the
whole point of the harness.  The allowlist ships empty: the current
analyzer agrees with the simulator on every (attack, defense) cell,
including the implicit all-leak ``NONE`` baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.gadgets import Gadget, find_gadgets, program_leaks
from repro.attacks import REGISTRY, TABLE1_ROWS, build_variants
from repro.attacks.common import AttackProgram
from repro.attacks.matrix import (
    EXPECTED,
    TABLE1_DEFENSES,
    MatrixCell,
    Mitigation,
)
from repro.config import CORTEX_A76, CoreConfig, DefenseKind

#: Columns the static matrix evaluates: Table 1 plus the unsafe baseline.
STATIC_DEFENSES: List[DefenseKind] = [DefenseKind.NONE] + list(TABLE1_DEFENSES)

#: (attack, defense) cells where static and dynamic verdicts are *known* to
#: disagree, mapped to the documented precision-loss reason.  Empty: the
#: analyzer currently reproduces every cell.
ALLOWLIST: Dict[Tuple[str, DefenseKind], str] = {}


@dataclass
class VariantAnalysis:
    """Static findings for one PoC variant."""

    attack: str
    variant: str
    program: AttackProgram
    gadgets: List[Gadget]

    def leaks(self, defense: DefenseKind) -> bool:
        return program_leaks(self.gadgets, defense)


@dataclass
class StaticCell:
    """One statically-derived Table-1 cell."""

    attack: str
    defense: DefenseKind
    mitigation: Mitigation
    #: Per-variant leak verdicts, in REGISTRY order.
    leaks: List[bool] = field(default_factory=list)


@dataclass(frozen=True)
class Mismatch:
    """A (attack, defense) cell where the two matrices disagree."""

    attack: str
    defense: DefenseKind
    static: Mitigation
    dynamic: Mitigation
    allowlisted: Optional[str] = None

    def __str__(self) -> str:
        note = f" (allowlisted: {self.allowlisted})" if self.allowlisted else ""
        return (f"{self.attack} under {self.defense.value}: static says "
                f"{self.static.value}, simulator says {self.dynamic.value}"
                f"{note}")


def analyze_attack(attack: str,
                   core: Optional[CoreConfig] = None,
                   ) -> List[VariantAnalysis]:
    """Run the static analyzer over every variant of ``attack``."""
    core = core or CORTEX_A76.core
    analyses = []
    for (variant, _), program in zip(REGISTRY[attack], build_variants(attack)):
        secret_ranges = [(program.secret_address,
                          program.secret_address + program.secret_size)]
        gadgets = find_gadgets(program.builder_program, secret_ranges, core)
        analyses.append(VariantAnalysis(attack, variant, program, gadgets))
    return analyses


def _classify(leaks: Sequence[bool]) -> Mitigation:
    if not any(leaks):
        return Mitigation.FULL
    if all(leaks):
        return Mitigation.NONE
    return Mitigation.PARTIAL


def static_matrix(attacks: Optional[List[str]] = None,
                  defenses: Optional[List[DefenseKind]] = None,
                  core: Optional[CoreConfig] = None,
                  ) -> Dict[str, Dict[DefenseKind, StaticCell]]:
    """The Table-1 matrix as the static analyzer predicts it."""
    attacks = attacks or TABLE1_ROWS
    defenses = defenses or STATIC_DEFENSES
    matrix: Dict[str, Dict[DefenseKind, StaticCell]] = {}
    for attack in attacks:
        analyses = analyze_attack(attack, core)
        matrix[attack] = {}
        for defense in defenses:
            leaks = [analysis.leaks(defense) for analysis in analyses]
            matrix[attack][defense] = StaticCell(
                attack, defense, _classify(leaks), leaks)
    return matrix


def compare_matrices(static: Dict[str, Dict[DefenseKind, StaticCell]],
                     dynamic: Dict[str, Dict[DefenseKind, MatrixCell]],
                     allowlist: Optional[Dict[Tuple[str, DefenseKind], str]]
                     = None) -> List[Mismatch]:
    """Cell-by-cell diff over the cells both matrices cover."""
    allowlist = ALLOWLIST if allowlist is None else allowlist
    mismatches = []
    for attack, static_row in static.items():
        dynamic_row = dynamic.get(attack, {})
        for defense, cell in static_row.items():
            lived = dynamic_row.get(defense)
            if lived is None or cell.mitigation is lived.mitigation:
                continue
            mismatches.append(Mismatch(
                attack, defense, cell.mitigation, lived.mitigation,
                allowlisted=allowlist.get((attack, defense))))
    return mismatches


def unexpected(mismatches: Sequence[Mismatch]) -> List[Mismatch]:
    """Mismatches not covered by the allowlist (a failing differential)."""
    return [m for m in mismatches if m.allowlisted is None]


def compare_to_expected(static: Dict[str, Dict[DefenseKind, StaticCell]],
                        ) -> List[Mismatch]:
    """Diff static verdicts against the paper's hard-coded Table 1.

    Cheap cross-check that needs no simulation: ``EXPECTED`` covers the
    Table-1 defenses; the ``NONE`` baseline must be all-leak.
    """
    mismatches = []
    for attack, row in static.items():
        for defense, cell in row.items():
            if defense is DefenseKind.NONE:
                want = Mitigation.NONE
            elif defense in TABLE1_DEFENSES and attack in EXPECTED:
                want = EXPECTED[attack][TABLE1_DEFENSES.index(defense)]
            else:
                continue
            if cell.mitigation is not want:
                mismatches.append(Mismatch(attack, defense,
                                           cell.mitigation, want))
    return mismatches


def confirm_mismatches(mismatches: Sequence[Mismatch],
                       core: Optional[CoreConfig] = None,
                       ) -> List["WitnessDisagreement"]:
    """Dynamically execute every disagreeing cell, variant by variant.

    The matrix diff compares *classifications* (full/partial/none); this
    re-runs each variant of each mismatched cell individually on the
    simulator and diffs it against its own static verdict, so a table-level
    disagreement decomposes into structured per-variant
    :class:`~repro.analysis.witness.WitnessDisagreement` records — the same
    shape the witness confirmation loop emits, never a silent pass.
    """
    from repro.analysis.witness import WitnessDisagreement
    from repro.attacks.common import run_attack_program

    records: List[WitnessDisagreement] = []
    for mismatch in mismatches:
        for analysis in analyze_attack(mismatch.attack, core):
            static = analysis.leaks(mismatch.defense)
            outcome = run_attack_program(analysis.program, mismatch.defense)
            if static == outcome.leaked:
                continue
            records.append(WitnessDisagreement(
                subject=f"{analysis.attack}/{analysis.variant}",
                kind=analysis.gadgets[0].kind.value
                if analysis.gadgets else "?",
                defense=mismatch.defense, static_leaks=static,
                dynamic_leaked=outcome.leaked,
                detail=f"recovered={list(outcome.recovered)}"
                       f"{', faulted' if outcome.faulted else ''}"))
    return records


def render_static(matrix: Dict[str, Dict[DefenseKind, StaticCell]]) -> str:
    """Format the static matrix like the paper's Table 1."""
    defenses = [d for d in next(iter(matrix.values()))
                if d is not DefenseKind.NONE]
    header = f"{'Attack':16s}" + "".join(
        f"{d.value:>14s}" for d in defenses)
    lines = [header, "-" * len(header)]
    for attack, row in matrix.items():
        marks = "".join(f"{row[d].mitigation.symbol:>14s}" for d in defenses)
        lines.append(f"{attack:16s}{marks}")
    return "\n".join(lines)


def render_report(attacks: Optional[List[str]] = None,
                  core: Optional[CoreConfig] = None) -> str:
    """The lint report: every gadget of every PoC, with addresses."""
    lines = []
    for attack in attacks or TABLE1_ROWS:
        for analysis in analyze_attack(attack, core):
            lines.append(f"{analysis.attack}/{analysis.variant}:")
            if not analysis.gadgets:
                lines.append("  (no gadgets found)")
            for gadget in analysis.gadgets:
                lines.append(f"  {gadget.render()}")
    return "\n".join(lines)


def render_differential(static: Dict[str, Dict[DefenseKind, StaticCell]],
                        dynamic: Dict[str, Dict[DefenseKind, MatrixCell]],
                        mismatches: Sequence[Mismatch]) -> str:
    """Human-readable verdict of a static-vs-dynamic comparison."""
    lines = [render_static(static), ""]
    cells = sum(1 for row in static.values()
                for d in row if d in next(iter(dynamic.values()), {}))
    if not mismatches:
        lines.append(f"differential: all {cells} cells agree "
                     f"with the simulator")
    else:
        lines.append(f"differential: {len(mismatches)} of {cells} cells "
                     f"disagree:")
        lines.extend(f"  {m}" for m in mismatches)
        bad = unexpected(mismatches)
        lines.append("FAIL: non-allowlisted mismatches remain"
                     if bad else "ok: every mismatch is allowlisted")
    return "\n".join(lines)
