"""The differential executor: spec-lint vs. the simulator, candidate by
candidate.

One :class:`FuzzExecutor` owns the coverage map, the mutation parent
pool, and the run statistics for a (seeded) stream of candidates:

1. **Draw** — candidate *k* gets its own RNG stream
   (``stream(seed, "fuzz", "cand", k)``); after a warm-up prefix the
   engine prefers mutating a coverage-proven parent over fresh sampling.
2. **Lint** — the candidate's round-tripped program goes through
   :func:`~repro.analysis.gadgets.find_gadgets` with the
   :mod:`repro.analysis.hooks` coverage sink installed; the per-defense
   static verdict is the channel-filtered ``any(leaks_under(g, d))``.
3. **Execute** — the simulator oracle
   (:func:`~repro.attacks.common.run_attack_program`) is *coverage
   gated*: candidates that light up new analyzer features always run,
   the rest run every ``sim_every``-th draw, so simulator time
   concentrates where the analyzer is seeing new shapes.
4. **Triage** — a verdict mismatch is classified **soundness** (static
   safe, simulator leaks — the analyzer missed a gadget) or
   **precision** (static leak, simulator clean — the analyzer
   over-approximated), shrunk by :mod:`repro.fuzz.minimize`, and
   recorded as a replayable :class:`Disagreement`.
5. **Repair audit** — a budgeted slice of statically-leaking candidates
   additionally goes through :func:`repro.analysis.repair.plan`; a
   "repaired" program that still leaks (statically on the re-lint or
   dynamically on the simulator) is a repair-soundness finding, same
   triage path.

Disagreements are the *product*, never exceptions
(:class:`~repro.errors.FuzzError` stays reserved for harness failures);
a clean analyzer yields an empty ``disagreements`` list and a grown
coverage frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import hooks
from repro.analysis import repair as repair_mod
from repro.analysis.gadgets import Gadget, find_gadgets, leaks_under
from repro.attacks.common import run_attack_program
from repro.config import DefenseKind
from repro.errors import AnalysisError, FuzzError, SimulationError
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.generator import (
    build,
    CandidateSpec,
    FuzzCandidate,
    GeneratorBias,
    mutate,
    sample_spec,
)
from repro.fuzz.minimize import minimize_source
from repro.rng import stream
from repro.telemetry.registry import StatsRegistry

#: Default oracle pair: the undefended baseline plus the paper's defense.
DEFAULT_DEFENSES = (DefenseKind.NONE, DefenseKind.SPECASAN)

#: Disagreement kinds (the triage classification).
SOUNDNESS = "soundness"    # static safe, simulator leaks
PRECISION = "precision"    # static leaks, simulator clean
REPAIR_UNSOUND = "repair-unsound"  # "repaired" program still leaks


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzzing run's knobs (all deterministic given ``seed``)."""

    seed: int = 0xA5A5
    budget: int = 500
    defenses: Tuple[DefenseKind, ...] = DEFAULT_DEFENSES
    #: Simulate every Nth candidate even without new coverage.
    sim_every: int = 4
    #: Fresh-sample prefix before mutation kicks in.
    warmup: int = 32
    #: Mutation-parent pool cap (oldest evicted first).
    max_parents: int = 256
    #: Probability a post-warm-up candidate mutates a parent.
    mutate_prob: float = 0.7
    #: Repair-audit slots per run (each costs a plan + re-lint + sim).
    repair_budget: int = 4
    #: Cap on minimized findings per run (each costs a ddmin pass); extra
    #: equivalent-signature hits are counted, not re-shrunk.
    max_findings: int = 16
    #: Minimizer evaluation cap per disagreement.
    minimize_evals: int = 300
    #: Analyzer defects (:data:`repro.analysis.hooks.KNOWN_BUGS`) injected
    #: for the whole run — the smoke drill's lever; recorded in every
    #: finding so replay reinstates the same analyzer.
    inject: Tuple[str, ...] = ()
    bias: GeneratorBias = field(default_factory=GeneratorBias)

    def __post_init__(self) -> None:
        if self.sim_every < 1:
            raise FuzzError(f"sim_every must be at least 1, "
                            f"not {self.sim_every}")
        if self.budget < 0:
            raise FuzzError(f"budget must not be negative, not {self.budget}")

    def to_dict(self) -> dict:
        return {"seed": self.seed, "budget": self.budget,
                "defenses": [d.value for d in self.defenses],
                "sim_every": self.sim_every, "warmup": self.warmup,
                "max_parents": self.max_parents,
                "mutate_prob": self.mutate_prob,
                "repair_budget": self.repair_budget,
                "max_findings": self.max_findings,
                "minimize_evals": self.minimize_evals,
                "inject": sorted(self.inject),
                "bias": {"barrier_bias": self.bias.barrier_bias,
                         "contention_bias": self.bias.contention_bias}}

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzConfig":
        return cls(seed=int(data["seed"]), budget=int(data["budget"]),
                   defenses=tuple(DefenseKind(d) for d in data["defenses"]),
                   sim_every=int(data["sim_every"]),
                   warmup=int(data["warmup"]),
                   max_parents=int(data["max_parents"]),
                   mutate_prob=float(data["mutate_prob"]),
                   repair_budget=int(data["repair_budget"]),
                   max_findings=int(data.get("max_findings", 16)),
                   minimize_evals=int(data["minimize_evals"]),
                   inject=tuple(data.get("inject", ())),
                   bias=GeneratorBias(
                       barrier_bias=bool(data["bias"]["barrier_bias"]),
                       contention_bias=bool(data["bias"]["contention_bias"])))


@dataclass
class Disagreement:
    """One triaged, minimized analyzer/simulator divergence."""

    kind: str                      # SOUNDNESS / PRECISION / REPAIR_UNSOUND
    defense: DefenseKind
    static_leaked: bool
    dynamic_leaked: bool
    spec: CandidateSpec
    #: The minimized ``.s`` reproducer (assembles and still disagrees).
    source_text: str
    secret_ranges: List[Tuple[int, int]]
    channel: str
    benign_values: List[int]
    secret_value: int
    secret_address: int
    original_lines: int
    minimized_lines: int
    #: Analyzer defects that were injected when this finding was made
    #: (empty for a genuine analyzer bug; replay reinstates these).
    injected: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "defense": self.defense.value,
                "static_leaked": self.static_leaked,
                "dynamic_leaked": self.dynamic_leaked,
                "spec": self.spec.to_dict(),
                "secret_ranges": [list(r) for r in self.secret_ranges],
                "channel": self.channel,
                "benign_values": list(self.benign_values),
                "secret_value": self.secret_value,
                "secret_address": self.secret_address,
                "original_lines": self.original_lines,
                "minimized_lines": self.minimized_lines,
                "injected": sorted(self.injected)}

    def render(self) -> str:
        return (f"[{self.kind}] {self.spec.label} under "
                f"{self.defense.value}: static="
                f"{'leak' if self.static_leaked else 'safe'} "
                f"dynamic={'leak' if self.dynamic_leaked else 'safe'} "
                f"({self.original_lines} -> {self.minimized_lines} lines)")


def static_verdict(gadgets: Sequence[Gadget], channel: str,
                   defense: DefenseKind) -> bool:
    """Does spec-lint predict a ``channel`` leak under ``defense``?

    The simulator's oracle observes exactly one channel per program
    (probe-array recovery or contention events), so only gadgets able to
    transmit on that channel count toward the static prediction.
    """
    relevant = [g for g in gadgets
                if channel in {c.value for c in g.channels}]
    return any(leaks_under(g, defense) for g in relevant)


@dataclass
class FuzzResult:
    """What one executor run produced (the corpus layer persists it)."""

    config: FuzzConfig
    coverage: CoverageMap
    disagreements: List[Disagreement]
    #: Coverage-novel specs, in admission order (the replayable corpus).
    admitted: List[CandidateSpec]
    executed: int = 0
    simulated: int = 0
    build_errors: int = 0
    sim_errors: int = 0
    repair_audits: int = 0
    repair_skips: int = 0


class FuzzExecutor:
    """Drives draws 0..budget-1 of one :class:`FuzzConfig`."""

    def __init__(self, config: FuzzConfig,
                 registry: Optional[StatsRegistry] = None):
        self.config = config
        self.coverage = CoverageMap()
        self.parents: List[CandidateSpec] = []
        self.disagreements: List[Disagreement] = []
        self.admitted: List[CandidateSpec] = []
        self._seen_specs: set = set()
        self._finding_keys: set = set()
        self._repair_spent = 0
        registry = registry if registry is not None else StatsRegistry()
        scope = registry.scope("fuzz")
        self.stats: Dict[str, object] = {}
        for name, desc in (
                ("executed", "candidates drawn and linted"),
                ("mutated", "candidates produced by mutation"),
                ("simulated", "candidates run on the simulator"),
                ("sim_skipped", "simulator runs elided (coverage gate)"),
                ("new_coverage", "candidates that lit new analyzer features"),
                ("build_errors", "specs the generator failed to build"),
                ("sim_errors", "simulator runs that raised (counted, "
                               "not fatal)"),
                ("disagreements", "minimized analyzer/simulator divergences"),
                ("dup_findings", "disagreements deduplicated by signature"),
                ("repair_audits", "repair soundness audits performed"),
                ("repair_findings", "repair audits that found unsoundness")):
            self.stats[name] = scope.scalar(name, desc)
        scope.formula("frontier", lambda: self.coverage.frontier,
                      "distinct analyzer features ever observed")
        self.registry = registry

    # -- candidate stream -------------------------------------------------

    def _draw(self, k: int) -> Optional[CandidateSpec]:
        rng = stream(self.config.seed, "fuzz", "cand", k)
        if (k >= self.config.warmup and self.parents
                and rng.random() < self.config.mutate_prob):
            parent = rng.choice(self.parents)
            spec = mutate(parent, rng, donors=self.parents)
            if spec is not None:
                self.stats["mutated"].inc()  # type: ignore[union-attr]
                return spec
        return sample_spec(rng, self.config.bias)

    def _admit(self, spec: CandidateSpec) -> None:
        key = repr(spec.to_dict())
        if key in self._seen_specs:
            return
        self._seen_specs.add(key)
        self.admitted.append(spec)
        self.parents.append(spec)
        if len(self.parents) > self.config.max_parents:
            del self.parents[0]

    # -- oracles ----------------------------------------------------------

    def _lint(self, candidate: FuzzCandidate
              ) -> Tuple[List[Gadget], List[str]]:
        """Static oracle with the coverage sink installed."""
        with hooks.coverage(self.coverage.observe):
            gadgets = find_gadgets(candidate.attack.builder_program,
                                   candidate.secret_ranges)
        return gadgets, self.coverage.commit()

    def _execute(self, candidate: FuzzCandidate,
                 defense: DefenseKind) -> Optional[bool]:
        """Dynamic oracle; ``None`` when the simulator itself failed."""
        try:
            return run_attack_program(candidate.attack, defense).leaked
        except SimulationError:
            self.stats["sim_errors"].inc()  # type: ignore[union-attr]
            return None

    # -- triage -----------------------------------------------------------

    def _finding_key(self, candidate: FuzzCandidate, defense: DefenseKind,
                     kind: str) -> Tuple:
        """Equivalence signature: one minimized reproducer per bug shape.

        Two candidates differing only in training length or pad depth
        exercise the same analyzer defect; re-shrinking each would burn
        a ddmin pass per duplicate (the drill's biased generator mints
        dozens).  Template identity plus the leak-relevant knobs is the
        right granularity: residual/barrier/flip each select different
        verdict logic in the analyzer.
        """
        sections = tuple((s.template, s.residual, s.barrier, s.flip)
                         for s in candidate.spec.sections)
        return (kind, defense.value, sections)

    def _triage(self, candidate: FuzzCandidate, defense: DefenseKind,
                static_leaked: bool, dynamic_leaked: bool,
                kind: Optional[str] = None) -> None:
        kind = kind or (SOUNDNESS if dynamic_leaked else PRECISION)
        key = self._finding_key(candidate, defense, kind)
        if (key in self._finding_keys
                or len(self.disagreements) >= self.config.max_findings):
            self.stats["dup_findings"].inc()  # type: ignore[union-attr]
            return
        self._finding_keys.add(key)
        minimized = minimize_source(
            candidate, defense,
            static_leaked=static_leaked, dynamic_leaked=dynamic_leaked,
            max_evals=self.config.minimize_evals)
        self.disagreements.append(Disagreement(
            kind=kind, defense=defense,
            static_leaked=static_leaked, dynamic_leaked=dynamic_leaked,
            spec=candidate.spec, source_text=minimized.text,
            secret_ranges=list(candidate.secret_ranges),
            channel=candidate.attack.channel,
            benign_values=list(candidate.attack.benign_values),
            secret_value=candidate.attack.secret_value,
            secret_address=candidate.attack.secret_address,
            original_lines=minimized.original_lines,
            minimized_lines=minimized.minimized_lines,
            injected=sorted(self.config.inject)))
        self.stats["disagreements"].inc()  # type: ignore[union-attr]

    def _audit_repair(self, candidate: FuzzCandidate,
                      defense: DefenseKind) -> None:
        """Fuzz the repair pipeline's soundness on a leaking candidate.

        ``plan`` promises a program that no longer leaks under
        ``defense``; hold it to that with both oracles.  An
        :class:`AnalysisError` (no sufficient fix exists) is a legitimate
        refusal, not a finding.
        """
        if self._repair_spent >= self.config.repair_budget:
            return
        self._repair_spent += 1
        self.stats["repair_audits"].inc()  # type: ignore[union-attr]
        program = candidate.attack.builder_program
        try:
            result = repair_mod.plan(program, candidate.secret_ranges,
                                     defense=defense)
        except AnalysisError:
            return
        repaired_attack = replace(candidate.attack,
                                  builder_program=result.repaired)
        repaired = FuzzCandidate(
            spec=candidate.spec, attack=repaired_attack,
            secret_ranges=candidate.secret_ranges,
            source_text=candidate.source_text)
        static_after = static_verdict(
            find_gadgets(result.repaired, candidate.secret_ranges),
            candidate.attack.channel, defense)
        dynamic_after = self._execute(repaired, defense)
        if static_after or dynamic_after:
            self.stats["repair_findings"].inc()  # type: ignore[union-attr]
            self._triage(repaired, defense,
                         static_leaked=static_after,
                         dynamic_leaked=bool(dynamic_after),
                         kind=REPAIR_UNSOUND)

    # -- the run ----------------------------------------------------------

    def step(self, k: int) -> None:
        """Draw, lint, (maybe) execute, and triage candidate ``k``."""
        spec = self._draw(k)
        if spec is None:  # mutation dead-ends cannot happen today, but
            return        # the stream must stay aligned if they ever do
        self.stats["executed"].inc()  # type: ignore[union-attr]
        try:
            candidate = build(spec)
        except FuzzError:
            self.stats["build_errors"].inc()  # type: ignore[union-attr]
            return
        gadgets, new_features = self._lint(candidate)
        if new_features:
            self.stats["new_coverage"].inc()  # type: ignore[union-attr]
            self._admit(spec)
        simulate = bool(new_features) or k % self.config.sim_every == 0
        if not simulate:
            self.stats["sim_skipped"].inc()  # type: ignore[union-attr]
            return
        channel = candidate.attack.channel
        audited = False
        for defense in self.config.defenses:
            static_leaked = static_verdict(gadgets, channel, defense)
            dynamic_leaked = self._execute(candidate, defense)
            self.stats["simulated"].inc()  # type: ignore[union-attr]
            if dynamic_leaked is None:
                continue
            if static_leaked != dynamic_leaked:
                self._triage(candidate, defense, static_leaked,
                             dynamic_leaked)
            elif (static_leaked and not audited
                    and defense is not DefenseKind.NONE):
                audited = True
                self._audit_repair(candidate, defense)

    def run(self, on_step=None) -> FuzzResult:
        """Drive the full budget; ``on_step(k)`` pulses after each draw
        (the campaign worker's heartbeat hook)."""
        with hooks.inject(*self.config.inject):
            for k in range(self.config.budget):
                self.step(k)
                if on_step is not None:
                    on_step(k)
        return FuzzResult(
            config=self.config, coverage=self.coverage,
            disagreements=self.disagreements, admitted=self.admitted,
            executed=int(self.stats["executed"].value),      # type: ignore
            simulated=int(self.stats["simulated"].value),    # type: ignore
            build_errors=int(self.stats["build_errors"].value),  # type: ignore
            sim_errors=int(self.stats["sim_errors"].value),  # type: ignore
            repair_audits=int(self.stats["repair_audits"].value),  # type: ignore
            repair_skips=self.config.repair_budget - self._repair_spent)

