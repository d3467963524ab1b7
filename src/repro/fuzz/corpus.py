"""The durable, replayable corpus store of one fuzzing run.

A run directory is the complete record of a campaign shard or a local
run::

    manifest.json        schema tag + the exact FuzzConfig
    coverage.json        the CoverageMap (feature -> hit count)
    corpus.jsonl         admitted specs, checksummed, in admission order
    regressions.jsonl    triaged disagreements, checksummed
    regressions/reg-NNNN.s   one minimized reproducer per finding

Durability is :mod:`repro.store`'s protocol (DESIGN.md § "Durable
state"): every file lands through :func:`~repro.store.atomic_write`, and
every JSONL line is a checksummed record, so :func:`load_run` can
attribute a flipped bit to the line it hit.  Loading is
corruption-*tolerant* (corrupt lines are counted and skipped) — except the
manifest, which fails closed via :class:`~repro.errors.FuzzError`: a run
directory whose config cannot be trusted must not be resumed or merged.

Because candidate generation is a pure function of ``(seed, draw
index)``, the corpus stores *specs*, not programs: :func:`replay` and the
regression re-check rebuild byte-identical ``.s`` text on demand, which
is also what the determinism drill (:func:`run_digest`) relies on.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis import hooks
from repro.analysis.gadgets import find_gadgets
from repro.attacks.common import AttackProgram, run_attack_program
from repro.config import DefenseKind
from repro.errors import FuzzError, ReproError
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.executor import (
    Disagreement,
    FuzzConfig,
    FuzzResult,
    static_verdict,
)
from repro.fuzz.generator import CandidateSpec
from repro.isa.assembler import assemble
from repro.store import (atomic_write, canonical, load_manifest, load_records,
                         write_records)

#: Corpus schema tag; bump on any incompatible layout change.
FUZZ_SCHEMA = "repro-fuzz/2"

MANIFEST = "manifest.json"
COVERAGE = "coverage.json"
CORPUS = "corpus.jsonl"
REGRESSIONS = "regressions.jsonl"
REGRESSION_DIR = "regressions"


# -- saving -------------------------------------------------------------------


def regression_filename(index: int) -> str:
    return f"reg-{index:04d}.s"


def save_run(directory: str, result: FuzzResult) -> None:
    """Persist one executor run as a complete, replayable run directory."""
    os.makedirs(os.path.join(directory, REGRESSION_DIR), exist_ok=True)
    atomic_write(os.path.join(directory, MANIFEST), canonical(
        {"schema": FUZZ_SCHEMA, "config": result.config.to_dict(),
         "executed": result.executed, "simulated": result.simulated,
         "build_errors": result.build_errors,
         "sim_errors": result.sim_errors}) + "\n")
    atomic_write(os.path.join(directory, COVERAGE),
                 canonical(result.coverage.to_dict()) + "\n")
    write_records(os.path.join(directory, CORPUS), (
        {"schema": FUZZ_SCHEMA, "id": k, "spec": spec.to_dict()}
        for k, spec in enumerate(result.admitted)))
    records = []
    for index, finding in enumerate(result.disagreements):
        name = regression_filename(index)
        atomic_write(os.path.join(directory, REGRESSION_DIR, name),
                     finding.source_text)
        records.append({**finding.to_dict(), "schema": FUZZ_SCHEMA,
                        "file": f"{REGRESSION_DIR}/{name}"})
    write_records(os.path.join(directory, REGRESSIONS), records)


# -- loading ------------------------------------------------------------------


class LoadedRun:
    """One run directory, parsed and integrity-checked."""

    def __init__(self, directory: str, manifest: dict,
                 coverage: CoverageMap, specs: List[CandidateSpec],
                 regressions: List[dict], corrupt: int):
        self.directory = directory
        self.manifest = manifest
        self.coverage = coverage
        self.specs = specs
        self.regressions = regressions
        self.corrupt = corrupt

    @property
    def config(self) -> FuzzConfig:
        return FuzzConfig.from_dict(self.manifest["config"])


def load_run(directory: str) -> LoadedRun:
    """Load a run directory; corrupt JSONL lines are skipped and counted.

    Raises :class:`FuzzError` when the manifest is missing, unreadable,
    or carries a different schema — a config that cannot be trusted
    poisons everything derived from it.
    """
    manifest = load_manifest(os.path.join(directory, MANIFEST), FUZZ_SCHEMA,
                             FuzzError)
    try:
        with open(os.path.join(directory, COVERAGE),
                  encoding="utf-8") as handle:
            coverage = CoverageMap.from_dict(json.load(handle))
    except (OSError, json.JSONDecodeError, AttributeError):
        coverage = CoverageMap()
    corpus_records, rejects = load_records(os.path.join(directory, CORPUS),
                                           FUZZ_SCHEMA)
    corrupt = len(rejects)
    specs = []
    for record in corpus_records:
        try:
            specs.append(CandidateSpec.from_dict(record["spec"]))
        except (FuzzError, KeyError, TypeError, ValueError):
            corrupt += 1
    regressions, rejects = load_records(os.path.join(directory, REGRESSIONS),
                                        FUZZ_SCHEMA)
    return LoadedRun(directory, manifest, coverage, specs, regressions,
                     corrupt=corrupt + len(rejects))


# -- replay -------------------------------------------------------------------


def regression_attack(record: dict, source_text: str) -> AttackProgram:
    """Rebuild the oracle-ready attack for one regression record."""
    return AttackProgram(
        name="fuzz-regression", variant=record["kind"],
        builder_program=assemble(source_text),
        secret_value=int(record["secret_value"]),
        secret_address=int(record["secret_address"]),
        channel=record["channel"],
        benign_values=[int(v) for v in record["benign_values"]],
        description="replayed minimized fuzz finding")


def replay_regression(directory: str, record: dict) -> Tuple[bool, str]:
    """Re-run one stored finding; ``(still_disagrees, detail)``.

    The stored verdict pair must reproduce *exactly*: same static
    verdict, same simulator verdict, same defense.  A finding that no
    longer reproduces is the signal CI wants after an analyzer fix — the
    committed regression should then be retired.
    """
    path = os.path.join(directory, record["file"])
    try:
        with open(path, encoding="utf-8") as handle:
            source_text = handle.read()
        attack = regression_attack(record, source_text)
        defense = DefenseKind(record["defense"])
        ranges = [(int(r[0]), int(r[1])) for r in record["secret_ranges"]]
        # Reinstate the analyzer the finding was made against: drill
        # regressions record their injected defects and only disagree
        # while those defects are live.
        with hooks.inject(*record.get("injected", ())):
            gadgets = find_gadgets(attack.builder_program, ranges)
            static = static_verdict(gadgets, attack.channel, defense)
        dynamic = run_attack_program(attack, defense).leaked
    except (OSError, KeyError, ValueError, ReproError) as err:
        return False, f"replay failed: {err}"
    if static != record["static_leaked"] or dynamic != record["dynamic_leaked"]:
        return False, (f"verdicts moved: static={static} "
                       f"dynamic={dynamic}, recorded "
                       f"static={record['static_leaked']} "
                       f"dynamic={record['dynamic_leaked']}")
    return True, (f"{record['kind']} under {record['defense']}: "
                  f"static={static} dynamic={dynamic}")


# -- merging / digests / export ----------------------------------------------


def merge_runs(out_dir: str, shard_dirs: Iterable[str],
               config: FuzzConfig) -> LoadedRun:
    """Deterministically fold shard run directories into ``out_dir``.

    Coverage counts add; corpus specs concatenate in shard order with
    exact duplicates dropped; regressions concatenate in shard order and
    re-number their reproducer files.  Shard order is the caller's (the
    campaign sorts by shard index), so the merged artifact is independent
    of completion timing.
    """
    coverage = CoverageMap()
    merged = FuzzResult(config=config, coverage=coverage,
                        disagreements=[], admitted=[])
    seen: set = set()
    for shard_dir in shard_dirs:
        run = load_run(shard_dir)
        coverage.merge(run.coverage)
        merged.executed += int(run.manifest.get("executed", 0))
        merged.simulated += int(run.manifest.get("simulated", 0))
        merged.build_errors += int(run.manifest.get("build_errors", 0))
        merged.sim_errors += int(run.manifest.get("sim_errors", 0))
        for spec in run.specs:
            key = canonical(spec.to_dict())
            if key not in seen:
                seen.add(key)
                merged.admitted.append(spec)
        for record in run.regressions:
            with open(os.path.join(shard_dir, record["file"]),
                      encoding="utf-8") as handle:
                text = handle.read()
            merged.disagreements.append(_record_to_disagreement(record, text))
    save_run(out_dir, merged)
    return load_run(out_dir)


def _record_to_disagreement(record: dict, source_text: str) -> Disagreement:
    return Disagreement(
        kind=record["kind"], defense=DefenseKind(record["defense"]),
        static_leaked=bool(record["static_leaked"]),
        dynamic_leaked=bool(record["dynamic_leaked"]),
        spec=CandidateSpec.from_dict(record["spec"]),
        source_text=source_text,
        secret_ranges=[(int(r[0]), int(r[1]))
                       for r in record["secret_ranges"]],
        channel=record["channel"],
        benign_values=[int(v) for v in record["benign_values"]],
        secret_value=int(record["secret_value"]),
        secret_address=int(record["secret_address"]),
        original_lines=int(record["original_lines"]),
        minimized_lines=int(record["minimized_lines"]),
        injected=[str(b) for b in record.get("injected", ())])


def run_digest(directory: str) -> str:
    """SHA-256 over every persisted artifact — the determinism witness.

    Two same-seed runs must produce byte-identical corpora; comparing
    digests is how the smoke drill (and any doubting user) checks it.
    """
    digest = hashlib.sha256()
    names = [MANIFEST, COVERAGE, CORPUS, REGRESSIONS]
    reg_dir = os.path.join(directory, REGRESSION_DIR)
    if os.path.isdir(reg_dir):
        names.extend(os.path.join(REGRESSION_DIR, n)
                     for n in sorted(os.listdir(reg_dir)))
    for name in names:
        digest.update(name.encode("utf-8") + b"\x00")
        try:
            with open(os.path.join(directory, name), "rb") as handle:
                digest.update(handle.read())
        except OSError:
            digest.update(b"<absent>")
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def export_requests(directory: str, out_path: str,
                    deadline_s: Optional[float] = None) -> int:
    """Write every minimized finding as a spec-lint service request.

    One ``op: lint`` JSON line per regression, carrying the minimized
    source, the recorded secret ranges, and the disagreement's defense —
    ready to pipe at ``repro.service`` for confirmation in the always-on
    deployment.  Returns the number of requests written.
    """
    run = load_run(directory)
    lines: List[str] = []
    for index, record in enumerate(run.regressions):
        with open(os.path.join(directory, record["file"]),
                  encoding="utf-8") as handle:
            source = handle.read()
        request: Dict[str, object] = {
            "id": f"fuzz-{index:04d}", "op": "lint", "source": source,
            "defense": record["defense"],
            "secret_ranges": [list(r) for r in record["secret_ranges"]],
            "confirm": True}
        if deadline_s is not None:
            request["deadline_s"] = deadline_s
        lines.append(json.dumps(request, sort_keys=True) + "\n")
    atomic_write(out_path, "".join(lines))
    return len(lines)
