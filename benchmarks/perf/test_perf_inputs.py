"""Seeded inputs and the correctness checks."""

import json

import metrics as m
import work
from repro.checkpoint import program_fingerprint


def _sim(seed):
    return program_fingerprint([p for _, p in work.sim_inputs(
        seed, profiles=("505.mcf_r",), instructions=300)])


def _lint(seed):
    inputs = work.lint_inputs(seed, programs=6, edits=3)
    return m.sha256_json(
        [(label, program_fingerprint(p), ranges)
         for label, p, ranges in inputs["phase1"] + inputs["edits"]])


def _service(seed):
    return json.dumps(work.service_inputs(seed, fresh=6, confirms=2,
                                          repeats=8), sort_keys=True)


class TestSeedDeterminism:
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for make in (_sim, _lint, _service):
            assert make(7) == make(7), make.__name__
            assert make(7) != make(8), make.__name__

    def test_campaign_inputs_follow_the_seed(self):
        cells = work.campaign_config(5).build_cells()
        assert len(cells) == 15
        assert {c.seed for c in cells} == {5}
        assert work.campaign_argv(5, "d") != work.campaign_argv(6, "d")

    def test_lint_candidates_are_distinct(self):
        from repro.rng import stream
        sources = [source for _, source, _, _ in
                   work.candidates(stream(3, "t"), 40)]
        assert len(set(sources)) == 40

    def test_service_repeats_name_answered_requests(self):
        inputs = work.service_inputs(11, fresh=10, confirms=3, repeats=12)
        assert sum(1 for r in inputs["requests"] if r.get("confirm")) == 3
        fresh_seen = []
        repeats = 0
        for schedule in inputs["schedules"]:
            answered = set()
            assert schedule[0][0] == "fresh"
            for kind, index in schedule:
                if kind == "fresh":
                    assert index not in answered
                    answered.add(index)
                    fresh_seen.append(index)
                else:
                    assert index in answered
                    repeats += 1
        assert sorted(fresh_seen) == list(range(10)) and repeats == 12


CLEAN = """
    MOV X1, #0x4100
    LDR X2, [X1]
    HALT
"""


class TestChecks:
    def _records(self, verdicts, cached=True):
        request = {"op": "lint", "source": CLEAN,
                   "secret_ranges": [[0x4100, 0x4110]]}
        fresh = {"ok": True, "verdicts": verdicts, "gadgets": [],
                 "tier": "static", "degraded": False}
        repeat = dict(fresh, cached=cached)
        inputs = {"requests": [request]}
        return inputs, [("fresh", 0, 0.0, 1.0, fresh),
                        ("repeat", 0, 0.0, 1.0, repeat)]

    def test_service_check_accepts_the_true_verdict(self):
        verdicts, _ = work.reference_verdicts(
            {"source": CLEAN, "secret_ranges": [[0x4100, 0x4110]]})
        run = work.Run("service", 0)
        work.check_service(run, *self._records(verdicts))
        assert run.failed == 0 and run.attempted == 5

    def test_service_check_fails_on_a_wrong_verdict(self):
        verdicts, _ = work.reference_verdicts(
            {"source": CLEAN, "secret_ranges": [[0x4100, 0x4110]]})
        wrong = dict(verdicts, none=not verdicts["none"])
        run = work.Run("service", 0)
        work.check_service(run, *self._records(wrong))
        assert run.failed == 1
        assert "verdict differs" in run.failures[0]

    def test_service_check_fails_on_an_uncached_repeat(self):
        verdicts, _ = work.reference_verdicts(
            {"source": CLEAN, "secret_ranges": [[0x4100, 0x4110]]})
        run = work.Run("service", 0)
        work.check_service(run, *self._records(verdicts, cached=False))
        assert run.failed == 1 and "not served from cache" in run.failures[0]

    def test_interpreter_check_fails_on_the_wrong_reference(self):
        from repro.isa.assembler import assemble
        ran = assemble("MOV X0, #41\nADD X0, X0, #1\nHALT")
        other = assemble("MOV X0, #41\nADD X0, X0, #2\nHALT")
        system, _ = work._simulate(ran, slice_cycles=4)
        run = work.Run("sim-mem", 0)
        work.check_against_interpreter(run, "same", system, ran)
        assert run.failed == 0
        work.check_against_interpreter(run, "other", system, other)
        assert run.failed == 1 and run.failures[0].startswith("other")
