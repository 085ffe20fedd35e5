"""Monitoring patterns and the sampling risk estimator."""

import pytest

from ltlguard.ltl import Verdict, parse
from ltlguard.models import RuleLabeler, ScriptedModel
from ltlguard.monitor import REFERENCE, ProgressionCache, new_state, step
from ltlguard.predictive import (
    CONTAINS_SATISFIED,
    CONTAINS_VIOLATED,
    ENDS_VIOLATED,
    MonitoringPattern,
    estimate_risk,
    estimate_risks,
    get_pattern,
    register_pattern,
)
from ltlguard.trace import StepRecord

I, S, V = Verdict.INCONCLUSIVE, Verdict.SATISFIED, Verdict.VIOLATED

BAD_LABELER = RuleLabeler(frozenset({"bad"}), {"bad": r"\bbad\b"})


def bernoulli_model(p):
    return ScriptedModel(distributions=((("bad", p), ("ok", 1 - p)),))


class TestPatterns:
    def test_contains_violated(self):
        assert CONTAINS_VIOLATED.matches([I, V, I])
        assert not CONTAINS_VIOLATED.matches([I, S])

    def test_contains_satisfied(self):
        assert CONTAINS_SATISFIED.matches([S])
        assert not CONTAINS_SATISFIED.matches([I, V])

    def test_ends_violated(self):
        assert ENDS_VIOLATED.matches([I, V])
        assert not ENDS_VIOLATED.matches([V, I])

    def test_registry_lookup(self):
        assert get_pattern("contains_violated") is CONTAINS_VIOLATED
        with pytest.raises(KeyError, match="unknown monitoring pattern"):
            get_pattern("nope")

    def test_registration_extends_library(self):
        extra = MonitoringPattern("all_satisfied", lambda s: all(v is S for v in s))
        register_pattern(extra)
        assert get_pattern("all_satisfied") is extra


class TestEstimateRisk:
    def test_match_fraction_is_exact(self):
        # Four deterministic-by-seed samples; seeds chosen so exactly some
        # fraction violates: verify probability == matches / m exactly.
        state = new_state("c", parse("G !bad"))
        estimate = estimate_risk(
            state,
            bernoulli_model(0.5),
            BAD_LABELER,
            CONTAINS_VIOLATED,
            k=1,
            m=4,
            next_input="go",
            seed=123,
        )
        matches = sum(V in seq for seq in estimate.verdict_sequences)
        assert estimate.probability == matches / 4
        assert estimate.samples == 4 and estimate.horizon == 1

    def test_current_terminal_verdict_forces_match(self):
        state = new_state("c", parse("G !bad"))
        record = StepRecord(1, "", "bad move", frozenset({"bad"}))
        state = step(state, frozenset({"bad"}))
        assert state.last_verdict is V
        estimate = estimate_risk(
            state,
            bernoulli_model(0.0),
            BAD_LABELER,
            CONTAINS_VIOLATED,
            k=2,
            m=6,
            next_input="",
            history=[record],
            seed=5,
        )
        assert estimate.probability == 1.0

    def test_estimates_bernoulli_probability(self):
        state = new_state("c", parse("G !bad"))
        estimate = estimate_risk(
            state,
            bernoulli_model(0.5),
            BAD_LABELER,
            CONTAINS_VIOLATED,
            k=1,
            m=2000,
            next_input="go",
            seed=99,
        )
        assert estimate.probability == pytest.approx(0.5, abs=0.04)

    def test_deterministic_under_seed(self):
        state = new_state("c", parse("G !bad"))
        args = dict(
            model=bernoulli_model(0.3),
            labeler=BAD_LABELER,
            pattern=CONTAINS_VIOLATED,
            k=3,
            m=25,
            next_input="go",
            seed=7,
        )
        assert estimate_risk(state, **args) == estimate_risk(state, **args)

    def test_seed_changes_samples(self):
        state = new_state("c", parse("G !bad"))
        a = estimate_risk(
            state, bernoulli_model(0.5), BAD_LABELER, CONTAINS_VIOLATED,
            k=1, m=30, next_input="", seed=1,
        )
        b = estimate_risk(
            state, bernoulli_model(0.5), BAD_LABELER, CONTAINS_VIOLATED,
            k=1, m=30, next_input="", seed=2,
        )
        assert a.verdict_sequences != b.verdict_sequences

    def test_live_state_not_mutated(self):
        state = new_state("c", parse("G !bad"), reset_mode=True)
        before = state
        estimate_risk(
            state, bernoulli_model(1.0), BAD_LABELER, CONTAINS_VIOLATED,
            k=2, m=3, next_input="go", seed=0,
        )
        assert state == before

    def test_horizon_extends_sequences(self):
        state = new_state("c", parse("G !bad"))
        estimate = estimate_risk(
            state, bernoulli_model(0.5), BAD_LABELER, CONTAINS_VIOLATED,
            k=4, m=5, next_input="go", seed=3,
        )
        assert all(len(seq) == 5 for seq in estimate.verdict_sequences)

    def test_invalid_arguments(self):
        state = new_state("c", parse("G !bad"))
        with pytest.raises(ValueError):
            estimate_risk(
                state, bernoulli_model(0.5), BAD_LABELER, CONTAINS_VIOLATED,
                k=0, m=1, next_input="",
            )
        with pytest.raises(ValueError):
            estimate_risk(
                state, bernoulli_model(0.5), BAD_LABELER, CONTAINS_VIOLATED,
                k=1, m=0, next_input="",
            )


class TestEstimateRisks:
    def test_shared_samples_across_constraints(self):
        states = {
            "never_bad": new_state("never_bad", parse("G !bad")),
            "reach_bad": new_state("reach_bad", parse("F bad")),
        }
        estimates = estimate_risks(
            states,
            bernoulli_model(0.5),
            BAD_LABELER,
            CONTAINS_VIOLATED,
            k=1,
            m=400,
            next_input="go",
            history=[],
            seed=11,
        )
        # Same sampled outputs: the violation fraction of one constraint is
        # the satisfaction fraction of the mirrored one.
        violated = estimates["never_bad"].probability
        satisfied = sum(
            S in seq for seq in estimates["reach_bad"].verdict_sequences
        ) / 400
        assert violated == satisfied

    def test_each_continuation_samples_on_one_list(self):
        calls = []

        class Model:
            def next_output(self, history, input, params):
                calls.append(history)
                return "bad"

        class Labeler:
            vocabulary = frozenset({"bad"})

            def __call__(self, steps):
                calls.append(steps)
                return BAD_LABELER(steps)

        history = [StepRecord(1, "go", "ok", frozenset())]
        before = list(history)
        states = {"c": new_state("c", parse("G !bad"))}
        estimate_risks(states, Model(), Labeler(), CONTAINS_VIOLATED, 3, 2, "go", history, 0)
        assert history == before
        # k model calls and k labeler calls per continuation, all on one list
        # that is not the caller's.
        first, second = calls[:6], calls[6:]
        assert len(second) == 6
        assert all(steps is first[0] for steps in first) and all(steps is second[0] for steps in second)
        assert first[0] is not history and second[0] is not history and first[0] is not second[0]

    def test_compiled_states_estimate_like_the_reference(self):
        formulas = {"never_bad": parse("G !bad"), "no_bad_twice": parse("G(bad -> X !bad)")}
        cache = ProgressionCache()
        compiled = {cid: new_state(cid, phi, True, cache) for cid, phi in formulas.items()}
        reference = {cid: new_state(cid, phi, True, REFERENCE) for cid, phi in formulas.items()}
        args = (bernoulli_model(0.4), BAD_LABELER, CONTAINS_VIOLATED, 3, 5, "go", [], 17)
        assert estimate_risks(compiled, *args) == estimate_risks(reference, *args)
