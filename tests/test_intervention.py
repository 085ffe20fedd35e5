"""Guarded sessions: policies, intervention strategies, closed-loop runs."""

import pytest

from ltlguard.intervention import (
    GuardedSession,
    InterventionPolicy,
    PolicyError,
    apply_inject,
    apply_resample,
    apply_switch,
    default_inject_template,
    guard_step,
    run_guarded,
    violation_rate,
)
from ltlguard.ltl import Eventually, Prop, Verdict, parse
from ltlguard.models import RuleLabeler, SampleParams, ScriptedModel, derive_seed
from ltlguard.predictive import CONTAINS_VIOLATED, estimate_risks
from ltlguard.trace import LabelingError, StepRecord

BAD_LABELER = RuleLabeler(frozenset({"bad"}), {"bad": r"\bbad\b"})


def bernoulli_model(p):
    return ScriptedModel(distributions=((("bad move", p), ("ok move", 1 - p)),))


COMPLIANT = ScriptedModel(distributions=((("ok move", 1.0),),))
VIOLATING = ScriptedModel(distributions=((("bad move", 1.0),),))


def make_session(model, policy, substitute=None, seed=0, constraints=None):
    return GuardedSession(
        model=model,
        labeler=BAD_LABELER,
        constraints=constraints or {"no_bad": parse("G !bad")},
        policy=policy,
        substitute=substitute,
        seed=seed,
    )


class QueueModel:
    """Pops scripted outputs in call order; for exact candidate control."""

    def __init__(self, outputs):
        self.outputs = list(outputs)

    def next_output(self, history, input, params):
        return self.outputs.pop(0)


class TestInterventionPolicy:
    def test_defaults_valid(self):
        policy = InterventionPolicy()
        assert policy.strategy == "none"
        assert policy.tau == 0.5 and policy.k == 3 and policy.m == 5

    def test_unknown_strategy(self):
        with pytest.raises(PolicyError, match="strategy"):
            InterventionPolicy(strategy="reboot")

    def test_tau_bounds(self):
        with pytest.raises(PolicyError, match="tau"):
            InterventionPolicy(tau=1.5)

    def test_counts_positive(self):
        with pytest.raises(PolicyError):
            InterventionPolicy(n=0)
        with pytest.raises(PolicyError):
            InterventionPolicy(k=0)

    def test_switch_requires_substitute(self):
        with pytest.raises(PolicyError, match="substitute"):
            make_session(COMPLIANT, InterventionPolicy(strategy="switch"))


class TestApplyInject:
    def test_appends_rendered_residuals(self):
        out = apply_inject(
            "pick the next action",
            [("c", Eventually(Prop("putdown")))],
            default_inject_template(),
        )
        assert out.startswith("pick the next action\n")
        assert "eventually, putdown must hold" in out
        assert "VERY IMPORTANT: PAY ATTENTION" in out

    def test_empty_residuals_is_identity(self):
        assert apply_inject("go", [], default_inject_template()) == "go"

    def test_two_residuals_ordered_by_constraint_id(self):
        out = apply_inject(
            "go",
            [("z", Prop("late")), ("a", Prop("early"))],
            default_inject_template(),
        )
        assert out.index("early must hold") < out.index("late must hold")
        assert "early must hold\nlate must hold" in out


class TestApplyResample:
    def test_argmin_of_predicted_violation_counts(self):
        # Three constraints; candidate 1 violates two, candidate 3 one,
        # candidate 2 none -> counts [2, 0, 1], candidate 2 wins.
        labeler = RuleLabeler(
            frozenset({"x", "y", "z"}), {"x": "XX", "y": "YY", "z": "ZZ"}
        )
        session = GuardedSession(
            model=QueueModel(["XX YY", "clean", "ZZ"]),
            labeler=labeler,
            constraints={
                "cx": parse("G !x"),
                "cy": parse("G !y"),
                "cz": parse("G !z"),
            },
            policy=InterventionPolicy(strategy="resample", n=3, k=1, m=1),
        )
        assert apply_resample(session, "go", 3, t=1) == "clean"

    def test_tie_breaks_on_first_candidate(self):
        session = make_session(
            QueueModel(["first ok", "second ok"]),
            InterventionPolicy(strategy="resample", n=2, k=1, m=1),
        )
        assert apply_resample(session, "go", 2, t=1) == "first ok"

    def test_n_equals_one_returns_sole_candidate(self):
        session = make_session(
            QueueModel(["only"]), InterventionPolicy(strategy="resample", n=1, k=1, m=1)
        )
        assert apply_resample(session, "go", 1, t=1) == "only"


class TestApplySwitch:
    def test_substitute_output_returned_verbatim(self):
        session = make_session(
            VIOLATING,
            InterventionPolicy(strategy="switch", k=1, m=1),
            substitute=ScriptedModel(distributions=((("compliant choice", 1.0),),)),
        )
        assert apply_switch(session, t=1) == "compliant choice"

    def test_prompt_carries_memory_and_rules(self):
        captured = {}

        class Recorder:
            def next_output(self, history, input, params):
                captured["prompt"] = input
                return "safe"

        session = make_session(
            VIOLATING,
            InterventionPolicy(strategy="switch", k=1, m=1),
            substitute=Recorder(),
        )
        session.steps.append(StepRecord(1, "go", "did a thing", frozenset()))
        apply_switch(session, t=2)
        assert "did a thing" in captured["prompt"]
        assert "always, not (bad) must hold" in captured["prompt"]
        assert "You are a safe model" in captured["prompt"]


class TestGuardStep:
    def test_below_threshold_no_intervention(self):
        session = make_session(
            COMPLIANT, InterventionPolicy(strategy="resample", tau=0.5, k=1, m=20)
        )
        outcome = guard_step(session, "go")
        assert outcome.intervened is False
        assert outcome.final_output == outcome.original_output
        assert outcome.trigger_risk == {"no_bad": 0.0}

    def test_high_risk_triggers_switch(self):
        session = make_session(
            VIOLATING,
            InterventionPolicy(strategy="switch", tau=0.5, k=1, m=10),
            substitute=COMPLIANT,
        )
        outcome = guard_step(session, "go")
        assert outcome.intervened is True
        assert outcome.original_output == "bad move"
        assert outcome.final_output == "ok move"
        assert outcome.verdicts["no_bad"] is Verdict.INCONCLUSIVE

    def test_stop_token_finishes_session(self):
        session = make_session(
            ScriptedModel(outputs=("a",)), InterventionPolicy(strategy="none")
        )
        assert guard_step(session, "go") is not None
        assert guard_step(session, "") is None
        assert session.finished
        with pytest.raises(RuntimeError, match="finished"):
            guard_step(session, "")

    def test_intervened_step_records_contract_risks(self):
        session = make_session(
            VIOLATING,
            InterventionPolicy(strategy="switch", tau=0.1, k=1, m=8),
            substitute=COMPLIANT,
        )
        outcome = guard_step(session, "go")
        assert outcome.risk_original == {"no_bad": 1.0}
        assert outcome.risk_after is not None
        assert outcome.risk_after["no_bad"] <= 1.0
        assert outcome.contract_ok is True

    def test_strategy_none_skips_estimation(self):
        calls = []

        class CountingModel:
            def next_output(self, history, input, params):
                calls.append(params)
                return "ok move"

        session = make_session(CountingModel(), InterventionPolicy(strategy="none"))
        outcome = guard_step(session, "go")
        assert outcome.trigger_risk is None
        assert len(calls) == 1

    def test_failure_leaves_session_unchanged(self):
        class Exploding:
            def __init__(self):
                self.calls = 0

            def next_output(self, history, input, params):
                self.calls += 1
                raise RuntimeError("endpoint down")

        session = make_session(Exploding(), InterventionPolicy(strategy="none"))
        with pytest.raises(RuntimeError, match="endpoint down"):
            guard_step(session, "go")
        assert session.steps == [] and session.outcomes == []


    @pytest.mark.parametrize("strategy", ["none", "resample"])
    def test_undeclared_label_raises_and_leaves_session_unchanged(self, strategy):
        class ArmableLabeler:
            """Declares only ``bad``; once armed it also emits ``worse``."""

            vocabulary = frozenset({"bad"})
            armed = False

            def __call__(self, steps):
                return frozenset({"worse"}) if self.armed else frozenset()

        labeler = ArmableLabeler()
        session = GuardedSession(
            model=COMPLIANT,
            labeler=labeler,
            constraints={"no_bad": parse("G !bad")},
            policy=InterventionPolicy(strategy=strategy, tau=0.0, n=2, k=2, m=2),
        )
        guard_step(session, "go")
        labeler.armed = True
        before = (list(session.steps), list(session.outcomes), session.states)
        with pytest.raises(LabelingError, match="step 2: undeclared proposition"):
            guard_step(session, "")
        assert (session.steps, session.outcomes, session.states) == before
        with pytest.raises(LabelingError, match="step 2: undeclared proposition"):
            estimate_risks(
                session.states, COMPLIANT, labeler, CONTAINS_VIOLATED, 2, 2, "", session.steps, 0
            )


class TestRunGuarded:
    def test_unguarded_session_labels_on_its_own_history(self):
        seen = []

        class Spy:
            vocabulary = BAD_LABELER.vocabulary

            def __call__(self, steps):
                seen.append(steps)
                return BAD_LABELER(steps)

        session = GuardedSession(
            model=bernoulli_model(0.5),
            labeler=Spy(),
            constraints={"no_bad": parse("G !bad")},
            policy=InterventionPolicy(strategy="none"),
        )
        run_guarded(session, max_steps=20)
        assert len(seen) == 20 and all(steps is session.steps for steps in seen)

    def test_baseline_equivalence_with_unguarded_loop(self):
        seed = 31
        policy = InterventionPolicy(strategy="none")
        session = make_session(bernoulli_model(0.5), policy, seed=seed)
        trace, outcomes, _ = run_guarded(session, max_steps=40, initial_input="start")
        model = bernoulli_model(0.5)
        history = []
        expected = []
        for t in range(1, 41):
            inp = "start" if t == 1 else ""
            out = model.next_output(
                history, inp, SampleParams(temperature=0.2, seed=derive_seed(seed, t, "action"))
            )
            expected.append(out)
            history.append((inp, out))
        assert [s.output for s in trace.steps] == expected
        assert all(not o.intervened for o in outcomes)

    def test_switch_to_compliant_script_eliminates_violations(self):
        session = make_session(
            VIOLATING,
            InterventionPolicy(strategy="switch", tau=0.5, k=1, m=5),
            substitute=COMPLIANT,
        )
        _, outcomes, reports = run_guarded(session, max_steps=15, initial_input="go")
        assert violation_rate(reports) == 0.0
        assert all(o.intervened for o in outcomes)

    def test_resample_reduces_violation_rate(self):
        baseline = make_session(
            bernoulli_model(0.5), InterventionPolicy(strategy="none"), seed=5
        )
        _, _, base_reports = run_guarded(baseline, max_steps=60, initial_input="go")
        guarded = make_session(
            bernoulli_model(0.5),
            InterventionPolicy(strategy="resample", tau=0.0, n=5, k=1, m=2),
            seed=5,
        )
        _, _, guard_reports = run_guarded(guarded, max_steps=60, initial_input="go")
        assert violation_rate(guard_reports) < violation_rate(base_reports)

    def test_same_seed_reproduces_run(self):
        def run():
            session = make_session(
                bernoulli_model(0.4),
                InterventionPolicy(strategy="resample", tau=0.3, n=3, k=2, m=4),
                seed=77,
            )
            return run_guarded(session, max_steps=12, initial_input="go")

        first, second = run(), run()
        assert [s.output for s in first[0].steps] == [s.output for s in second[0].steps]
        assert [o.to_dict() for o in first[1]] == [o.to_dict() for o in second[1]]

    def test_threshold_monotonicity_on_scripted_model(self):
        counts = []
        for tau in (0.1, 0.4, 0.7, 1.0):
            session = make_session(
                bernoulli_model(0.5),
                InterventionPolicy(strategy="resample", tau=tau, n=2, k=1, m=6),
                seed=13,
            )
            _, outcomes, _ = run_guarded(session, max_steps=25, initial_input="go")
            counts.append(sum(o.intervened for o in outcomes))
        assert counts == sorted(counts, reverse=True)

    def test_reports_track_reset_counters(self):
        session = make_session(VIOLATING, InterventionPolicy(strategy="none"), seed=1)
        _, _, reports = run_guarded(session, max_steps=10, initial_input="go")
        (report,) = reports
        assert report.violations == 10
        assert violation_rate(reports) == 1.0

    def test_switch_to_compliant_never_worsens_risk(self):
        # With a compliant substitute and shared continuation seeds, the
        # post-intervention risk can never exceed the original pair's risk.
        session = make_session(
            bernoulli_model(0.5),
            InterventionPolicy(strategy="switch", tau=0.0, k=1, m=6),
            substitute=COMPLIANT,
            seed=19,
        )
        _, outcomes, _ = run_guarded(session, max_steps=30, initial_input="go")
        assert outcomes and all(o.intervened for o in outcomes)
        assert all(o.contract_ok is True for o in outcomes)

    def test_resample_contract_failures_recorded_not_raised(self):
        # Resampling can replace a compliant output with a worse one when
        # every candidate misbehaves; that is recorded, never an error.
        session = make_session(
            bernoulli_model(0.9),
            InterventionPolicy(strategy="resample", tau=0.0, n=2, k=1, m=4),
            seed=23,
        )
        _, outcomes, _ = run_guarded(session, max_steps=40, initial_input="go")
        assert all(o.contract_ok in (True, False) for o in outcomes if o.intervened)
        assert any(o.contract_ok is False for o in outcomes)
