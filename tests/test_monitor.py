"""Monitor stepping, reset behavior, auditing, witnesses, and F1 scoring."""

import hashlib
import itertools
import json
import random

import pytest

from helpers import DEFAULT_PROPS, all_assignments, random_assignment, random_formula
from ltlguard.intervention import GuardedSession, InterventionPolicy, guard_step
from ltlguard.ltl import (
    FALSE,
    TRUE,
    Verdict,
    evaluate_lasso,
    parse,
    progress,
    render,
    simplify,
)
from ltlguard.models import RuleLabeler, ScriptedModel
from ltlguard.monitor import (
    REFERENCE,
    CrossCheckError,
    ProgressionCache,
    audit_log,
    new_state,
    report,
    run_monitor,
    score_f1,
    step,
)
from ltlguard.trace import StepRecord, Trace, TraceError, VerdictReport, report_to_dict, save_reports

I, S, V = Verdict.INCONCLUSIVE, Verdict.SATISFIED, Verdict.VIOLATED


def labeled_trace(label_sets, outputs=None):
    steps = []
    for i, labels in enumerate(label_sets, 1):
        output = outputs[i - 1] if outputs else f"step-{i}"
        steps.append(StepRecord(i, "", output, frozenset(labels)))
    return Trace(tuple(steps))


def fold(state, records):
    """``state`` stepped densely along ``records``, every step listed as a
    change point: the oracle for ``run_states``' sparse change points."""
    points = []
    for i, record in enumerate(records):
        state = step(state, record.labels)
        points.append((i, state))
    return points


def dense_report(state, records):
    return report(records, state, fold(state, records))


def drive(state, label_sets, records=None):
    """Step ``state`` along ``label_sets``; returns the report and the last state."""
    records = records or [
        StepRecord(i, "", f"o{i}", frozenset(labels)) for i, labels in enumerate(label_sets, 1)
    ]
    points = fold(state, records)
    return report(records, state, points), points[-1][1]


class TestStep:
    def test_eventually_satisfied(self):
        result, _ = drive(new_state("c", parse("F putdown")), [{"putdown"}])
        assert result.verdicts == (S,)
        assert result.witnesses[-1].entries[-1].residual == TRUE

    def test_always_violated(self):
        result, _ = drive(new_state("c", parse("G p")), [set()])
        assert result.verdicts == (V,)
        assert result.witnesses[-1].entries[-1].residual == FALSE

    def test_plain_mode_absorbs(self):
        result, state = drive(new_state("c", parse("G p")), [set(), {"p"}, set()])
        assert result.verdicts == (V, V, V)
        assert state.residual == FALSE
        assert len(result.witnesses) == 1

    def test_reset_mode_restores_objective(self):
        result, state = drive(new_state("c", parse("G p"), reset_mode=True), [set(), {"p"}, set()])
        assert result.verdicts == (V, I, V)
        assert result.violations == 2
        assert state.residual == parse("G p")
        # The open witness was cleared: the second episode holds only step 3.
        assert [[e.t for e in ep.entries] for ep in result.witnesses] == [[1], [3]]

    def test_reset_mode_counts_episodes(self):
        result, _ = drive(new_state("c", parse("F p"), reset_mode=True), [{"p"}, set(), {"p"}])
        assert result.verdicts == (S, I, S)
        assert result.satisfactions == 2
        assert len(result.witnesses) == 2

    def test_witness_appended_only_on_residual_change(self):
        result, _ = drive(new_state("c", parse("F p")), [set(), set(), {"p"}])
        # Residual never changes while p is absent; one entry at satisfaction.
        assert [e.t for e in result.witnesses[0].entries] == [3]

    def test_witness_records_step_context(self):
        record = StepRecord(1, "ask", "answer p", frozenset({"p"}))
        result, _ = drive(new_state("c", parse("F p")), None, [record])
        entry = result.witnesses[0].entries[0]
        assert (entry.t, entry.input, entry.output) == (1, "ask", "answer p")
        assert entry.labels == frozenset({"p"})

    def test_successor_carries_verdict_and_reset(self):
        state = new_state("c", parse("G p"), reset_mode=True)
        successor = step(state, frozenset())
        assert successor.last_verdict is V
        assert successor.residual is state.objective


class TestRunMonitor:
    def test_report_shapes(self):
        trace = labeled_trace([set()] * 5)
        reports = run_monitor(trace, {"a": parse("F p"), "b": parse("G q")})
        assert len(reports) == 2
        assert all(len(r.verdicts) == 5 for r in reports)
        assert [r.constraint_id for r in reports] == ["a", "b"]

    def test_trivially_true_constraint_in_reset_mode(self):
        trace = labeled_trace([set()] * 3)
        (report,) = run_monitor(trace, {"c": TRUE}, mode="reset")
        assert report.verdicts == (S, S, S)
        assert report.satisfactions == 3

    def test_trigger_then_fulfillment_timing(self):
        # A at step 2, B at step 7: inconclusive through 6, satisfied at 7.
        labels = [set(), {"A"}, set(), set(), set(), set(), {"B"}]
        trace = labeled_trace(labels)
        (report,) = run_monitor(trace, {"c": parse("F(A & X F B)")})
        assert report.verdicts == (I, I, I, I, I, I, S)

    def test_cross_checked_against_lasso_oracle(self):
        # The same scenario, checked semantically: the prefix extended by an
        # empty-step loop satisfies the formula only once B has occurred.
        phi = parse("F(A & X F B)")
        labels = [frozenset(), frozenset({"A"}), frozenset(), frozenset({"B"})]
        assert evaluate_lasso(phi, labels, [frozenset()]) is True
        assert evaluate_lasso(phi, labels[:3], [frozenset()]) is False

    def test_missing_labels_rejected(self):
        trace = Trace((StepRecord(1, "", "x"),))
        with pytest.raises(TraceError, match="missing labels"):
            run_monitor(trace, {"c": TRUE})

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError, match="empty"):
            run_monitor(Trace(()), {"c": TRUE})

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            run_monitor(labeled_trace([set()]), {"c": TRUE}, mode="weird")

    def test_independence_of_constraints(self):
        rng = random.Random(3)
        labels = [
            {p for p in ("p", "q") if rng.random() < 0.5} for _ in range(12)
        ]
        trace = labeled_trace(labels)
        both = run_monitor(trace, {"x": parse("F p"), "y": parse("G q")}, mode="reset")
        solo_x = run_monitor(trace, {"x": parse("F p")}, mode="reset")
        solo_y = run_monitor(trace, {"y": parse("G q")}, mode="reset")
        assert both[0] == solo_x[0]
        assert both[1] == solo_y[0]

    def test_plain_mode_verdicts_are_absorbing_pattern(self):
        rng = random.Random(9)
        for _ in range(50):
            labels = [{p for p in ("p", "q") if rng.random() < 0.4} for _ in range(10)]
            trace = labeled_trace(labels)
            for report in run_monitor(trace, {"c": parse("p U q"), "d": parse("G p")}):
                seq = list(report.verdicts)
                terminal = [v for v in seq if v is not I]
                if terminal:
                    first = seq.index(terminal[0])
                    assert all(v is I for v in seq[:first])
                    assert all(v is terminal[0] for v in seq[first:])

    def test_witness_replay_reproduces_terminal_residual(self):
        rng = random.Random(21)
        for _ in range(60):
            labels = [{p for p in ("p", "q") if rng.random() < 0.4} for _ in range(8)]
            trace = labeled_trace(labels)
            reports = run_monitor(trace, {"c": parse("G(p -> F q)"), "d": parse("p U q")})
            for report, phi in zip(reports, (parse("G(p -> F q)"), parse("p U q"))):
                for episode in report.witnesses:
                    residual = simplify(phi)
                    for entry in episode.entries:
                        residual = simplify(progress(residual, entry.labels))
                    expected = FALSE if episode.verdict is V else TRUE
                    assert residual == expected


class TestCompiledPath:
    """The residual automaton against the reference ``simplify(progress(...))``."""

    def test_progress_simplify_matches_reference(self):
        rng = random.Random(2603)
        for _ in range(400):
            cache = ProgressionCache()
            residual = random_formula(rng, depth=rng.randint(0, 5))
            for _ in range(8):
                labels = random_assignment(rng, DEFAULT_PROPS)
                expected = simplify(progress(residual, labels))
                actual = cache.progress_simplify(residual, labels)
                assert actual == expected
                assert render(actual) == render(expected)
                # Continue from the compiled result, or from an unsimplified
                # formula the cache never produced.
                residual = actual if rng.random() < 0.7 else progress(residual, labels)

    def test_interned_residuals_are_unique(self):
        cache = ProgressionCache()
        phi = parse("G(p -> F q) & F(p & X F q)")
        assert cache.normalize(phi) is cache.normalize(parse("G(p -> F q) & F(p & X F q)"))
        residual = cache.normalize(phi)
        assert cache.progress_simplify(residual, frozenset({"p"})) is cache.progress_simplify(
            residual, frozenset({"p", "unread"})
        )

    def test_run_monitor_equals_reference_fold(self):
        rng = random.Random(2604)
        for _ in range(60):
            constraints = {
                f"c{i}": random_formula(rng, depth=rng.randint(1, 4)) for i in range(3)
            }
            trace = labeled_trace([random_assignment(rng, DEFAULT_PROPS) for _ in range(12)])
            for mode in ("plain", "reset"):
                expected = [
                    dense_report(new_state(cid, constraints[cid], mode == "reset", REFERENCE), trace.steps)
                    for cid in sorted(constraints)
                ]
                assert run_monitor(trace, constraints, mode=mode) == expected

    def test_unchanged_step_returns_same_state(self):
        cache = ProgressionCache()
        state = new_state("c", parse("G(p -> F q)"), cache=cache)
        state = step(state, frozenset())
        again = step(state, frozenset())
        assert again is state and again.last_verdict is I

    def test_state_without_cache_is_compiled(self):
        state = new_state("c", parse("G(p -> F q)"))
        state = step(state, frozenset())
        again = step(state, frozenset())
        assert again is state and again.last_verdict is I


class TestSparseStepping:
    """``run_states`` steps a constraint only when a step can move it."""

    def test_reset_mode_repeated_terminals(self):
        # The second step keeps the very state object and still closes an
        # episode: a change point must be kept for it.
        state = step(new_state("c", parse("F p"), reset_mode=True), frozenset({"p"}))
        assert step(state, frozenset({"p"})) is state
        trace = labeled_trace([{"p"}, {"p"}, set()])
        (result,) = run_monitor(trace, {"c": parse("F p")}, mode="reset")
        assert result.verdicts == (S, S, I)
        assert [(ep.verdict, [e.t for e in ep.entries]) for ep in result.witnesses] == [(S, [1]), (S, [2])]

    def test_sparse_equals_dense_reference_fold(self):
        rng = random.Random(1606)
        shared = ("p", "q", "r")
        for n in range(48):
            count = rng.randint(3, 8)
            disjoint = n % 2 == 1
            constraints = {
                f"c{i}": random_formula(
                    rng,
                    depth=rng.randint(1, 5),
                    props=(f"c{i}a", f"c{i}b") if disjoint else shared,
                    constants=n % 4 < 2,
                )
                for i in range(count)
            }
            props = sorted({p for i in range(count) for p in ((f"c{i}a", f"c{i}b") if disjoint else shared)})
            # Most steps carry none of the constraints' propositions.
            labels = [
                random_assignment(rng, props) if rng.random() < 0.15 else rng.choice([set(), {"noise"}])
                for _ in range(rng.randint(10, 60))
            ]
            trace = labeled_trace(labels)
            for mode in ("plain", "reset"):
                expected = [
                    dense_report(new_state(cid, phi, mode == "reset", REFERENCE), trace.steps)
                    for cid, phi in sorted(constraints.items())
                ]
                assert run_monitor(trace, constraints, mode=mode) == expected

    def test_idle_steps_are_skipped(self):
        class Counting(ProgressionCache):
            calls = 0

            def transition(self, phi, labels):
                Counting.calls += 1
                return super().transition(phi, labels)

        trace = labeled_trace([{"noise"}] * 500 + [{"bad"}] + [set()] * 499)
        (no_bad, eventually) = run_monitor(
            trace, {"a": parse("G !bad"), "b": parse("F (bad & X X ok)")}, mode="reset", cache=Counting()
        )
        assert no_bad.verdicts == (I,) * 500 + (V,) + (I,) * 499
        assert eventually.verdicts == (I,) * 1000
        # A settledness probe per new state, and the steps at and right after
        # ``bad``; no idle step reaches the automaton.
        assert Counting.calls < 20


class TestRenderMemo:
    """Memoized renderings by node identity equal the unmemoized ``render``."""

    def test_witness_and_guard_residuals_match_unmemoized_render(self):
        rng = random.Random(1405)
        labeler = RuleLabeler(frozenset(DEFAULT_PROPS), {p: rf"\b{p}\b" for p in DEFAULT_PROPS})
        outputs = [" ".join(sorted(labels)) or "idle" for labels in all_assignments(DEFAULT_PROPS)]
        for _ in range(25):
            constraints = {f"c{i}": random_formula(rng, depth=rng.randint(1, 5)) for i in range(4)}
            trace = labeled_trace([random_assignment(rng, DEFAULT_PROPS) for _ in range(30)])
            for mode in ("plain", "reset"):
                reset = mode == "reset"
                reports = [
                    *run_monitor(trace, constraints, mode=mode),
                    *(
                        dense_report(new_state(cid, phi, reset, REFERENCE), trace.steps)
                        for cid, phi in sorted(constraints.items())
                    ),
                ]
                memo: dict[int, str] = {}
                for given in reports:
                    written = report_to_dict(given, memo)
                    for episode, entries in zip(given.witnesses, written["witnesses"], strict=True):
                        for entry, saved in zip(episode.entries, entries["entries"], strict=True):
                            assert saved["residual"] == render(entry.residual, "ascii")
            model = ScriptedModel(distributions=(tuple((text, rng.random() + 0.01) for text in outputs),))
            session = GuardedSession(model, labeler, constraints, InterventionPolicy(), seed=rng.randrange(1000))
            replay = {cid: new_state(cid, phi, True, REFERENCE) for cid, phi in constraints.items()}
            for _ in range(30):
                outcome = guard_step(session, "")
                replay = {cid: step(state, session.steps[-1].labels) for cid, state in replay.items()}
                assert outcome.residuals == {cid: render(state.residual, "ascii") for cid, state in replay.items()}

    def test_save_reports_keeps_rendered_nodes_alive(self, tmp_path):
        # Reference residuals are fresh objects; a generator of reports must
        # not let one be freed and its identity reused within one document.
        rng = random.Random(1400)
        constraints = {f"c{i}": random_formula(rng, depth=4) for i in range(12)}
        trace = labeled_trace([random_assignment(rng, DEFAULT_PROPS) for _ in range(40)])
        reports = (
            dense_report(new_state(cid, phi, True, REFERENCE), trace.steps)
            for cid, phi in sorted(constraints.items())
        )
        save_reports(reports, tmp_path / "memo.json")
        expected = [
            dense_report(new_state(cid, phi, True, REFERENCE), trace.steps)
            for cid, phi in sorted(constraints.items())
        ]
        saved = json.loads((tmp_path / "memo.json").read_text(encoding="utf-8"))["reports"]
        assert saved == [report_to_dict(r) for r in expected]

    def test_english_style_takes_no_memo(self):
        with pytest.raises(ValueError):
            render(parse("G p"), "english", {})


class TestAuditLog:
    def test_matches_run_monitor(self):
        rng = random.Random(4)
        labels = [{p for p in ("p", "q") if rng.random() < 0.5} for _ in range(20)]
        trace = labeled_trace(labels)
        constraints = {"c": parse("F(p & X F q)"), "d": parse("G p")}
        assert audit_log(trace, constraints, mode="reset") == run_monitor(
            trace, constraints, mode="reset"
        )

    def test_cross_check_passes_on_random_trace(self):
        rng = random.Random(8)
        labels = [{p for p in ("p", "q") if rng.random() < 0.5} for _ in range(20)]
        trace = labeled_trace(labels)
        constraints = {"c": parse("p U q"), "d": parse("G(p -> F q)")}
        for mode in ("plain", "reset"):
            audit_log(trace, constraints, mode=mode, cross_check=True)

    def test_cross_check_catches_corrupted_transition(self, monkeypatch):
        trace = labeled_trace([{"p"}, set(), {"p"}])
        constraints = {"c": parse("G p")}
        progress_interned = ProgressionCache._progress

        def corrupted(self, phi, sigma):
            # Only G p on {} progresses to false: that transition now says true.
            result = progress_interned(self, phi, sigma)
            return TRUE if result is FALSE else result

        monkeypatch.setattr(ProgressionCache, "_progress", corrupted)
        (report,) = audit_log(trace, constraints)
        assert report.verdicts == (I, S, S)
        with pytest.raises(CrossCheckError, match="constraint c: step 2"):
            audit_log(trace, constraints, cross_check=True)

    def test_empty_constraint_set(self):
        assert audit_log(labeled_trace([set()]), {}) == []

    @pytest.mark.parametrize(
        "mode, digest",
        [
            ("plain", "e501b8f494b2e84b10ccb5ec853de89b78cd5087d1f9da1b4d5f686fb05f5901"),
            ("reset", "3cf18cdfafc441ead753655474e779b357518c06a71bfecf65056f11fa83573e"),
        ],
    )
    def test_saved_report_bytes_pinned(self, tmp_path, mode, digest):
        # Verdicts, counters and every witness entry of a fixed random audit.
        rng = random.Random(2601)
        constraints = {f"c{i}": random_formula(rng, depth=rng.randint(2, 4)) for i in range(6)}
        trace = labeled_trace([random_assignment(rng, DEFAULT_PROPS) for _ in range(200)])
        reports = audit_log(trace, constraints, mode=mode, cross_check=True)
        save_reports(reports, tmp_path / "reports.json")
        assert hashlib.sha256((tmp_path / "reports.json").read_bytes()).hexdigest() == digest


class TestScoreF1:
    def make_report(self, cid, verdicts):
        return VerdictReport(
            constraint_id=cid,
            verdicts=tuple(verdicts),
            violations=sum(v is V for v in verdicts),
            satisfactions=sum(v is S for v in verdicts),
        )

    def test_identical_reports_score_one(self):
        reports = [self.make_report("c", [I, V, I, S])]
        result = score_f1(reports, reports)
        assert result.pooled.f1 == 1.0
        assert result.per_constraint["c"].f1 == 1.0

    def test_half_precision_full_recall(self):
        truth = [self.make_report("c", [I, V, I, I])]
        predicted = [self.make_report("c", [V, V, I, I])]
        result = score_f1(predicted, truth)
        assert result.pooled.precision == 0.5
        assert result.pooled.recall == 1.0
        assert result.pooled.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_no_predictions_scores_zero(self):
        truth = [self.make_report("c", [V, I])]
        predicted = [self.make_report("c", [I, I])]
        assert score_f1(predicted, truth).pooled.f1 == 0.0

    def test_kind_must_match(self):
        truth = [self.make_report("c", [V])]
        predicted = [self.make_report("c", [S])]
        result = score_f1(predicted, truth)
        assert result.pooled.tp == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            score_f1(
                [self.make_report("c", [I])],
                [self.make_report("c", [I, I])],
            )
        with pytest.raises(ValueError, match="constraint ids"):
            score_f1(
                [self.make_report("c", [I])],
                [self.make_report("d", [I])],
            )

    def test_pooled_spans_constraints(self):
        truth = [self.make_report("a", [V, I]), self.make_report("b", [I, S])]
        predicted = [self.make_report("a", [V, I]), self.make_report("b", [I, I])]
        result = score_f1(predicted, truth)
        assert result.per_constraint["a"].f1 == 1.0
        assert result.per_constraint["b"].f1 == 0.0
        assert result.pooled.tp == 1 and result.pooled.fn == 1


class TestSoundnessExhaustiveSmall:
    """Terminal verdicts agree with the semantic oracle on every extension
    (scaled-down here; the full exhaustive sweep runs in the acceptance suite)."""

    def test_until_formula_small(self):
        props = ("p", "q")
        assignments = [
            frozenset(c) for r in range(3) for c in itertools.combinations(props, r)
        ]
        phi = parse("p U q")
        for n in (1, 2):
            for prefix in itertools.product(assignments, repeat=n):
                residual = simplify(phi)
                for sigma in prefix:
                    residual = simplify(progress(residual, sigma))
                if residual not in (TRUE, FALSE):
                    continue
                expected = residual == TRUE
                for loop_len in (1, 2):
                    for loop in itertools.product(assignments, repeat=loop_len):
                        assert (
                            evaluate_lasso(phi, list(prefix), list(loop)) is expected
                        )
