"""Work done, counted without a clock: each count repeats exactly under its seed."""

import collections
import json
import random
from dataclasses import replace

import pytest

from ltlguard import cli, monitor, trace
from ltlguard.intervention import GuardedSession, InterventionPolicy, guard_step
from ltlguard.ltl import And, Not, Or, ProgressionCache, Verdict, ast, parse, render
from ltlguard.models import RuleLabeler, ScriptedModel
from ltlguard.synthbench import AttributeEventLabeler, gen_constraint_scaling
from ltlguard.trace import StepRecord, Trace, TraceError, VerdictReport, save_trace


def _audit_case(tmp_path):
    """One ``audit-constraint``-shaped case: 20 complex constraints over a
    1,000-step trace whose labels are stripped, audited with the event labeler."""
    case = gen_constraint_scaling(20, "complex", seed=3)
    trace_path, config_path = tmp_path / "trace.jsonl", tmp_path / "config.json"
    save_trace(Trace(tuple(replace(s, labels=None) for s in case.trace.steps), case.trace.metadata), trace_path)
    constraints = [{"id": c.constraint_id, "formula": render(c.formula, "ascii")} for c in case.constraints]
    config_path.write_text(json.dumps({"constraints": constraints, "labeler": {"type": "event"}}), encoding="utf-8")
    return case, ["audit", str(trace_path), "--config", str(config_path), "--mode", "reset"]


class TestLabelerCalls:
    def test_audit_labels_each_distinct_output_once(self, tmp_path, monkeypatch):
        case, argv = _audit_case(tmp_path)
        outputs = [s.output for s in case.trace.steps]
        body = AttributeEventLabeler._label
        computed = collections.Counter()

        def counted_label(*args):
            computed[args[-1]] += 1
            return body(*args)

        calls = []

        def spied(spec):
            labeler = build_labeler(spec)

            class Spy:
                vocabulary = labeler.vocabulary

                def __call__(self, steps):
                    calls.append(steps[-1].t)
                    return labeler(steps)

            return Spy()

        build_labeler = cli.build_labeler
        monkeypatch.setattr(AttributeEventLabeler, "_label", staticmethod(counted_label))
        monkeypatch.setattr(cli, "build_labeler", spied)
        assert cli.main([*argv, "--out", str(tmp_path / "memo.json")]) in (0, 1)
        # The spy outside the labeler sees one call per step; the labeler's
        # own body runs once per distinct output.
        assert calls == list(range(1, len(outputs) + 1))
        assert computed == collections.Counter(set(outputs))
        assert len(computed) < len(outputs) / 2

        monkeypatch.setattr(trace, "LABEL_MEMO_SIZE", 1)
        computed.clear()
        assert cli.main([*argv, "--out", str(tmp_path / "bound1.json")]) in (0, 1)
        assert sum(computed.values()) > len(computed)  # with one entry the memo misses on repeats
        assert (tmp_path / "memo.json").read_bytes() == (tmp_path / "bound1.json").read_bytes()


def _count_calls(monkeypatch, *names):
    """A counter of the calls of each ``(module, attribute)`` in ``names``,
    by attribute, through wrappers rebound over them."""
    calls = collections.Counter()

    def rebind(module, name):
        body = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return body(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in names:
        rebind(module, name)
    return calls


class TestTraceDecodes:
    """A trace line is decoded once, by the reader's own scanner and checks;
    ``json.loads`` and ``step_from_dict`` run only on a line they refuse."""

    @pytest.fixture
    def case_path(self, tmp_path):
        # The metadata line and 1,000 labeled steps.
        case = gen_constraint_scaling(20, "complex", seed=3)
        save_trace(case.trace, tmp_path / "trace.jsonl")
        return case, tmp_path / "trace.jsonl"

    def test_clean_trace(self, case_path, monkeypatch):
        case, path = case_path
        calls = _count_calls(monkeypatch, (json, "loads"), (trace, "step_from_dict"))
        assert trace.load_trace(path) == case.trace
        assert calls == {}

    @pytest.mark.parametrize(
        "fault",
        ["{nope", '{"t": 500, "output": 5}', '{"t": 500, "output": "\\ud800"}'],
        ids=["json", "shape", "surrogate"],
    )
    def test_one_faulty_line(self, case_path, monkeypatch, fault):
        _, path = case_path
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[500] = fault  # the line of step 500
        path.write_text("\n".join(lines), encoding="utf-8")
        calls = _count_calls(monkeypatch, (json, "loads"), (trace, "step_from_dict"))
        with pytest.raises(TraceError, match="line 501: "):
            trace.load_trace(path)
        assert calls["loads"] <= 1 and calls["step_from_dict"] <= 1


class TestReportEncodes:
    def test_verdict_run_costs_no_string_encodes(self, tmp_path, monkeypatch):
        # Every string the writer encodes goes through ``encode_basestring``,
        # the C encoder's included once it is rebound; one run of verdicts
        # adds none, however long.
        calls = _count_calls(monkeypatch, (json.encoder, "encode_basestring"), (trace, "encode_basestring"))
        counts = []
        for steps in (10, 10_000):
            calls.clear()
            report = VerdictReport("c", (Verdict.INCONCLUSIVE,) * steps, 0, 0)
            trace.save_reports([report], tmp_path / "reports.json", extra={"steps": steps})
            counts.append(sum(calls.values()))
        assert counts[0] == counts[1] > 0


class TestTransitionMisses:
    def test_audit_case(self, tmp_path, monkeypatch):
        # A miss progresses a residual once and records one transition, so
        # the misses are at most the automaton's transitions.
        _, argv = _audit_case(tmp_path)
        body = ProgressionCache._progress
        misses = []

        def counted_progress(self, phi, sigma):
            misses.append(phi)
            return body(self, phi, sigma)

        monkeypatch.setattr(ProgressionCache, "_progress", counted_progress)
        assert cli.main([*argv, "--out", str(tmp_path / "out.json")]) in (0, 1)
        assert len(misses) <= 230


class TestCrossCheckComparisons:
    def test_residuals_are_compared_only_where_one_changed(self, tmp_path, monkeypatch):
        # One ``audit-crosscheck``-shaped case: 5 simple constraints, 200 steps.
        case = gen_constraint_scaling(5, "simple", seed=3, length=200)
        trace_path, config_path = tmp_path / "trace.jsonl", tmp_path / "config.json"
        save_trace(case.trace, trace_path)
        constraints = [{"id": c.constraint_id, "formula": render(c.formula, "ascii")} for c in case.constraints]
        config_path.write_text(json.dumps({"constraints": constraints}), encoding="utf-8")
        body = monitor.same
        walks = []

        def counted_same(a, b):
            if a is not b:
                walks.append(a)
            return body(a, b)

        monkeypatch.setattr(monitor, "same", counted_same)
        argv = ["audit", str(trace_path), "--config", str(config_path), "--cross-check", "--out", str(tmp_path / "out.json")]
        assert cli.main(argv) in (0, 1)

        # The constraint-steps where a residual changed, and those where an
        # unchanged residual is a ``&``, ``|`` or ``!``: ``progress`` rebuilds
        # that node, so the reference's ``simplify`` returns an equal copy.
        changed = rebuilt = 0
        for constraint in case.constraints:
            state = monitor.new_state(constraint.constraint_id, constraint.formula)
            for record in case.trace.steps:
                successor = monitor.step(state, record.labels)
                changed += successor.residual is not state.residual
                rebuilt += successor.residual is state.residual and type(state.residual) in (And, Or, Not)
                state = successor
        assert (changed, rebuilt) == (8, 283)
        # A change costs one test in the reference's transition and one
        # comparison in the cross-check; a copy costs one test; each
        # constraint's first step costs one comparison.  The other 709
        # constraint-steps cost none.
        assert len(walks) <= 2 * changed + rebuilt + len(case.constraints)


class TestReferenceChainComparisons:
    """The reference ``simplify`` takes an ``&``/``|`` chain in one pass and
    finds a repeated operand by ``in`` over the operands kept so far, so
    the structural comparisons it makes grow with the square of the
    chain's width, not with its cube."""

    @pytest.mark.parametrize("n, bound", [(100, 60_000), (200, 240_000)])
    def test_wide_chains_audit(self, n, bound, monkeypatch):
        # A 10-step reset audit with --cross-check of two n-wide chains, 3
        # seeded labels per step; the bounds are 4x apart, as n doubles.
        names = [f"a{i}" for i in range(n)]
        constraints = {"ban": parse(f"G !({' | '.join(names)})"), "all": parse(f"F ({' & '.join(names)})")}
        rng = random.Random(n)
        trace = Trace(tuple(StepRecord(t, "", "step", frozenset(rng.sample(names, 3))) for t in range(1, 11)))
        body = ast.same
        walks = []

        def counted_same(a, b):
            walks.append(a)
            return body(a, b)

        monkeypatch.setattr(ast, "same", counted_same)  # the one ``Formula.__eq__`` calls
        monitor.audit_log(trace, constraints, "reset", cross_check=True)
        assert len(walks) <= bound


def _guard_session(strategy):
    """A ``guard-scripted`` session of ``strategy`` at seed 5, its
    constraints parsed into a fresh automaton."""
    automaton = ProgressionCache()
    texts = {"no_bad": "G !bad", "bad_then_ok": "G (bad -> F ok)", "ok_then_bad": "F (ok & X F bad)"}
    return GuardedSession(
        model=ScriptedModel(distributions=((("bad move", 0.3), ("ok move", 0.7)),)),
        labeler=RuleLabeler(frozenset({"bad", "ok"}), {"bad": r"\bbad\b", "ok": r"\bok\b"}),
        constraints={cid: parse(text, automaton) for cid, text in texts.items()},
        policy=InterventionPolicy(strategy=strategy, tau=0.5, n=5, k=3, m=5),
        substitute=ScriptedModel(distributions=((("ok move", 1.0),),)),
        seed=5,
        cache=automaton,
    )


def _sizes(automaton):
    """The automaton's counts of nodes, states and transitions."""
    states = automaton._states.values()
    return len(automaton._nodes), len(states), sum(len(transitions) for _, transitions, _ in states)


class TestAutomatonSizes:
    """A state reached on a transition miss keeps its predecessor's names,
    which may exceed those it reads; these counts show that doing so splits
    no transition key.  Each bound is the count measured when every node
    kept exactly its own names, except that ``true`` and ``false`` are
    states from the start, so the state count may exceed it by those two."""

    def test_audit_case(self, tmp_path, monkeypatch):
        _, argv = _audit_case(tmp_path)
        loaded = []
        load = cli.load_config
        monkeypatch.setattr(cli, "load_config", lambda path: loaded.append(load(path)) or loaded[-1])
        assert cli.main([*argv, "--out", str(tmp_path / "out.json")]) in (0, 1)
        nodes, states, transitions = _sizes(loaded[0].automaton)
        assert nodes <= 1920 and states <= 121 + 2 and transitions <= 230

    def test_guard_session(self):
        # A 300-step ``resample`` session.
        session = _guard_session("resample")
        for _ in range(300):
            guard_step(session, "")
        nodes, states, transitions = _sizes(session.states["no_bad"].automaton)
        assert nodes <= 13 and states <= 7 + 2 and transitions <= 10
        assert len(session.states._table) <= 4


class CountedModel:
    """A model that counts its calls."""

    def __init__(self, model):
        self.model, self.calls = model, 0

    def next_output(self, *args):
        self.calls += 1
        return self.model.next_output(*args)


class TestGuardModelCalls:
    """A 100-step session of each strategy on the ``guard-scripted`` config
    at seed 5 calls the model and the substitute exactly as the policy says.
    Each step costs one action call and, unless the strategy is ``none``,
    an estimate of m·k calls.  An intervened step adds the intervention, n
    rollouts of k calls for ``resample`` or one call otherwise, and the
    post-pair check, two estimates of m·k calls."""

    @pytest.mark.parametrize(
        "strategy, intervened_at_most, calls_at_most",
        [("none", 0, 100), ("resample", 76, 5020), ("inject", 84, 4204), ("switch", 76, 3956)],
    )
    def test_session(self, strategy, intervened_at_most, calls_at_most):
        session = _guard_session(strategy)
        session.model = model = CountedModel(session.model)
        session.substitute = substitute = CountedModel(session.substitute)
        for _ in range(100):
            guard_step(session, "")
        policy = session.policy
        intervened = sum(outcome.intervened for outcome in session.outcomes)
        estimate = policy.m * policy.k
        per_step = 1 if strategy == "none" else estimate + 1
        intervention = policy.n * policy.k if strategy == "resample" else 1
        calls = model.calls + substitute.calls
        assert calls == 100 * per_step + intervened * (intervention + 2 * estimate)
        assert intervened <= intervened_at_most and calls <= calls_at_most
