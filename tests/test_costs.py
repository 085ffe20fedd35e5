"""Work done, counted without a clock: each count repeats exactly under its seed."""

import collections
import json
from dataclasses import replace

from ltlguard import cli, monitor, trace
from ltlguard.ltl import And, Not, Or, render
from ltlguard.synthbench import AttributeEventLabeler, gen_constraint_scaling
from ltlguard.trace import Trace, save_trace


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
