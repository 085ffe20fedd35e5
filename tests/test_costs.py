"""Work done, counted without a clock: each count repeats exactly under its seed."""

import collections
import json
from dataclasses import replace

from ltlguard import cli, trace
from ltlguard.ltl import render
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
