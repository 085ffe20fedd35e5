"""End-to-end command-line behavior: exit codes, outputs, determinism."""

import contextlib
import copy
import hashlib
import io
import json
import random
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ltlguard.cli import main
from ltlguard.config import (
    CONSTRAINT_KEYS,
    ENDPOINT_KEYS,
    KEYS,
    LABELERS,
    MODELS,
    POLICY_KEYS,
    ConfigError,
    build_labeler,
    build_model,
    load_config,
)
from ltlguard.ltl import parse, progress, render, simplify, verdict_of
from helpers import DEFAULT_PROPS, random_assignment, random_formula, run_cli_process
from mock_endpoint import MockEndpoint

RULE_CONFIG = {
    "constraints": [
        {"id": "no_bad", "formula": "G !bad", "gloss": "never take a bad action"},
        {"id": "reach_goal", "formula": "F goal"},
    ],
    "labeler": {
        "type": "rule",
        "vocabulary": ["bad", "goal"],
        "rules": {"bad": r"\bbad\b", "goal": r"\bgoal\b"},
    },
    "mode": "reset",
    "seed": 0,
}

GUARD_CONFIG = {
    "constraints": [{"id": "no_bad", "formula": "G !bad", "gloss": "avoid bad moves"}],
    "labeler": {"type": "rule", "vocabulary": ["bad"], "rules": {"bad": r"\bbad\b"}},
    "model": {"type": "scripted", "distributions": [[["bad move", 0.5], ["ok move", 0.5]]]},
    "substitute_model": {"type": "scripted", "distributions": [[["ok move", 1.0]]]},
    "policy": {"strategy": "switch", "tau": 0.0, "n": 3, "k": 1, "m": 4},
    "mode": "reset",
    "seed": 7,
    "initial_input": "begin",
}

ENDPOINT = {"type": "endpoint", "base_url": "http://127.0.0.1:9", "model": "m"}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")


def bench_case_line(step, **fields):
    """One bench case line whose only step is ``step``; well-formed unless
    ``fields`` overrides a top-level field."""
    constraint = {"id": "c1", "formula": "F animal_fox", "informal": "", "precise": "", "path": []}
    return json.dumps(
        {"knobs": {}, "truth": [True], "constraints": [constraint], "trace": {"steps": [step]}, **fields}
    )


FOX_STEP = {"t": 1, "output": "a fox", "labels": ["animal_fox"]}


def write_trace(path, outputs):
    lines = [json.dumps({"t": i, "input": "", "output": o}) for i, o in enumerate(outputs, 1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestParseCommand:
    def test_accepts_and_normalizes(self, capsys):
        code, out, err = run_cli(["parse", "G(a -> F b)"], capsys)
        assert code == 0
        document = json.loads(out)
        assert document["canonical"] == "G(a -> F b)"
        assert document["ast"]["kind"] == "always"

    def test_nested_example(self, capsys):
        code, out, _ = run_cli(["parse", "F(pickup & X F putdown)"], capsys)
        assert code == 0
        assert json.loads(out)["canonical"] == "F(pickup & X F putdown)"

    def test_parse_error_exit_2_with_caret(self, capsys):
        code, out, err = run_cli(["parse", "G(a ->"], capsys)
        assert code == 2
        assert "^" in err
        caret_line = [line for line in err.splitlines() if line.strip() == "^"][0]
        assert caret_line.index("^") == 2 + 6  # two-space margin + column 7

    def test_simplification_applied(self, capsys):
        code, out, _ = run_cli(["parse", "true & F p"], capsys)
        assert code == 0
        assert json.loads(out)["canonical"] == "F p"

    def test_every_operator_full_document(self, capsys):
        def prop(name):
            return {"kind": "prop", "name": name}

        def node(kind, *children):
            names = ("child",) if len(children) == 1 else ("left", "right")
            return {"kind": kind, **dict(zip(names, children))}

        code, out, _ = run_cli(["parse", "!a & b | c -> X F G d U true ∨ ¬false"], capsys)
        expected = {
            "canonical": "!a & b | c -> true",
            "parsed": "!a & b | c -> X F G d U true | !false",
            "ast": node(
                "implies",
                node("or", node("and", node("not", prop("a")), prop("b")), prop("c")),
                node(
                    "or",
                    node("until", node("next", node("eventually", node("always", prop("d")))), node("true")),
                    node("not", node("false")),
                ),
            ),
        }
        assert code == 0
        assert out == json.dumps(expected, ensure_ascii=False, indent=2) + "\n"


class TestProgressCommand:
    def test_satisfaction(self, capsys):
        code, out, err = run_cli(["progress", "F putdown", "--labels", "putdown"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record == {"t": 1, "residual": "true", "verdict": "satisfied"}

    def test_violation(self, capsys):
        code, out, _ = run_cli(["progress", "G p", "--labels", ""], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "violated"

    def test_always_true_is_satisfied(self, capsys):
        code, out, _ = run_cli(["progress", "G true", "--labels", "p"], capsys)
        assert code == 0
        assert json.loads(out) == {"t": 1, "residual": "true", "verdict": "satisfied"}

    def test_steps_file_reproduces_residual_sequence(self, capsys, tmp_path):
        steps = tmp_path / "steps.txt"
        steps.write_text("pickup\nputdown\n", encoding="utf-8")
        code, out, _ = run_cli(
            ["progress", "F(pickup & X F putdown)", "--steps-file", str(steps)], capsys
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["verdict"] == "inconclusive"
        assert "F putdown" in records[0]["residual"]
        assert records[1] == {"t": 2, "residual": "true", "verdict": "satisfied"}


class TestReferenceAgreement:
    """``parse`` and ``progress`` print what the reference ``simplify(progress(...))`` computes."""

    def test_random_formulas_and_label_sequences(self, capsys, tmp_path):
        rng = random.Random(20261018)
        steps = tmp_path / "steps.txt"
        for _ in range(300):
            text = render(random_formula(rng, rng.randint(0, 4)), "ascii")
            phi = parse(text)
            assignments = [random_assignment(rng, DEFAULT_PROPS) for _ in range(20)]
            steps.write_text("".join(",".join(sorted(a)) + "\n" for a in assignments), encoding="utf-8")
            expected, residual = [], simplify(phi)
            for t, labels in enumerate(assignments, 1):
                residual = simplify(progress(residual, labels))
                record = {"t": t, "residual": render(residual, "ascii"), "verdict": verdict_of(residual).value}
                expected.append(json.dumps(record, ensure_ascii=False) + "\n")
            code, out, _ = run_cli(["progress", text, "--steps-file", str(steps)], capsys)
            assert code == 0 and out == "".join(expected), text
            code, out, _ = run_cli(["parse", text], capsys)
            assert code == 0 and json.loads(out)["canonical"] == render(simplify(phi), "ascii"), text


class TestAuditCommand:
    def test_constant_temporal_operands_reduce_to_true(self, capsys, tmp_path):
        # Without the temporal unit laws the residual gains a layer per step
        # and the audit dies of recursion depth within 300 steps.
        config, trace = tmp_path / "config.json", tmp_path / "trace.jsonl"
        write_json(config, {**RULE_CONFIG, "constraints": [{"id": "c", "formula": "X(G true U G true)"}]})
        write_trace(trace, ["idle"] * 300)
        code, out, _ = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 0
        (report,) = json.loads(out)["reports"]
        assert report["violations"] == 0 and report["satisfactions"] == 300

    def test_compliant_trace_exit_0(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        trace = tmp_path / "trace.jsonl"
        write_json(config, RULE_CONFIG)
        write_trace(trace, ["move", "reach the goal"])
        code, out, _ = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 0
        document = json.loads(out)
        assert {r["constraint_id"] for r in document["reports"]} == {"no_bad", "reach_goal"}

    def test_violating_trace_exit_1_with_witness(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        trace = tmp_path / "trace.jsonl"
        report_path = tmp_path / "report.json"
        write_json(config, RULE_CONFIG)
        write_trace(trace, ["a bad move", "goal"])
        code, _, err = run_cli(
            ["audit", str(trace), "--config", str(config), "--out", str(report_path)],
            capsys,
        )
        assert code == 1
        document = json.loads(report_path.read_text())
        no_bad = next(r for r in document["reports"] if r["constraint_id"] == "no_bad")
        assert no_bad["violations"] == 1
        assert len(no_bad["witnesses"]) >= 1
        assert no_bad["witnesses"][0]["entries"][-1]["residual"] == "false"

    def test_missing_config_exit_2(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        write_trace(trace, ["x"])
        code, _, err = run_cli(
            ["audit", str(trace), "--config", str(tmp_path / "absent.json")], capsys
        )
        assert code == 2
        assert "error:" in err

    def test_bad_formula_in_config_exit_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        trace = tmp_path / "trace.jsonl"
        write_json(config, {"constraints": [{"id": "c", "formula": "G("}]})
        write_trace(trace, ["x"])
        code, _, err = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 2

    def test_endpoint_labeler_without_vocabulary_exit_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        trace = tmp_path / "trace.jsonl"
        endpoint = {"base_url": "http://127.0.0.1:9/v1", "model": "m"}
        labeler = {"type": "endpoint", "endpoint": endpoint}
        write_json(config, {**RULE_CONFIG, "labeler": labeler})
        write_trace(trace, ["x"])
        code, _, err = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 2
        assert "error:" in err and "vocabulary" in err

    def test_invalid_rule_regex_exit_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        trace = tmp_path / "trace.jsonl"
        labeler = {"type": "rule", "vocabulary": ["bad"], "rules": {"bad": "(("}}
        write_json(config, {**RULE_CONFIG, "labeler": labeler})
        write_trace(trace, ["x"])
        code, _, err = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 2
        assert "error:" in err and "regex" in err

    def test_out_in_missing_directory_exit_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        trace = tmp_path / "trace.jsonl"
        write_json(config, RULE_CONFIG)
        write_trace(trace, ["fine", "goal reached"])
        out = tmp_path / "missing" / "r.json"
        code, _, err = run_cli(
            ["audit", str(trace), "--config", str(config), "--out", str(out)], capsys
        )
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_cross_check_flag(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        trace = tmp_path / "trace.jsonl"
        write_json(config, RULE_CONFIG)
        write_trace(trace, ["ok", "bad thing", "goal", "ok"])
        code, _, _ = run_cli(
            ["audit", str(trace), "--config", str(config), "--cross-check"], capsys
        )
        assert code == 1

    def test_f1_against_self_is_one(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        trace = tmp_path / "trace.jsonl"
        report_path = tmp_path / "report.json"
        write_json(config, RULE_CONFIG)
        write_trace(trace, ["bad", "goal"])
        run_cli(
            ["audit", str(trace), "--config", str(config), "--out", str(report_path)],
            capsys,
        )
        code, _, err = run_cli(
            [
                "audit",
                str(trace),
                "--config",
                str(config),
                "--f1-against",
                str(report_path),
                "--out",
                str(tmp_path / "second.json"),
            ],
            capsys,
        )
        assert code == 1
        assert "pooled F1 1.0000" in err
        second = json.loads((tmp_path / "second.json").read_text())
        assert second["f1"]["pooled"]["f1"] == 1.0

    @pytest.mark.parametrize(
        "truth, field",
        [
            ({"mode": "reset"}, "reports"),
            ({"reports": [{"verdicts": [], "violations": 0, "satisfactions": 0}]}, "constraint_id"),
        ],
    )
    def test_malformed_f1_truth_exit_2(self, capsys, tmp_path, truth, field):
        config = tmp_path / "config.json"
        trace = tmp_path / "trace.jsonl"
        truth_path = tmp_path / "truth.json"
        write_json(config, RULE_CONFIG)
        write_json(truth_path, truth)
        write_trace(trace, ["bad", "goal"])
        code, _, err = run_cli(
            ["audit", str(trace), "--config", str(config), "--f1-against", str(truth_path)],
            capsys,
        )
        assert code == 2
        assert "error:" in err and repr(field) in err

    @pytest.mark.parametrize(
        "report, message",
        [
            ({"verdicts": "violated"}, "verdicts must be an array, got 'violated'"),
            ({"violations": "1"}, "violations must be an integer, got '1'"),
            ({"witnesses": {}}, "witnesses must be an array, got {}"),
            (
                {"witnesses": [{"verdict": "violated", "entries": [{"t": 1, "labels": "bad", "residual": "false"}]}]},
                "labels must be an array, got 'bad'",
            ),
        ],
        ids=["verdicts-string", "violations-string", "witnesses-object", "entry-labels-string"],
    )
    def test_wrongly_typed_f1_truth_exit_2(self, capsys, tmp_path, report, message):
        config, trace, truth = tmp_path / "config.json", tmp_path / "trace.jsonl", tmp_path / "truth.json"
        write_json(config, RULE_CONFIG)
        base = {"constraint_id": "no_bad", "verdicts": ["violated"], "violations": 1, "satisfactions": 0}
        write_json(truth, {"reports": [{**base, **report}]})
        write_trace(trace, ["bad"])
        code, out, err = run_cli(["audit", str(trace), "--config", str(config), "--f1-against", str(truth)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {truth}: malformed report: {message}\n"

    def test_embedded_labels_outside_vocabulary_kept_without_relabel(self, capsys, tmp_path):
        # The vocabulary check covers what a labeler produces, not labels a
        # trace embeds: without --relabel, step 1 keeps its labels as given,
        # "done" included, and only step 2 is labeled.
        config, trace = tmp_path / "config.json", tmp_path / "trace.jsonl"
        write_json(config, RULE_CONFIG)
        trace.write_text(
            json.dumps({"t": 1, "output": "x", "labels": ["done", "goal"]}) + "\n"
            + json.dumps({"t": 2, "output": "fine"}) + "\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 0
        assert err == "audited 2 steps against 2 constraints: 0 violation(s)\n"
        entry = {"t": 1, "input": "", "output": "x", "labels": ["done", "goal"], "residual": "true"}
        assert json.loads(out) == {
            "reports": [
                {
                    "constraint_id": "no_bad",
                    "verdicts": ["inconclusive", "inconclusive"],
                    "violations": 0,
                    "satisfactions": 0,
                    "witnesses": [],
                },
                {
                    "constraint_id": "reach_goal",
                    "verdicts": ["satisfied", "inconclusive"],
                    "violations": 0,
                    "satisfactions": 1,
                    "witnesses": [{"verdict": "satisfied", "entries": [entry]}],
                },
            ],
            "mode": "reset",
            "trace_length": 2,
        }

    def test_embedded_labels_used_when_no_labeler(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        trace = tmp_path / "trace.jsonl"
        write_json(config, {"constraints": [{"id": "c", "formula": "F done"}]})
        trace.write_text(
            json.dumps({"t": 1, "output": "anything", "labels": ["done"]}) + "\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 0
        assert json.loads(out)["reports"][0]["verdicts"] == ["satisfied"]

    def test_proposition_outside_vocabulary_exit_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        trace = tmp_path / "trace.jsonl"
        labeler = {"type": "rule", "vocabulary": ["bad"], "rules": {"bad": r"\bbad\b"}}
        write_json(config, {"constraints": [{"id": "c", "formula": "G !bda"}], "labeler": labeler})
        write_trace(trace, ["a bad move"])
        code, out, err = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: constraint 'c': proposition(s) bda ")

    def test_non_string_input_exit_2(self, capsys, tmp_path):
        config, trace = tmp_path / "config.json", tmp_path / "trace.jsonl"
        write_json(config, RULE_CONFIG)
        trace.write_text(json.dumps({"t": 1, "input": 5, "output": "ok"}) + "\n", encoding="utf-8")
        code, out, err = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 2 and out == ""
        assert err == "error: line 1: 'input' must be a string\n"

    def test_boolean_step_index_exit_2(self, capsys, tmp_path):
        config, trace = tmp_path / "config.json", tmp_path / "trace.jsonl"
        write_json(config, RULE_CONFIG)
        trace.write_text(json.dumps({"t": True, "output": "bad"}) + "\n", encoding="utf-8")
        code, out, err = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 2 and out == ""
        assert err == "error: line 1: missing or non-integer 't'\n"

    def test_embedded_labels_warn_on_unseen_proposition(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        trace = tmp_path / "trace.jsonl"
        write_json(config, {"constraints": [{"id": "c", "formula": "F done & G !oops"}]})
        trace.write_text(
            json.dumps({"t": 1, "output": "anything", "labels": ["done"]}) + "\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 0
        assert json.loads(out)["reports"][0]["verdicts"] == ["inconclusive"]
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert warnings == ["warning: constraint 'c': proposition 'oops' is in no step's labels"]

    def test_proposition_check_reads_the_written_formula(self, capsys, tmp_path):
        # Normalizing drops `zzz` from `G (zzz | true)`; the check reads the
        # propositions the formula is written with.
        config, trace = tmp_path / "config.json", tmp_path / "trace.jsonl"
        constraints = [{"id": "c", "formula": "G (zzz | true) & G !bad"}]
        labeler = {"type": "rule", "vocabulary": ["bad"], "rules": {"bad": r"\bbad\b"}}
        write_json(config, {"constraints": constraints, "labeler": labeler})
        write_trace(trace, ["a bad move"])
        code, out, err = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: constraint 'c': proposition(s) zzz ")
        write_json(config, {"constraints": constraints})
        trace.write_text(json.dumps({"t": 1, "output": "a bad move", "labels": ["bad"]}) + "\n", encoding="utf-8")
        code, out, err = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 1
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert warnings == ["warning: constraint 'c': proposition 'zzz' is in no step's labels"]

    def test_unknown_top_level_key_exit_2(self, capsys, tmp_path):
        config, trace, report = tmp_path / "config.json", tmp_path / "trace.jsonl", tmp_path / "r.json"
        write_json(config, {**RULE_CONFIG, "polcy": {"strategy": "resample"}, "Mode": "plain"})
        write_trace(trace, ["a bad move"])
        code, out, err = run_cli(["audit", str(trace), "--config", str(config), "--out", str(report)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: unknown config key(s): 'Mode', 'polcy'\n"
        assert not report.exists()

    def test_config_formulas_are_states_of_one_automaton(self, tmp_path):
        config_path = tmp_path / "config.json"
        constraints = [
            {"id": "a", "formula": "G (bad -> F goal) & G (bad -> F goal)"},
            {"id": "b", "formula": "F goal | false"},
        ]
        write_json(config_path, {**RULE_CONFIG, "constraints": constraints})
        config = load_config(config_path)
        automaton = config.automaton
        for cid, text in (("a", "G (bad -> F goal)"), ("b", "F goal")):
            assert config.constraints[cid] is automaton.normalize(parse(text))
        assert config.propositions == {"a": {"bad", "goal"}, "b": {"goal"}}


class TestGuardCommand:
    def test_switch_guard_run(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        write_json(config, GUARD_CONFIG)
        out_dir = tmp_path / "run"
        code, _, err = run_cli(
            [
                "guard",
                "--config",
                str(config),
                "--max-steps",
                "8",
                "--seed",
                "3",
                "--out-dir",
                str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        assert (out_dir / "trace.jsonl").exists()
        assert (out_dir / "guard_log.jsonl").exists()
        reports = json.loads((out_dir / "reports.json").read_text())
        assert reports["violation_rate"] == 0.0
        log_lines = [
            json.loads(line) for line in (out_dir / "guard_log.jsonl").read_text().splitlines()
        ]
        assert all(
            set(entry) >= {"t", "intervened", "strategy", "verdicts", "trigger_risk"}
            for entry in log_lines
        )

    def test_baseline_none_strategy(self, capsys, tmp_path):
        config_doc = dict(GUARD_CONFIG)
        config_doc["policy"] = {"strategy": "none"}
        config = tmp_path / "config.json"
        write_json(config, config_doc)
        out_dir = tmp_path / "run"
        code, _, err = run_cli(
            ["guard", "--config", str(config), "--max-steps", "6", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        log_lines = [
            json.loads(line) for line in (out_dir / "guard_log.jsonl").read_text().splitlines()
        ]
        assert all(entry["intervened"] is False for entry in log_lines)

    def test_missing_model_exit_2(self, capsys, tmp_path):
        config_doc = {k: v for k, v in GUARD_CONFIG.items() if k != "model"}
        config = tmp_path / "config.json"
        write_json(config, config_doc)
        code, _, err = run_cli(
            ["guard", "--config", str(config), "--max-steps", "3"], capsys
        )
        assert code == 2

    def test_model_failure_flushes_partial_outputs(self, capsys, tmp_path):
        config_doc = dict(GUARD_CONFIG)
        config_doc["model"] = {
            "type": "endpoint",
            "base_url": "http://127.0.0.1:1/v1",
            "model": "downed",
            "retries": 1,
            "timeout": 0.2,
        }
        config_doc["policy"] = {"strategy": "none"}
        config = tmp_path / "config.json"
        write_json(config, config_doc)
        out_dir = tmp_path / "run"
        code, _, err = run_cli(
            ["guard", "--config", str(config), "--max-steps", "3", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert "partial outputs flushed" in err
        assert (out_dir / "guard_log.jsonl").exists()
        assert (out_dir / "trace.jsonl").exists()

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": "abc"},
            {"model": {"type": "scripted", "distributions": [[["bad move", -1], ["ok move", 1]]]}},
            {"labeler": {"type": "event", "entities": "two"}},
            {"policy": {**GUARD_CONFIG["policy"], "n": 2.5}},
            {"policy": {**GUARD_CONFIG["policy"], "k": 1.5}},
            {"policy": {**GUARD_CONFIG["policy"], "m": 2.0}},
            {"policy": {**GUARD_CONFIG["policy"], "k": True}},
            {"policy": {**GUARD_CONFIG["policy"], "tau": True}},
            {"policy": {**GUARD_CONFIG["policy"], "strategy": "inject", "inject_template": 5}},
            {"initial_input": 5},
            {"initial_input": None},
            {"stop_token": 7},
            {"stop_token": "END"},
            {"model": {**GUARD_CONFIG["model"], "stop_token": "END"}},
            {"seed": 2.7},
            {"seed": True},
            {"labeler": {"type": "event", "entities": 2.5}},
            {"labeler": {"type": "event", "entities": True}},
            {"labeler": {"type": "endpoint", "endpoint": ENDPOINT, "vocabulary": ["bad"], "max_context_chars": 2.5}},
            {"labeler": {"type": "endpoint", "endpoint": {**ENDPOINT, "base_url": 5}, "vocabulary": ["bad"]}},
            {"constraints": [{"id": "no_bad", "formula": "G !bad", "gloss": 5}]},
            {"model": {**ENDPOINT, "base_url": 5}},
            {"model": {**ENDPOINT, "api_key_env": 5}},
            {"model": {**ENDPOINT, "audit_log_path": 5}},
            {"model": {**ENDPOINT, "retries": 2.5}},
            {"model": {**ENDPOINT, "retries": True}},
            {"substitute_model": {**ENDPOINT, "timeout": True}},
            {"action_temperature": True},
            {"action_temperature": "0.2"},
            {"sampling_temperature": "0.8"},
            {"sampling_temperature": None},
            {"labeler": {"type": "endpoint", "endpoint": ENDPOINT, "vocabulary": ["bad"], "temperature": True}},
            {"labeler": {"type": "endpoint", "endpoint": ENDPOINT, "vocabulary": ["bad"], "temperature": "0"}},
            {"model": {"type": "scripted", "distributions": [[["bad move", "0.5"], ["ok move", 0.5]]]}},
            {"model": {"type": "scripted", "distributions": [[["bad move", True], ["ok move", 0.5]]]}},
            {"substitute_model": {"type": "scripted", "distributions": [[["ok move", True]]]}},
            {"model": {"type": "scripted", "distributions": [[[5, 0.5], ["ok move", 0.5]]]}},
            {"model": {"type": "scripted", "distributions": [[[None, 0.5], ["ok move", 0.5]]]}},
            {"labeler": {"type": "event", "tagged": "no"}},
            {"labeler": {"type": "event", "tagged": 1}},
            {"labeler": {"type": "event", "tagged": None}},
            {"model": {"type": "scripted", "outputs": "abc"}},
            # A script has outputs or distributions, not both.
            {"model": {"type": "scripted", "outputs": ["ok move"], "distributions": [[["bad move", 1.0]]]}},
            {"substitute_model": []},
            {"policy": []},
            {"policy": {**GUARD_CONFIG["policy"], "template_path": 0}},
            {"policy": {**GUARD_CONFIG["policy"], "substitute_model": 0}},
            {"labeler": {"type": "rule", "vocabulary": ["bad"], "rules": []}},
            {"labeler": {"type": "rule", "vocabulary": "bad", "rules": {"b": "b", "a": "a", "d": "d"}}},
            # A vocabulary proposition without a rule could never be labeled.
            {"labeler": {"type": "rule", "vocabulary": ["bad"], "rules": {}}},
        ],
    )
    def test_bad_config_value_exit_2(self, capsys, tmp_path, override):
        config = tmp_path / "config.json"
        write_json(config, {**GUARD_CONFIG, **override})
        code, _, err = run_cli(
            ["guard", "--config", str(config), "--max-steps", "3", "--out-dir", str(tmp_path / "run")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: invalid config value")
        # Rejected before the session starts: no step ran, no output was written.
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("max_steps", ["0", "-1"])
    def test_max_steps_below_one_exit_2(self, capsys, tmp_path, max_steps):
        config = tmp_path / "config.json"
        write_json(config, GUARD_CONFIG)
        code, _, err = run_cli(
            ["guard", "--config", str(config), "--max-steps", max_steps, "--out-dir", str(tmp_path / "run")],
            capsys,
        )
        assert code == 2
        assert err.startswith(f"error: --max-steps must be at least 1, got {max_steps}")
        assert not (tmp_path / "run").exists()

    def test_out_dir_under_regular_file_exit_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        write_json(config, GUARD_CONFIG)
        (tmp_path / "afile").write_text("", encoding="utf-8")
        code, _, err = run_cli(
            ["guard", "--config", str(config), "--max-steps", "3", "--out-dir", str(tmp_path / "afile" / "sub")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("role, completed", [("model", 0), ("substitute_model", 2)])
    def test_unwritable_endpoint_audit_log_flushes_partial_outputs(
        self, capsys, tmp_path, role, completed
    ):
        # The scripted model's third output is the first that the switch
        # policy replaces, so a failing substitute fails at step 3.
        config_doc = {
            **GUARD_CONFIG,
            "model": {"type": "scripted", "outputs": ["ok move", "ok move", "bad move"]},
            "policy": {"strategy": "switch", "tau": 0.5, "n": 1, "k": 1, "m": 2},
        }
        out_dir = tmp_path / "run"
        with MockEndpoint(lambda body: "ok move") as mock:
            config_doc[role] = {
                "type": "endpoint",
                "base_url": mock.base_url,
                "model": "m",
                "retries": 1,
                "audit_log_path": str(tmp_path / "missing" / "audit.jsonl"),
            }
            config = tmp_path / "config.json"
            write_json(config, config_doc)
            code, _, err = run_cli(
                ["guard", "--config", str(config), "--max-steps", "5", "--out-dir", str(out_dir)],
                capsys,
            )
        assert code == 2
        assert err.startswith("error:")
        assert f"(partial outputs flushed to {out_dir})" in err
        assert len((out_dir / "trace.jsonl").read_text().splitlines()) == completed
        assert len((out_dir / "guard_log.jsonl").read_text().splitlines()) == completed

    def test_proposition_outside_vocabulary_exit_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        write_json(config, {**GUARD_CONFIG, "constraints": [{"id": "c", "formula": "G !bda"}]})
        code, _, err = run_cli(
            ["guard", "--config", str(config), "--max-steps", "3", "--out-dir", str(tmp_path / "run")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: constraint 'c': proposition(s) bda ")
        assert not (tmp_path / "run").exists()

    def test_undeclared_label_exit_2_flushes_partial_outputs(self, capsys, tmp_path):
        # A single-entity tagged event labeler declares only e1_* propositions
        # but labels every "Entity <n>:" segment it finds.
        config_doc = {
            "constraints": [{"id": "crane", "formula": "G e1_animal_crane"}],
            "labeler": {"type": "event", "entities": 1, "tagged": True},
            "model": {"type": "scripted", "outputs": ["Entity 1: a crane", "Entity 2: a crane"]},
            "policy": {"strategy": "none"},
        }
        config = tmp_path / "config.json"
        write_json(config, config_doc)
        out_dir = tmp_path / "run"
        code, _, err = run_cli(
            ["guard", "--config", str(config), "--max-steps", "3", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert "step 2: undeclared proposition(s): e2_animal_crane" in err
        assert "partial outputs flushed" in err
        assert len((out_dir / "trace.jsonl").read_text().splitlines()) == 1
        assert len((out_dir / "guard_log.jsonl").read_text().splitlines()) == 1

    def test_guard_log_carries_estimator_parameters(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        write_json(config, GUARD_CONFIG)
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            ["guard", "--config", str(config), "--max-steps", "4", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        entry = json.loads((out_dir / "guard_log.jsonl").read_text().splitlines()[0])
        assert entry["k"] == 1 and entry["m"] == 4
        assert set(entry["trigger_risk"]) == {"no_bad"}

    def test_switch_rules_list_every_constraint(self, capsys, tmp_path):
        # One constraint is glossed and one is not: the substitute is shown
        # the gloss of the first and the english rendering of the second.
        config_doc = {
            **GUARD_CONFIG,
            "constraints": [
                {"id": "a_no_bad", "formula": "G !bad", "gloss": "avoid bad moves"},
                {"id": "b_no_worse", "formula": "G !worse"},
            ],
            "labeler": {
                "type": "rule",
                "vocabulary": ["bad", "worse"],
                "rules": {"bad": r"\bbad\b", "worse": r"\bworse\b"},
            },
        }
        with MockEndpoint(lambda body: "ok move") as mock:
            config_doc["substitute_model"] = {**ENDPOINT, "base_url": mock.base_url, "retries": 1}
            config = tmp_path / "config.json"
            write_json(config, config_doc)
            code, _, _ = run_cli(
                ["guard", "--config", str(config), "--max-steps", "2", "--out-dir", str(tmp_path / "run")],
                capsys,
            )
        assert code == 0 and mock.requests
        for request in mock.requests:
            prompt = request["body"]["messages"][-1]["content"]
            assert "\n- avoid bad moves\n- always, not (worse) must hold\n" in prompt


class TestEndpointSpecValues:
    """Values the endpoint client cannot use are config errors, found before any request."""

    @pytest.mark.parametrize(
        "override",
        [
            {"retries": 0}, {"retries": -2}, {"timeout": 0}, {"timeout": -1.5}, {"backoff": -1},
            {"base_url": 5}, {"model": None}, {"api_key_env": 5}, {"system_prompt": 5},
            {"audit_log_path": 5}, {"retries": 2.5}, {"retries": True}, {"max_tokens": 2.5},
            {"timeout": "60"}, {"backoff": True},
        ],
        ids=[
            "retries-0", "retries-negative", "timeout-0", "timeout-negative", "backoff-negative",
            "base_url-int", "model-null", "api_key_env-int", "system_prompt-int",
            "audit_log_path-int", "retries-float", "retries-bool", "max_tokens-float",
            "timeout-string", "backoff-bool",
        ],
    )
    def test_build_model_rejects(self, override):
        with pytest.raises(ConfigError, match="invalid config value"):
            build_model({**ENDPOINT, **override})

    @pytest.mark.parametrize("chars", [0, -5])
    def test_build_labeler_rejects_context_window(self, chars):
        spec = {"type": "endpoint", "endpoint": ENDPOINT, "vocabulary": ["bad"], "max_context_chars": chars}
        with pytest.raises(ConfigError, match="max_context_chars"):
            build_labeler(spec)

    def test_guard_exit_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        write_json(config, {**GUARD_CONFIG, "model": {**ENDPOINT, "retries": 0}})
        code, _, err = run_cli(
            ["guard", "--config", str(config), "--max-steps", "3", "--out-dir", str(tmp_path / "run")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: invalid config value: retries must be at least 1")

    def test_bench_eval_exit_2(self, capsys, tmp_path):
        bench = tmp_path / "bench.jsonl"
        run_cli(
            ["bench", "gen", "--suite", "elasticity", "--count", "2", "--out", str(bench)], capsys
        )
        judge = tmp_path / "judge.json"
        write_json(judge, {"base_url": ENDPOINT["base_url"], "model": "m", "timeout": 0})
        code, out, err = run_cli(
            ["bench", "eval", "--bench", str(bench), "--judge", "endpoint", "--judge-config", str(judge)],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: invalid config value: timeout must be positive")

    def test_endpoint_labeler_inner_type_exit_2(self, capsys, tmp_path):
        # A nested endpoint spec must not turn into another model type.
        config = tmp_path / "config.json"
        endpoint = {"type": "scripted", "outputs": ["bad: yes"], "base_url": ENDPOINT["base_url"], "model": "m"}
        labeler = {"type": "endpoint", "endpoint": endpoint, "vocabulary": ["bad"]}
        write_json(config, {**GUARD_CONFIG, "labeler": labeler})
        code, out, err = run_cli(
            ["guard", "--config", str(config), "--max-steps", "3", "--out-dir", str(tmp_path / "run")],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: invalid config value: endpoint's 'type' must be 'endpoint' or absent, got 'scripted'\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["scripted", None, 5])
    def test_bench_eval_judge_inner_type_exit_2(self, capsys, tmp_path, kind):
        bench = tmp_path / "bench.jsonl"
        run_cli(["bench", "gen", "--suite", "elasticity", "--count", "2", "--out", str(bench)], capsys)
        judge = tmp_path / "judge.json"
        with MockEndpoint(lambda body: "VALID") as mock:
            write_json(judge, {"type": kind, "outputs": ["VALID"], "base_url": mock.base_url, "model": "m"})
            code, out, err = run_cli(
                ["bench", "eval", "--bench", str(bench), "--judge", "endpoint", "--judge-config", str(judge)],
                capsys,
            )
            assert mock.requests == []
        assert (code, out) == (2, "")
        assert err == f"error: invalid config value: judge config's 'type' must be 'endpoint' or absent, got {kind!r}\n"

    def test_bench_eval_bad_type_exit_2(self, capsys, tmp_path):
        bench = tmp_path / "bench.jsonl"
        run_cli(
            ["bench", "gen", "--suite", "elasticity", "--count", "2", "--out", str(bench)], capsys
        )
        judge = tmp_path / "judge.json"
        write_json(judge, {"base_url": 5, "model": "m"})
        code, out, err = run_cli(
            ["bench", "eval", "--bench", str(bench), "--judge", "endpoint", "--judge-config", str(judge)],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == "error: invalid config value: base_url must be a string, got 5\n"


# Each config section with its declared keys, taken from the tables:
# (section as errors name it, its keys, a valid guard config, the path to the
# section in it).  Every model and labeler type needs a valid spec here.
ENDPOINT_LABELER = {"type": "endpoint", "endpoint": ENDPOINT, "vocabulary": ["bad"]}
MODEL_SPECS = {"scripted": GUARD_CONFIG["model"], "endpoint": ENDPOINT}
LABELER_SPECS = {
    "embedded": {"type": "embedded"}, "rule": GUARD_CONFIG["labeler"], "event": {"type": "event"},
    "endpoint": ENDPOINT_LABELER,
}
SECTION_CASES = [
    ("config", KEYS, GUARD_CONFIG, ()),
    ("constraint #1", CONSTRAINT_KEYS, GUARD_CONFIG, ("constraints", 0)),
    ("policy", POLICY_KEYS, GUARD_CONFIG, ("policy",)),
    *(
        (f"{kind} model", keys, {**GUARD_CONFIG, "model": MODEL_SPECS[kind]}, ("model",))
        for kind, (keys, _) in MODELS.items()
    ),
    ("scripted substitute_model", MODELS["scripted"][0], GUARD_CONFIG, ("substitute_model",)),
    (
        "scripted policy.substitute_model",
        MODELS["scripted"][0],
        {**GUARD_CONFIG, "policy": {**GUARD_CONFIG["policy"], "substitute_model": GUARD_CONFIG["substitute_model"]}},
        ("policy", "substitute_model"),
    ),
    *(
        (f"{kind} labeler", keys, {**GUARD_CONFIG, "labeler": LABELER_SPECS[kind]}, ("labeler",))
        for kind, (keys, _) in LABELERS.items()
    ),
    ("endpoint", ENDPOINT_KEYS, {**GUARD_CONFIG, "labeler": ENDPOINT_LABELER}, ("labeler", "endpoint")),
]


def misspelled(key, keys=()):
    """``key`` without its last letter, as ``glos`` for ``gloss``; or, where
    that spells another of ``keys``, with its last letter doubled, as
    ``modell`` for the top level's ``model``."""
    return key + key[-1] if key[:-1] in keys else key[:-1]


def with_misspelled(section, key, keys=()):
    """A copy of ``section`` with ``key`` misspelled, or added misspelled."""
    section = dict(section)
    section[misspelled(key, keys)] = section.pop(key, "x")
    return section


def replaced(doc, path, change):
    """A deep copy of ``doc`` whose value at ``path`` is ``change`` of it."""
    doc = copy.deepcopy(doc)
    if not path:
        return change(doc)
    parent = value_at(doc, path[:-1])
    parent[path[-1]] = change(parent[path[-1]])
    return doc


class TestUnknownSectionKeys:
    """Every declared key of every section, misspelled, exits 2 with one
    error line that names it and its section, before any output is written."""

    @pytest.mark.parametrize(
        "section, keys, key, doc, path",
        [(section, keys, key, doc, path) for section, keys, doc, path in SECTION_CASES for key in sorted(keys)],
        ids=[f"{section}-{key}" for section, keys, _, _ in SECTION_CASES for key in sorted(keys)],
    )
    @pytest.mark.parametrize("command", ["audit", "guard"])
    def test_exit_2(self, capsys, tmp_path, command, section, keys, key, doc, path):
        assert misspelled(key, keys) not in keys
        doc = replaced(doc, path, lambda spec: with_misspelled(spec, key, keys))
        config, trace, out = tmp_path / "config.json", tmp_path / "trace.jsonl", tmp_path / "out"
        write_json(config, doc)
        write_trace(trace, ["a bad move"])
        if command == "audit":
            argv = ["audit", str(trace), "--config", str(config), "--out", str(out)]
        else:
            argv = ["guard", "--config", str(config), "--max-steps", "2", "--out-dir", str(out)]
        code, stdout, err = run_cli(argv, capsys)
        assert (code, stdout) == (2, "")
        if key == "type" and section != "endpoint":
            # Without its type a model or labeler spec has no key set.
            assert err == f"error: unknown {section.split(' ', 1)[1]} type None\n"
        else:
            assert err == f"error: unknown {section} key(s): {misspelled(key, keys)!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", sorted(ENDPOINT_KEYS))
    def test_judge_config_exit_2(self, capsys, tmp_path, key):
        bench, judge, out = tmp_path / "bench.jsonl", tmp_path / "judge.json", tmp_path / "eval.json"
        run_cli(["bench", "gen", "--suite", "elasticity", "--count", "2", "--out", str(bench)], capsys)
        assert misspelled(key) not in ENDPOINT_KEYS
        write_json(judge, with_misspelled(ENDPOINT, key))
        code, stdout, err = run_cli(
            ["bench", "eval", "--bench", str(bench), "--judge", "endpoint", "--judge-config", str(judge),
             "--out", str(out)],
            capsys,
        )
        assert (code, stdout) == (2, "")
        assert err == f"error: unknown judge config key(s): {misspelled(key)!r}\n"
        assert not out.exists()



class RecordingSpec(dict):
    """A spec that records every key read from it."""

    def __init__(self, spec):
        super().__init__(spec)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


class TestTypeTables:
    """``MODELS`` and ``LABELERS`` own each type's name and keys: the
    builders dispatch through them and read no key they do not declare."""

    @pytest.mark.parametrize(
        "build, table, specs",
        [
            (build_model, MODELS, [GUARD_CONFIG["model"], {"type": "scripted", "outputs": ["a"]}, ENDPOINT]),
            (
                build_labeler,
                LABELERS,
                [{"type": "embedded"}, RULE_CONFIG["labeler"], {"type": "event"}, ENDPOINT_LABELER],
            ),
        ],
        ids=["model", "labeler"],
    )
    def test_builders_read_the_declared_keys(self, build, table, specs):
        read = {kind: set() for kind in table}
        for spec in specs:
            spec = RecordingSpec(spec)
            build(spec)
            read[spec["type"]] |= spec.read
        assert read == {kind: set(keys) for kind, (keys, _) in table.items()}

    @pytest.mark.parametrize("build, section", [(build_model, "model"), (build_labeler, "labeler")])
    @pytest.mark.parametrize("kind", ["x", None, 5])
    def test_unknown_type(self, build, section, kind):
        with pytest.raises(ConfigError, match=f"^unknown {section} type {kind!r}$"):
            build({"type": kind, "outputs": ["a"]})

    def test_builder_checks_keys(self):
        with pytest.raises(ConfigError, match="^unknown scripted model key\\(s\\): 'temprature'$"):
            build_model({**GUARD_CONFIG["model"], "temprature": 0.5})


DROP = object()
MUTATION_POOL = (DROP, None, -1, 0, "x", [], {}, True, 2.5)
MUTATION_BASES = (
    ("audit", RULE_CONFIG),
    ("audit", {"constraints": [{"id": "done", "formula": "F done"}], "labeler": {"type": "embedded"}}),
    ("guard", GUARD_CONFIG),
    (
        "guard",
        {
            **GUARD_CONFIG,
            "model": {"type": "scripted", "outputs": ["ok move", "bad move"]},
            "policy": {
                "strategy": "resample", "tau": 0.0, "n": 2, "k": 2, "m": 2,
                "pattern": "contains_violated",
            },
        },
    ),
)


def json_paths(node, prefix=()):
    """Paths to every value below the root of a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    """A valid config with one or two values dropped or replaced from a small pool."""
    command, doc = draw(st.sampled_from(MUTATION_BASES))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        paths = list(json_paths(doc))
        if not paths:
            break
        *parents, last = draw(st.sampled_from(paths))
        node = doc
        for key in parents:
            node = node[key]
        value = draw(st.sampled_from(MUTATION_POOL))
        if value is DROP:
            del node[last]
        else:
            node[last] = copy.deepcopy(value)
    return command, doc


def rejected(config_path, command):
    """Whether config loading rejects the document; it may raise nothing but ConfigError."""
    try:
        config = load_config(config_path)
        build_labeler(config.labeler_spec)
        if command == "guard":
            build_model(config.model_spec)
            if config.substitute_spec:
                build_model(config.substitute_spec)
    except ConfigError:
        return True
    return False


class TestConfigMutation:
    @settings(max_examples=60, deadline=None)
    @given(case=mutated_configs())
    def test_mutated_config_keeps_exit_contract(self, case):
        command, doc = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            config = tmp / "config.json"
            write_json(config, doc)
            if command == "audit":
                trace = tmp / "trace.jsonl"
                steps = [("a bad move", ["bad"]), ("goal done", ["goal", "done"])]
                trace.write_text(
                    "".join(
                        json.dumps({"t": t, "output": out, "labels": labels}) + "\n"
                        for t, (out, labels) in enumerate(steps, 1)
                    ),
                    encoding="utf-8",
                )
                argv = ["audit", str(trace), "--config", str(config), "--relabel"]
            else:
                argv = ["guard", "--config", str(config), "--max-steps", "2", "--out-dir", str(tmp / "run")]
            was_rejected = rejected(config, command)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in ((0, 1, 2) if command == "audit" else (0, 2))
        if was_rejected:
            assert code == 2
        if code == 2:
            assert err.getvalue().startswith("error:")


def wrong_kinds(value):
    """The empty or zero value of each JSON kind other than ``value``'s,
    and 2.5 in place of an integer."""

    def kind(v):
        return "number" if type(v) in (int, float) else type(v)

    return [v for v in ("", 0, False, [], {}) if kind(v) != kind(value)] + [2.5] * (type(value) is int)


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


class TestEveryValueOfAnotherKind:
    """Each non-null value of each mutation base, replaced by a value of
    another JSON kind, is rejected before any step runs or output is written."""

    @pytest.mark.parametrize(
        "command, base", MUTATION_BASES, ids=["audit-rule", "audit-embedded", "guard-switch", "guard-resample"]
    )
    def test_exit_2_with_one_error_line(self, tmp_path, command, base):
        trace, config, out = tmp_path / "trace.jsonl", tmp_path / "config.json", tmp_path / "out"
        trace.write_text(json.dumps({"t": 1, "output": "goal done", "labels": ["goal", "done"]}) + "\n")
        if command == "audit":
            argv = ["audit", str(trace), "--config", str(config), "--out", str(out)]
        else:
            argv = ["guard", "--config", str(config), "--max-steps", "2", "--out-dir", str(out)]
        failures, runs = [], 0
        for path in json_paths(base):
            if value_at(base, path) is None:
                continue
            for wrong in wrong_kinds(value_at(base, path)):
                doc = copy.deepcopy(base)
                value_at(doc, path[:-1])[path[-1]] = copy.deepcopy(wrong)
                write_json(config, doc)
                err = io.StringIO()
                try:
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                        code = main(argv)
                except Exception as exc:  # an exception escaping main is a failure too
                    code = repr(exc)
                runs += 1
                lines = err.getvalue().splitlines()
                if code != 2 or len(lines) != 1 or not lines[0].startswith("error:") or out.exists():
                    failures.append((path, wrong, code, lines))
                if out.exists():
                    shutil.rmtree(out) if out.is_dir() else out.unlink()
        assert runs > 0 and failures == []


# One value of each JSON kind, as the config tables name the kinds.
KIND_VALUES = {"string": "", "integer": 0, "number": 2.5, "boolean": False, "array": [], "object": {}}


def other_kinds(kind):
    """A value of each JSON kind that a table's ``kind`` does not accept,
    where an integer counts as a number, and null unless ``kind`` allows it."""
    accepted = {"number", "integer"} if kind.rstrip("?") == "number" else {kind.rstrip("?")}
    return [value for name, value in KIND_VALUES.items() if name not in accepted] + [None] * (kind[-1] != "?")


class TestEveryKeyOfAnotherKind:
    """Every key of every section's table, set to a value of each JSON kind
    the table does not accept, exits 2 with one error line that names the
    key, before any output is written."""

    @pytest.mark.parametrize("section, keys, doc, path", SECTION_CASES, ids=[case[0] for case in SECTION_CASES])
    def test_exit_2_with_one_error_line(self, tmp_path, section, keys, doc, path):
        trace, config, out = tmp_path / "trace.jsonl", tmp_path / "config.json", tmp_path / "out"
        write_trace(trace, ["a bad move"])
        write_json(config, doc)
        assert not rejected(config, "guard")
        failures = []
        for key, kind in keys.items():
            for wrong in other_kinds(kind):
                write_json(config, replaced(doc, path, lambda spec: {**spec, key: wrong}))
                stdout, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
                    code = main(["audit", str(trace), "--config", str(config), "--out", str(out)])
                lines = err.getvalue().splitlines()
                if (code, stdout.getvalue(), len(lines)) != (2, "", 1) or key not in lines[0] or out.exists():
                    failures.append((key, wrong, code, lines))
        assert failures == []


class TestNonFiniteNumbers:
    """``NaN``, ``Infinity`` and ``-Infinity`` are not JSON: a config or a
    judge config that holds one exits 2 with one error line, writing nothing."""

    @pytest.mark.parametrize(
        "override",
        [
            {"action_temperature": float("nan")},
            {"sampling_temperature": float("inf")},
            {"seed": float("-inf")},
            {"model": {"type": "scripted", "distributions": [[["bad move", float("nan")], ["ok move", 0.5]]]}},
        ],
        ids=["action_temperature-NaN", "sampling_temperature-Infinity", "seed--Infinity", "distribution-weight-NaN"],
    )
    def test_config_exit_2(self, capsys, tmp_path, override):
        config = tmp_path / "config.json"
        write_json(config, {**GUARD_CONFIG, **override})
        code, out, err = run_cli(
            ["guard", "--config", str(config), "--max-steps", "3", "--out-dir", str(tmp_path / "run")], capsys
        )
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: config is not valid JSON: ")
        assert not (tmp_path / "run").exists()

    def test_judge_config_exit_2(self, capsys, tmp_path):
        bench, judge, out = tmp_path / "bench.jsonl", tmp_path / "judge.json", tmp_path / "eval.json"
        run_cli(["bench", "gen", "--suite", "elasticity", "--count", "2", "--out", str(bench)], capsys)
        write_json(judge, {**ENDPOINT, "timeout": float("inf")})
        code, stdout, err = run_cli(
            ["bench", "eval", "--bench", str(bench), "--judge", "endpoint", "--judge-config", str(judge),
             "--out", str(out)],
            capsys,
        )
        assert (code, stdout) == (2, "")
        assert err == "error: judge config is not valid JSON: Infinity is not a JSON number\n"
        assert not out.exists()


class TestReadmeValueTypes:
    """README's "Value types" table lists every key of every section under
    its table's kind, and no other key."""

    def test_matches_the_tables(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("**Value types.**", 1)[1].split("\n- **", 1)[0]
        listed = {
            label: dict(re.findall(r"`(\w+)` (\w+(?: or null)?)", cell))
            for label, cell in re.findall(r"^ *\| (.+?) \| (.+) \|$", block, re.M)
            if "`" in cell
        }
        # A nested endpoint spec reads the endpoint model's keys.
        assert MODELS["endpoint"][0] is ENDPOINT_KEYS
        sections = {
            "top level": KEYS, "constraint": CONSTRAINT_KEYS, "policy": POLICY_KEYS,
            **{f"`{kind}` model": keys for kind, (keys, _) in MODELS.items()},
            **{f"`{kind}` labeler": keys for kind, (keys, _) in LABELERS.items()},
        }
        assert listed == {
            label: {key: kind.replace("?", " or null") for key, kind in keys.items()}
            for label, keys in sections.items()
        }


class TestBenchCommands:
    def test_gen_balanced_counts(self, capsys, tmp_path):
        out = tmp_path / "bench.jsonl"
        code, _, err = run_cli(
            [
                "bench", "gen", "--suite", "elasticity", "--gap", "10",
                "--family", "simple", "--count", "40", "--seed", "1",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert "wrote 40 case(s)" in err
        assert "20/40" in err

    def test_gen_proposition_label_count(self, capsys, tmp_path):
        out = tmp_path / "bench.jsonl"
        code, _, _ = run_cli(
            [
                "bench", "gen", "--suite", "proposition", "--entities", "3",
                "--count", "2", "--seed", "0", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        case = json.loads(out.read_text().splitlines()[0])
        assert all(len(s["labels"]) == 12 for s in case["trace"]["steps"])

    @pytest.mark.parametrize("suite", ["constraint", "proposition"])
    def test_gen_gap_passed_through(self, capsys, tmp_path, suite):
        bench = tmp_path / "bench.jsonl"
        code, _, _ = run_cli(
            ["bench", "gen", "--suite", suite, "--gap", "17", "--count", "2", "--out", str(bench)],
            capsys,
        )
        assert code == 0
        assert all(json.loads(line)["knobs"]["gap"] == 17 for line in bench.read_text().splitlines())
        code, out, _ = run_cli(["bench", "eval", "--bench", str(bench), "--judge", "oracle"], capsys)
        assert code == 0
        assert json.loads(out)["overall"]["accuracy"] == 1.0

    @pytest.mark.parametrize("suite", ["elasticity", "constraint", "proposition"])
    def test_gen_gap_below_one_exit_2(self, capsys, tmp_path, suite):
        code, _, err = run_cli(
            ["bench", "gen", "--suite", suite, "--gap", "0", "--count", "2", "--out", str(tmp_path / "x.jsonl")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: gap must be")

    def test_eval_out_in_missing_directory_exit_2(self, capsys, tmp_path):
        bench = tmp_path / "bench.jsonl"
        run_cli(["bench", "gen", "--suite", "elasticity", "--count", "2", "--out", str(bench)], capsys)
        code, _, err = run_cli(
            ["bench", "eval", "--bench", str(bench), "--judge", "oracle", "--out", str(tmp_path / "missing" / "e.json")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_gen_invalid_knob_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            [
                "bench", "gen", "--suite", "elasticity", "--gap", "5000",
                "--count", "2", "--out", str(tmp_path / "x.jsonl"),
            ],
            capsys,
        )
        assert code == 2

    def test_eval_oracle_perfect(self, capsys, tmp_path):
        bench = tmp_path / "bench.jsonl"
        run_cli(
            [
                "bench", "gen", "--suite", "elasticity", "--gap", "4",
                "--family", "complex", "--count", "6", "--seed", "2",
                "--out", str(bench),
            ],
            capsys,
        )
        code, out, err = run_cli(
            ["bench", "eval", "--bench", str(bench), "--judge", "oracle"], capsys
        )
        assert code == 0
        assert json.loads(out)["overall"]["accuracy"] == 1.0

    def test_eval_coinflip_seeded(self, capsys, tmp_path):
        bench = tmp_path / "bench.jsonl"
        run_cli(
            [
                "bench", "gen", "--suite", "elasticity", "--gap", "2",
                "--count", "30", "--seed", "3", "--out", str(bench),
            ],
            capsys,
        )
        code, out, _ = run_cli(
            ["bench", "eval", "--bench", str(bench), "--judge", "coinflip", "--seed", "5"],
            capsys,
        )
        assert code == 0
        accuracy = json.loads(out)["overall"]["accuracy"]
        assert 0.2 <= accuracy <= 0.8

    def test_eval_endpoint_requires_judge_config(self, capsys, tmp_path):
        bench = tmp_path / "bench.jsonl"
        run_cli(
            [
                "bench", "gen", "--suite", "elasticity", "--gap", "2",
                "--count", "2", "--out", str(bench),
            ],
            capsys,
        )
        code, _, err = run_cli(
            ["bench", "eval", "--bench", str(bench), "--judge", "endpoint"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize(
        "bench_line, judge_config",
        [
            (None, "[1]"),
            ("{}", None),
            (bench_case_line({"t": 1, "output": "a fox", "labels": "animal_fox"}), None),
            (bench_case_line({"t": 1, "output": 7, "labels": ["animal_fox"]}), None),
            (bench_case_line(FOX_STEP, knobs=5), None),
            (bench_case_line(FOX_STEP, truth=[True, False]), None),
            (bench_case_line(FOX_STEP, truth=[]), None),
            (bench_case_line(FOX_STEP, truth=["yes"]), None),
            (bench_case_line(FOX_STEP, truth=[1]), None),
            (bench_case_line(FOX_STEP, truth=True), None),
            (bench_case_line(FOX_STEP, truth=[], constraints=[]), None),
            (
                bench_case_line(
                    FOX_STEP,
                    constraints=[{"id": "c1", "formula": "F animal_fox", "informal": "", "precise": "", "path": "abc"}],
                ),
                None,
            ),
        ],
        ids=[
            "judge-config-not-an-object",
            "case-without-constraints",
            "step-labels-not-an-array",
            "step-output-not-a-string",
            "knobs-not-an-object",
            "truth-longer-than-constraints",
            "truth-shorter-than-constraints",
            "truth-not-booleans",
            "truth-integer",
            "truth-not-an-array",
            "no-constraints",
            "path-not-an-array",
        ],
    )
    def test_eval_malformed_input_exit_2(self, capsys, tmp_path, bench_line, judge_config):
        bench = tmp_path / "bench.jsonl"
        if bench_line is None:
            run_cli(
                ["bench", "gen", "--suite", "elasticity", "--count", "2", "--out", str(bench)],
                capsys,
            )
        else:
            bench.write_text(bench_line + "\n", encoding="utf-8")
        judge = ["--judge", "oracle"]
        if judge_config is not None:
            (tmp_path / "judge.json").write_text(judge_config, encoding="utf-8")
            judge = ["--judge", "endpoint", "--judge-config", str(tmp_path / "judge.json")]
        code, out, err = run_cli(["bench", "eval", "--bench", str(bench), *judge], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:")


    def test_eval_bad_formula_exit_2_with_caret(self, capsys, tmp_path):
        bench = tmp_path / "bench.jsonl"
        line = json.loads(bench_case_line(FOX_STEP))
        line["constraints"][0]["formula"] = "F (animal_fox"
        bench.write_text(json.dumps(line) + "\n", encoding="utf-8")
        code, out, err = run_cli(["bench", "eval", "--bench", str(bench), "--judge", "oracle"], capsys)
        assert code == 2 and out == ""
        assert err.splitlines()[1:] == ["  F (animal_fox", "  " + " " * 13 + "^"]


class TestDeterminism:
    """Identical flags and seeds produce byte-identical machine outputs."""

    def test_guard_outputs_byte_identical(self, tmp_path):
        config = tmp_path / "config.json"
        write_json(config, GUARD_CONFIG)
        results = []
        for name in ("one", "two"):
            out_dir = tmp_path / name
            proc = run_cli_process(
                [
                    "guard", "--config", str(config), "--max-steps", "6",
                    "--seed", "11", "--out-dir", str(out_dir),
                ],
                cwd=tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
            results.append(
                tuple((out_dir / f).read_bytes() for f in ("trace.jsonl", "guard_log.jsonl", "reports.json"))
            )
        assert results[0] == results[1]

    def test_bench_gen_byte_identical(self, tmp_path):
        outputs = []
        for name in ("a.jsonl", "b.jsonl"):
            proc = run_cli_process(
                [
                    "bench", "gen", "--suite", "constraint", "--n", "4",
                    "--family", "complex", "--count", "3", "--seed", "9",
                    "--out", name,
                ],
                cwd=tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]

    def test_parse_stdout_byte_identical(self, tmp_path):
        runs = [
            run_cli_process(["parse", "G(a -> F b) & c U d"], cwd=tmp_path)
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == 0


class SpyLabeler:
    """Wraps a labeler and records each history it is called with as
    ``(t, input, output, labels)`` tuples."""

    def __init__(self, inner):
        self.inner, self.vocabulary, self.calls = inner, inner.vocabulary, []

    def __call__(self, steps):
        self.calls.append(
            [(s.t, s.input, s.output, None if s.labels is None else sorted(s.labels)) for s in steps]
        )
        return self.inner(steps)


def _spied_run(args, capsys, monkeypatch):
    """Run the CLI with its labeler wrapped by a ``SpyLabeler``; returns the
    exit code and the sha256 of every recorded history."""
    spies = []

    def build_spy(spec):
        spies.append(SpyLabeler(build_labeler(spec)))
        return spies[-1]

    monkeypatch.setattr("ltlguard.cli.build_labeler", build_spy)
    code, _, _ = run_cli(args, capsys)
    (spy,) = spies
    return code, hashlib.sha256(json.dumps(spy.calls).encode()).hexdigest()


class TestLabelerHistories:
    """The histories the labeler sees, pinned by digest."""

    def test_audit_relabel(self, capsys, tmp_path, monkeypatch):
        config, trace = tmp_path / "config.json", tmp_path / "trace.jsonl"
        write_json(config, RULE_CONFIG)
        rows = [
            {"t": t, "input": f"in {t}" if t % 4 == 1 else "", "output": ("bad", "goal", "idle")[t % 3],
             "labels": ["goal"] if t % 5 == 0 else []}
            for t in range(1, 31)
        ]
        trace.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        code, digest = _spied_run(
            ["audit", str(trace), "--config", str(config), "--relabel", "--out", str(tmp_path / "r.json")],
            capsys,
            monkeypatch,
        )
        assert code == 1
        assert digest == "e450b9b93d6911241252ac5d9c14b470f90c80cca92138cf7190fe3f1ab6553c"

    @pytest.mark.parametrize(
        "strategy, digest",
        [
            ("none", "6827b5df3d335c969bc231ad8b219259c3414ee3cf2f960a91af98839f66d70e"),
            ("resample", "eb8d883fbbac7c6b6cadd72e67d71ee2b00912992b8ec1d2c5b15b93bb4327d7"),
            ("inject", "317b0012eea12c5e04c4526fc18dfb7ad719542cbfd4da5be97fa5be3c4aa070"),
            ("switch", "3f5606a151a98c0618533c30785e0fd6321cdd71de5574ca4bed859e81b964ab"),
        ],
    )
    def test_guard(self, capsys, tmp_path, monkeypatch, strategy, digest):
        config = tmp_path / "config.json"
        policy = {"strategy": strategy, "tau": 0.3, "n": 3, "k": 2, "m": 3}
        write_json(config, {**GUARD_CONFIG, "policy": policy})
        code, actual = _spied_run(
            ["guard", "--config", str(config), "--max-steps", "30", "--seed", "5", "--out-dir", str(tmp_path / "run")],
            capsys,
            monkeypatch,
        )
        assert code == 0
        assert actual == digest
