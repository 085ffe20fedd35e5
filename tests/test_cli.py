"""End-to-end command-line behavior: exit codes, outputs, determinism."""

import contextlib
import copy
import hashlib
import io
import json
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
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
from ltlguard.predictive import PATTERNS
from ltlguard.synthbench import generator
from ltlguard.trace import ENTRY_KEYS, EPISODE_KEYS, META_KEYS, REPORT_DOCUMENT_KEYS, REPORT_KEYS, STEP_KEYS
from cli_cases import (
    BAD_CONFIG_VALUES, CASES, EDGE_VALUES, ENDPOINT, ENDPOINT_LABELER, EXIT_0_OR_1, FOX_STEP, JUDGE, MALFORMED_BENCH,
    README_CONFIG, REPORT, bench_case, case, check, judge, kind_of, misspelled, paths, replaced, shapes, trace,
    value_at, write,
)
from helpers import DEFAULT_PROPS, PACKAGE_ROOT, random_assignment, random_formula, run_cli_process
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

def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_trace(path, outputs):
    write(path, trace(*outputs))


# Three families of rows run under the parametrized tests whose cases they
# were before the table held them, case id -> row name; test_case runs the rest.
BAD_CONFIG_VALUE_ROWS = {f"override{i}": f"guard-bad-config-value-{i}" for i in range(len(BAD_CONFIG_VALUES))}
CONFIG_FAULT_ROWS = {
    row.name.removeprefix("guard-config-fault-"): row.name for row in CASES if row.name.startswith("guard-config-fault-")
}
MALFORMED_BENCH_ROWS = {name: f"bench-eval-{name}" for name in MALFORMED_BENCH} | {
    "judge-config-not-an-object": "judge-config-not-an-object"
}
FAMILY_ROWS = {*BAD_CONFIG_VALUE_ROWS.values(), *CONFIG_FAULT_ROWS.values(), *MALFORMED_BENCH_ROWS.values()}
OTHER_ROWS = [row for row in CASES if row.name not in FAMILY_ROWS]


def over_rows(family):
    """Parametrize over the rows ``family`` names, under its case ids."""
    rows = {row.name: row for row in CASES}
    return pytest.mark.parametrize("row", [rows[name] for name in family.values()], ids=list(family))


def run_rows(rows, tmp_path, monkeypatch):
    """Run each of ``rows`` in-process, each in an empty working directory of
    its own, and name every row that fails with its problems."""
    failures = {}
    for i, row in enumerate(rows):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        problems = check(row, run_main, workdir)
        monkeypatch.chdir(tmp_path)
        if problems:
            failures[row.name] = problems
        else:
            shutil.rmtree(workdir)
    assert rows
    assert failures == {}


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
        # and never becomes true.
        config, trace = tmp_path / "config.json", tmp_path / "trace.jsonl"
        write(config, {**RULE_CONFIG, "constraints": [{"id": "c", "formula": "X(G true U G true)"}]})
        write_trace(trace, ["idle"] * 300)
        code, out, _ = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 0
        (report,) = json.loads(out)["reports"]
        assert report["violations"] == 0 and report["satisfactions"] == 300

    def test_compliant_trace_exit_0(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        trace = tmp_path / "trace.jsonl"
        write(config, RULE_CONFIG)
        write_trace(trace, ["move", "reach the goal"])
        code, out, _ = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 0
        document = json.loads(out)
        assert {r["constraint_id"] for r in document["reports"]} == {"no_bad", "reach_goal"}

    def test_violating_trace_exit_1_with_witness(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        trace = tmp_path / "trace.jsonl"
        report_path = tmp_path / "report.json"
        write(config, RULE_CONFIG)
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

    def test_cross_check_flag(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        trace = tmp_path / "trace.jsonl"
        write(config, RULE_CONFIG)
        write_trace(trace, ["ok", "bad thing", "goal", "ok"])
        code, _, _ = run_cli(
            ["audit", str(trace), "--config", str(config), "--cross-check"], capsys
        )
        assert code == 1

    def test_f1_against_self_is_one(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        trace = tmp_path / "trace.jsonl"
        report_path = tmp_path / "report.json"
        write(config, RULE_CONFIG)
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

    def test_embedded_labels_outside_vocabulary_kept_without_relabel(self, capsys, tmp_path):
        # The vocabulary check covers what a labeler produces, not labels a
        # trace embeds: without --relabel, step 1 keeps its labels as given,
        # "done" included, and only step 2 is labeled.
        config, trace = tmp_path / "config.json", tmp_path / "trace.jsonl"
        write(config, RULE_CONFIG)
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
        write(config, {"constraints": [{"id": "c", "formula": "F done"}]})
        trace.write_text(
            json.dumps({"t": 1, "output": "anything", "labels": ["done"]}) + "\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 0
        assert json.loads(out)["reports"][0]["verdicts"] == ["satisfied"]

    def test_embedded_labels_warn_on_unseen_proposition(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        trace = tmp_path / "trace.jsonl"
        write(config, {"constraints": [{"id": "c", "formula": "F done & G !oops"}]})
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
        write(config, {"constraints": constraints, "labeler": labeler})
        write_trace(trace, ["a bad move"])
        code, out, err = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: constraint 'c': proposition(s) zzz ")
        write(config, {"constraints": constraints})
        trace.write_text(json.dumps({"t": 1, "output": "a bad move", "labels": ["bad"]}) + "\n", encoding="utf-8")
        code, out, err = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 1
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert warnings == ["warning: constraint 'c': proposition 'zzz' is in no step's labels"]

    def test_config_formulas_are_states_of_one_automaton(self, tmp_path):
        config_path = tmp_path / "config.json"
        constraints = [
            {"id": "a", "formula": "G (bad -> F goal) & G (bad -> F goal)"},
            {"id": "b", "formula": "F goal | false"},
        ]
        write(config_path, {**RULE_CONFIG, "constraints": constraints})
        config = load_config(config_path)
        automaton = config.automaton
        for cid, text in (("a", "G (bad -> F goal)"), ("b", "F goal")):
            assert config.constraints[cid] is automaton.normalize(parse(text))
        assert config.propositions == {"a": {"bad", "goal"}, "b": {"goal"}}


class TestGuardCommand:
    def test_switch_guard_run(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        write(config, GUARD_CONFIG)
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
        write(config, config_doc)
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

    @over_rows(CONFIG_FAULT_ROWS)
    def test_config_fault_exit_2(self, row, tmp_path, monkeypatch):
        run_rows([row], tmp_path, monkeypatch)

    @over_rows(BAD_CONFIG_VALUE_ROWS)
    def test_bad_config_value_exit_2(self, row, tmp_path, monkeypatch):
        run_rows([row], tmp_path, monkeypatch)

    @pytest.mark.parametrize("outputs", [["ok move", "a bad move"]], ids=["two"])
    def test_script_running_out_ends_the_session(self, capsys, tmp_path, outputs):
        # The script's stop token ends the run before --max-steps, and every
        # output file counts the steps that were taken.
        config = tmp_path / "config.json"
        write(config, {**GUARD_CONFIG, "model": {"type": "scripted", "outputs": outputs}})
        out_dir = tmp_path / "run"
        code, _, err = run_cli(
            ["guard", "--config", str(config), "--max-steps", "5", "--out-dir", str(out_dir)], capsys
        )
        assert code == 0
        assert err.startswith(f"ran {len(outputs)} steps, ")
        log = (out_dir / "guard_log.jsonl").read_text(encoding="utf-8").splitlines()
        trace = [json.loads(line) for line in (out_dir / "trace.jsonl").read_text(encoding="utf-8").splitlines()]
        reports = json.loads((out_dir / "reports.json").read_text(encoding="utf-8"))
        assert [step["t"] for step in trace if "t" in step] == list(range(1, len(outputs) + 1))
        assert len(log) == reports["steps"] == len(reports["reports"][0]["verdicts"]) == len(outputs)
        assert reports["violation_rate"] == 0.0
        # The run's trace audits to the run's reports.
        code, out, _ = run_cli(["audit", str(out_dir / "trace.jsonl"), "--config", str(config)], capsys)
        assert code == 0
        assert json.loads(out)["reports"] == reports["reports"]

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
        write(config, config_doc)
        out_dir = tmp_path / "run"
        code, _, err = run_cli(
            ["guard", "--config", str(config), "--max-steps", "3", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert "partial outputs flushed" in err
        assert (out_dir / "guard_log.jsonl").exists()
        assert (out_dir / "trace.jsonl").exists()

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
            write(config, config_doc)
            code, _, err = run_cli(
                ["guard", "--config", str(config), "--max-steps", "5", "--out-dir", str(out_dir)],
                capsys,
            )
        assert code == 2
        assert err.startswith("error:")
        assert f"(partial outputs flushed to {out_dir})" in err
        assert len((out_dir / "trace.jsonl").read_text().splitlines()) == completed
        assert len((out_dir / "guard_log.jsonl").read_text().splitlines()) == completed

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
        write(config, config_doc)
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
        write(config, GUARD_CONFIG)
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
            write(config, config_doc)
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
            {"timeout": "60"}, {"backoff": True}, {"timeout": 1e10}, {"timeout": float("inf")},
            {"backoff": 1e10}, {"backoff": float("inf")},
        ],
        ids=[
            "retries-0", "retries-negative", "timeout-0", "timeout-negative", "backoff-negative",
            "base_url-int", "model-null", "api_key_env-int", "system_prompt-int",
            "audit_log_path-int", "retries-float", "retries-bool", "max_tokens-float",
            "timeout-string", "backoff-bool", "timeout-1e10", "timeout-inf", "backoff-1e10", "backoff-inf",
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


# Each config section with its declared keys, taken from the tables:
# (section as errors name it, its keys, a valid guard config, the path to the
# section in it).  Every model and labeler type needs a valid spec here.
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


# Labeled, so an audit that got past its config would call no labeler.
CONFIG_TRACE = [{"t": 1, "output": "goal done", "labels": ["goal", "done"]}]


def config_row(name, command, config, **fields):
    """A run of ``command``, ``audit`` of CONFIG_TRACE or ``guard``, on
    ``config`` that exits 2 and leaves no output."""
    cmd = ("audit trace.jsonl --config config.json --out out" if command == "audit"
           else "guard --config config.json --max-steps 2 --out-dir out")
    return case(name, cmd, files={"config.json": config, "trace.jsonl": CONFIG_TRACE}, absent=("out",), **fields)


class TestUnknownSectionKeys:
    """Every declared key of every section, misspelled, exits 2 with one
    error line that names it and its section, before any output is written."""

    @pytest.mark.parametrize(
        "section, keys, key, doc, path",
        [(section, keys, key, doc, path) for section, keys, doc, path in SECTION_CASES for key in sorted(keys)],
        ids=[f"{section}-{key}" for section, keys, _, _ in SECTION_CASES for key in sorted(keys)],
    )
    @pytest.mark.parametrize("command", ["audit", "guard"])
    def test_exit_2(self, tmp_path, monkeypatch, command, section, keys, key, doc, path):
        assert misspelled(key, keys) not in keys
        if key == "type" and section != "endpoint":
            # A model or labeler spec without its type names its section.
            err = f"error: invalid config value: {section.split(' ', 1)[1]} is missing field 'type'\n"
        else:
            err = f"error: unknown {section} key(s): {misspelled(key, keys)!r}\n"
        config = replaced(doc, path, shapes(key, keys[key], keys)["misspelled"])
        row = config_row(f"{command}-{section}-{key}-misspelled", command, config, err_is=err)
        run_rows([row], tmp_path, monkeypatch)

    @pytest.mark.parametrize("key", sorted(ENDPOINT_KEYS))
    def test_judge_config_exit_2(self, tmp_path, monkeypatch, key):
        assert misspelled(key) not in ENDPOINT_KEYS
        row = judge(
            f"judge-config-{key}-misspelled",
            shapes(key, ENDPOINT_KEYS[key], ENDPOINT_KEYS)["misspelled"](dict(ENDPOINT)),
            f"error: unknown judge config key(s): {misspelled(key)!r}\n",
            cmd=f"{JUDGE} --out eval.json",
            absent=("eval.json",),
        )
        run_rows([row], tmp_path, monkeypatch)


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


@st.composite
def mutated_configs(draw):
    """A valid config with one or two values dropped or replaced from a small pool."""
    command, doc = draw(st.sampled_from(MUTATION_BASES))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        found = list(paths(doc))
        if not found:
            break
        *parents, last = draw(st.sampled_from(found))
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
            write(config, doc)
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


class TestEveryValueOfAnotherKind:
    """Each non-null value of each mutation base, replaced by a value of
    another JSON kind, is rejected before any step runs or output is written."""

    @pytest.mark.parametrize(
        "command, base", MUTATION_BASES, ids=["audit-rule", "audit-embedded", "guard-switch", "guard-resample"]
    )
    def test_exit_2_with_one_error_line(self, tmp_path, monkeypatch, command, base):
        rows = [
            config_row(
                f"{command}-{'.'.join(map(str, path))}-{name}", command, replaced(base, path[:-1], change),
                err_re=r"error: .*\n",
            )
            for path in paths(base)
            if value_at(base, path) is not None
            for name, change in shapes(path[-1], kind_of(value_at(base, path))).items()
        ]
        run_rows(rows, tmp_path, monkeypatch)


class TestEveryKeyOfAnotherKind:
    """Every key of every section's table, set to a value of each JSON kind
    the table does not accept, or dropped where the table requires it, exits
    2 with one error line that names the key, before any output is written."""

    @pytest.mark.parametrize("section, keys, doc, path", SECTION_CASES, ids=[case[0] for case in SECTION_CASES])
    def test_exit_2_with_one_error_line(self, tmp_path, monkeypatch, section, keys, doc, path):
        write(tmp_path / "base.json", doc)
        assert not rejected(tmp_path / "base.json", "guard")
        rows = [
            config_row(
                f"{section}-{key}-{name}", "audit", replaced(doc, path, change), err_re=rf"error: .*{re.escape(key)}.*\n"
            )
            for key, kind in keys.items()
            for name, change in shapes(key, kind, keys).items()
            if name != "misspelled"
        ]
        run_rows(rows, tmp_path, monkeypatch)


BENCH_CASE = {
    "knobs": {
        "suite": "constraint", "family": "simple", "gap": 1, "n": 1, "entities": 1, "length": 1, "seed": 0, "case": 0,
    },
    "truth": [True],
    "constraints": [
        {"id": "c1", "formula": "F animal_fox", "informal": "a fox", "precise": "a fox", "path": ["animal_fox"],
         "tree_paths": [["animal_fox"]]},
    ],
    "trace": {"metadata": {"seed": 0}, "steps": [{"t": 1, "input": "", "output": "a fox", "labels": ["animal_fox"]}]},
}
DECODED_TRACE = [{"meta": {"seed": 1}}, {"t": 1, "input": "go", "output": "a bad move", "labels": ["bad"]}]
# The reports an audit of DECODED_TRACE against "G !bad" writes.
DECODED_ENTRY = {"t": 1, "input": "go", "output": "a bad move", "labels": ["bad"], "residual": "false"}
DECODED_REPORT = {"reports": [{**REPORT, "witnesses": [{"verdict": "violated", "entries": [DECODED_ENTRY]}]}]}
DECODED_CONFIG = {"constraints": [{"id": "no_bad", "formula": "G !bad"}]}
# Each file a trace, report or bench file is decoded from: its path, a valid
# document of it, and the command that reads it.
DECODED_FILES = {
    "trace": ("t.jsonl", DECODED_TRACE, "audit t.jsonl --config c.json"),
    "report": ("r.json", DECODED_REPORT, "audit t.jsonl --config c.json --f1-against r.json"),
    "bench": ("b.jsonl", [BENCH_CASE], "bench eval --bench b.jsonl --judge coinflip"),
}
# Each table a trace, report or bench file is decoded through, by name: its
# keys, the file, and the path to one object it reads there.  The path into
# a JSONL file starts with the index of the line.
DECODED_TABLES = {
    "meta line": (META_KEYS, "trace", (0,)),
    "step": (STEP_KEYS, "trace", (1,)),
    "report document": (REPORT_DOCUMENT_KEYS, "report", ()),
    "report": (REPORT_KEYS, "report", ("reports", 0)),
    "witness episode": (EPISODE_KEYS, "report", ("reports", 0, "witnesses", 0)),
    "witness entry": (ENTRY_KEYS, "report", ("reports", 0, "witnesses", 0, "entries", 0)),
    "case": (generator.CASE_KEYS, "bench", (0,)),
    "bench constraint": (generator.CONSTRAINT_KEYS, "bench", (0, "constraints", 0)),
    "bench trace": (generator.TRACE_KEYS, "bench", (0, "trace")),
    "knobs": (generator.KNOB_KEYS, "bench", (0, "knobs")),
    "bench step": (STEP_KEYS, "bench", (0, "trace", "steps", 0)),
}


def run_main(argv):
    """``main(argv)``'s exit code, stdout and stderr; argparse's exit gives
    its code, and an exception that escapes ``main`` stands for its code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        code = repr(exc)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("row", OTHER_ROWS, ids=[row.name for row in OTHER_ROWS])
def test_case(row, tmp_path, monkeypatch):
    """Each row of ``cli_cases.py`` outside the three families, run in-process."""
    run_rows([row], tmp_path, monkeypatch)


class TestEveryDecodedKeyOfAnotherKind:
    """Every key of every table a trace, report or bench file is decoded
    through, set to a value of each JSON kind the table does not accept, or
    dropped where the table requires it, exits 2 with one error line that
    names the file, and the line of a JSONL file."""

    @pytest.mark.parametrize("keys, file, path", list(DECODED_TABLES.values()), ids=list(DECODED_TABLES))
    def test_exit_2_with_one_error_line(self, tmp_path, monkeypatch, keys, file, path):
        target, base, cmd = DECODED_FILES[file]
        assert value_at(base, path) is not None
        files = {"c.json": DECODED_CONFIG, "t.jsonl": DECODED_TRACE}
        located = re.escape(f"error: {target}: " + (f"line {path[0] + 1}: " if target.endswith(".jsonl") else ""))
        rows = [case(f"{file}-base", cmd, EXIT_0_OR_1, files=files | {target: base})] + [
            # A dropped key may leave another fault first: a meta line without
            # "meta" is a step without "t".
            case(f"{file}-{key}-{name}", cmd, files=files | {target: replaced(base, path, change)},
                 err_re=located + (".*\n" if name == "dropped" else rf".*{re.escape(key)}.*\n"))
            for key, kind in keys.items()
            for name, change in shapes(key, kind, keys).items()
            if name != "misspelled"
        ]
        run_rows(rows, tmp_path, monkeypatch)


# Each input kind, with a valid document of it: the file it is read from,
# the files beside it, the command that reads it, and the exit codes that
# command may end with.  The judge's endpoint refuses at once, and is tried once.
EDGE_TRACE = [*DECODED_TRACE, {"t": 2, "input": None, "output": "ok move"}]
EDGE_JUDGE = {**ENDPOINT, "retries": 1, "backoff": 0, "timeout": 5, "max_tokens": 16, "system_prompt": "judge"}
EDGE_AUDIT = "audit trace.jsonl --config config.json --out out"
EDGE_BASES = {
    "audit-config": ("config.json", README_CONFIG, {"trace.jsonl": EDGE_TRACE}, EDGE_AUDIT, (0, 1, 2)),
    "guard-config": ("config.json", README_CONFIG, {}, "guard --config config.json --max-steps 3 --out-dir out", (0, 2)),
    "trace-line": ("trace.jsonl", EDGE_TRACE, {"config.json": README_CONFIG}, EDGE_AUDIT, (0, 1, 2)),
    "bench-case": ("bench.jsonl", [BENCH_CASE], {}, "bench eval --bench bench.jsonl --judge oracle --out out", (0, 2)),
    "judge-config": ("judge.json", EDGE_JUDGE, {"bench.jsonl": [BENCH_CASE]}, f"{JUDGE} --out out", (0, 2)),
    "f1-report": (
        "truth.json", DECODED_REPORT, {"config.json": DECODED_CONFIG, "trace.jsonl": DECODED_TRACE},
        f"{EDGE_AUDIT} --f1-against truth.json", (0, 1, 2),
    ),
}


class TestEveryValueOfEveryEdgeShape:
    """Every value of a valid input of each kind, replaced in turn by null,
    an empty string, array or object and a 100,000-character string, ends
    with an exit code its command allows.  On exit 2 stdout is empty, stderr
    is one error line, with a caret under a formula that does not parse, and
    no output is left."""

    @pytest.mark.parametrize("target, base, files, cmd, codes", EDGE_BASES.values(), ids=list(EDGE_BASES))
    def test_keeps_the_exit_contract(self, tmp_path, monkeypatch, target, base, files, cmd, codes):
        rows = [
            case(
                f"{'.'.join(map(str, path))}-{name}",
                cmd,
                codes,
                files=files | {target: replaced(base, path, lambda _: value)},
                err_re=r"error: .*\n(  .*\n +\^\n)?",
                absent=("out",),
            )
            for path in paths(base)
            for name, value in EDGE_VALUES.items()
        ]
        run_rows(rows, tmp_path, monkeypatch)


class TestReadmeValueTypes:
    """README's "Value types" table lists every key of every section under
    its table's kind, and no other key; its "pattern" values list every
    monitoring pattern."""

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

    def test_lists_the_patterns(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = re.split(r"\n(?:\n|- )", readme.split("- **pattern** values", 1)[1], maxsplit=1)[0]
        assert re.findall(r"`(\w+)`\s+\(", block) == list(PATTERNS)


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

    @over_rows(MALFORMED_BENCH_ROWS)
    def test_eval_malformed_input_exit_2(self, row, tmp_path, monkeypatch):
        run_rows([row], tmp_path, monkeypatch)

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


    @pytest.mark.parametrize("level", ["precise", "precise+ltl"])
    def test_eval_level_words_the_judge_prompt(self, capsys, tmp_path, level):
        bench, judge = tmp_path / "bench.jsonl", tmp_path / "judge.json"
        run_cli(["bench", "gen", "--suite", "elasticity", "--count", "1", "--out", str(bench)], capsys)
        (constraint,) = json.loads(bench.read_text(encoding="utf-8"))["constraints"]
        with MockEndpoint(lambda body: "VALID") as mock:
            write(judge, {"base_url": mock.base_url, "model": "m"})
            code, _, _ = run_cli(
                [
                    "bench", "eval", "--bench", str(bench), "--judge", "endpoint",
                    "--judge-config", str(judge), "--level", level,
                ],
                capsys,
            )
        assert code == 0
        (request,) = mock.requests
        prompt = request["body"]["messages"][-1]["content"]
        wording = constraint["precise"]
        if level == "precise+ltl":
            wording += f" LTL: {constraint['formula']}"
        assert f"satisfies the following constraint: {wording}." in prompt
        assert constraint["informal"] not in prompt


class TestDeterminism:
    """Identical flags and seeds produce byte-identical machine outputs."""

    def test_guard_outputs_byte_identical(self, tmp_path):
        config = tmp_path / "config.json"
        write(config, GUARD_CONFIG)
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


class TestStandardLibraryOnly:
    def test_cli_imports_nothing_outside_the_standard_library(self):
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); import ltlguard.cli; "
            "added = {name.partition('.')[0] for name in set(sys.modules) - before}; "
            "print(sorted(added - set(sys.stdlib_module_names) - {'ltlguard'}))"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(PACKAGE_ROOT)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


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
        write(config, RULE_CONFIG)
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

    def test_audit_keeps_embedded(self, capsys, tmp_path, monkeypatch):
        # Without --relabel only the steps that lack labels (no key, or null)
        # are labeled, each seeing the embedded labels of the steps before it.
        config, trace = tmp_path / "config.json", tmp_path / "trace.jsonl"
        write(config, RULE_CONFIG)
        rows = [
            {"t": t, "input": f"in {t}" if t % 4 == 1 else "", "output": ("bad", "goal idle", "idle")[t % 3]}
            for t in range(1, 31)
        ]
        for row in rows:
            if row["t"] % 7 == 0:
                row["labels"] = None
            elif row["t"] % 3:
                row["labels"] = ["goal"] if row["t"] % 5 == 0 else []
        trace.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        code, digest = _spied_run(
            ["audit", str(trace), "--config", str(config), "--out", str(tmp_path / "r.json")], capsys, monkeypatch
        )
        assert code == 1
        assert digest == "c49420d5623f17b3e75bf284544d94b2bc4c5cc6df2d06d67cac1dbcfd8d24ba"

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
        write(config, {**GUARD_CONFIG, "policy": policy})
        code, actual = _spied_run(
            ["guard", "--config", str(config), "--max-steps", "30", "--seed", "5", "--out-dir", str(tmp_path / "run")],
            capsys,
            monkeypatch,
        )
        assert code == 0
        assert actual == digest



GUARD_BYTES_CONFIG = {
    **GUARD_CONFIG,
    "constraints": [{"id": "no_bad", "formula": "G !bad"}, {"id": "reach_ok", "formula": "F ok"}],
    "labeler": {"type": "rule", "vocabulary": ["bad", "ok"], "rules": {"bad": r"\bbad\b", "ok": r"\bok\b"}},
}


class TestGuardOutputBytes:
    """The sha256 of a guard run's ``trace.jsonl``, ``guard_log.jsonl`` and
    ``reports.json``, in that order, pinned for every strategy, monitoring
    pattern and monitor mode at one seed."""

    DIGESTS = {
        ("none", "contains_violated", "plain"): "24b6c2d20b931f7d7be78bd465ba6931d607657c81a7d4ab8eb094bde4a280eb",
        ("none", "contains_violated", "reset"): "46cf73d13ab54a2fc9ee8d47ce37f2ec601616aeb0b3f4ff4efc57c85359aeea",
        ("none", "contains_satisfied", "plain"): "24b6c2d20b931f7d7be78bd465ba6931d607657c81a7d4ab8eb094bde4a280eb",
        ("none", "contains_satisfied", "reset"): "46cf73d13ab54a2fc9ee8d47ce37f2ec601616aeb0b3f4ff4efc57c85359aeea",
        ("none", "ends_violated", "plain"): "24b6c2d20b931f7d7be78bd465ba6931d607657c81a7d4ab8eb094bde4a280eb",
        ("none", "ends_violated", "reset"): "46cf73d13ab54a2fc9ee8d47ce37f2ec601616aeb0b3f4ff4efc57c85359aeea",
        ("resample", "contains_violated", "plain"): "80a1b36442b7ab873dad5bcaf031382219a2cf9b3e904bfefe4f681f58358fff",
        ("resample", "contains_violated", "reset"): "328137e90aa29b0edf2237d78270b09280d7c477c606d98520b2958e43f5dfea",
        ("resample", "contains_satisfied", "plain"): "5aed4d05f0c93314ac0e6c6abfcfe8ea9206a85de669a24aa498908b0ade33b5",
        ("resample", "contains_satisfied", "reset"): "e4f8985cfecfd5a13335eb247005c79a8329293c9c993d95ae5394369a53f047",
        ("resample", "ends_violated", "plain"): "80a1b36442b7ab873dad5bcaf031382219a2cf9b3e904bfefe4f681f58358fff",
        ("resample", "ends_violated", "reset"): "7a37d3ad861dbe6437fcb28fc7af2b72cf35b7d1f139eaca09e2289373b755b1",
        ("inject", "contains_violated", "plain"): "75745bbb1c99bd4a65b237c234cb6c821caece9d5045d4062c4286b6cf6e4ea0",
        ("inject", "contains_violated", "reset"): "98ab22a6d40bd5b03627aac6b0998939d12dbb6868738e5bcf960bc9370cdefc",
        ("inject", "contains_satisfied", "plain"): "5ab09bac82ea18dae5746852dbfea87b7eab73b54d1130fcdbe285179f145614",
        ("inject", "contains_satisfied", "reset"): "a0b9a095df4e360146850b12bfbd50089927430e6b65186e19ed85be7aa35a50",
        ("inject", "ends_violated", "plain"): "75745bbb1c99bd4a65b237c234cb6c821caece9d5045d4062c4286b6cf6e4ea0",
        ("inject", "ends_violated", "reset"): "bda9c18ef8dfeaee3e1693c2ec0df2fa67820e1069348d1ec2ec4e46b48c7346",
        ("switch", "contains_violated", "plain"): "7e65b4d466c8aa35469f3466fce00ee700878445c87d81f3eebf5b0458d0e2d9",
        ("switch", "contains_violated", "reset"): "06527d0d47613a62171f4007f662928622498732bace9e07c1067572ce288284",
        ("switch", "contains_satisfied", "plain"): "d07c7a1c32a59d4f33c27afc7c156752d42d1aa3a1b504fbf4ae6ac6ee3208c0",
        ("switch", "contains_satisfied", "reset"): "ba5876e82f97c8546d125a0f717f99ae79633d513f7534abde22dc40041ac626",
        ("switch", "ends_violated", "plain"): "7e65b4d466c8aa35469f3466fce00ee700878445c87d81f3eebf5b0458d0e2d9",
        ("switch", "ends_violated", "reset"): "f0dc847add5eee83e0636aa67dc2c91bc3fb2eb76e05b24ea6b36b246d8389c2",
    }

    @pytest.mark.parametrize("strategy", ["none", "resample", "inject", "switch"])
    def test_outputs_pinned(self, capsys, tmp_path, strategy):
        config = tmp_path / "config.json"
        for (kind, pattern, mode), expected in self.DIGESTS.items():
            if kind != strategy:
                continue
            out_dir = tmp_path / f"{pattern}-{mode}"
            policy = {"strategy": strategy, "tau": 0.3, "n": 3, "k": 2, "m": 3, "pattern": pattern}
            write(config, {**GUARD_BYTES_CONFIG, "policy": policy, "mode": mode})
            code, _, _ = run_cli(
                ["guard", "--config", str(config), "--max-steps", "60", "--seed", "3", "--out-dir", str(out_dir)],
                capsys,
            )
            assert code == 0
            digest = hashlib.sha256()
            for name in ("trace.jsonl", "guard_log.jsonl", "reports.json"):
                digest.update((out_dir / name).read_bytes())
            assert digest.hexdigest() == expected, (pattern, mode)


class TestBenchGenBytes:
    """The sha256 of a ``bench gen`` file, pinned for every suite and formula
    family at one seed; the digests were computed before the generator read
    its vocabulary from one category table."""

    SUITE_ARGS = {"elasticity": [], "constraint": ["--n", "20"], "proposition": ["--entities", "3"]}
    DIGESTS = {
        ("elasticity", "simple"): "9fa8e6737fe6bafe76463858466dc1c11c5f8108e29e80a328f4243e015e4b24",
        ("elasticity", "complex"): "78bf1c094dc2d81f7e04774fa39e4a085a56cdbf05217b5a81f7fa5b55cbde6d",
        ("constraint", "simple"): "425eb17cd8ebabbd1f882256dbf7d62c61105fe744e8e2a43aa0154e4493a922",
        ("constraint", "complex"): "987735c8e43b998afcf464f59429d9613a59287be5c47180287a9fc0b5543517",
        ("proposition", "simple"): "125a1e64a9428a6ef14ee6049a1552aa2d082379253cfe7ae3f7a8437bc774b8",
        ("proposition", "complex"): "35db6a6ab27f2f96b13d11e6e6c1faa502fe865ba8001933a313bc381d875cc3",
    }

    @pytest.mark.parametrize("suite, family", list(DIGESTS))
    def test_output_pinned(self, capsys, tmp_path, suite, family):
        out = tmp_path / "bench.jsonl"
        code, _, _ = run_cli(
            [
                "bench", "gen", "--suite", suite, "--family", family, *self.SUITE_ARGS[suite],
                "--count", "2", "--seed", "7", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[suite, family]


class TestInputFaultsNameTheFile:
    """The inputs whose faults name their file (rows of ``cli_cases.py``),
    read where they hold no fault."""

    def test_non_ascii_trace_still_audits(self, capsys, tmp_path):
        config, trace = tmp_path / "config.json", tmp_path / "trace.jsonl"
        write(config, RULE_CONFIG)
        write_trace(trace, ["café", "a bad move — über"])
        code, out, _ = run_cli(["audit", str(trace), "--config", str(config)], capsys)
        assert code == 1
        assert json.loads(out)["reports"][0]["verdicts"][-1] == "violated"

    def test_inject_template_path_is_injected(self, capsys, tmp_path):
        config, template = tmp_path / "config.json", tmp_path / "reminder.txt"
        template.write_text("Mind the rules:\n{constraints}\n", encoding="utf-8")
        policy = {"strategy": "inject", "tau": 0.0, "n": 3, "k": 1, "m": 4, "template_path": str(template)}
        write(config, {**GUARD_CONFIG, "policy": policy})
        code, _, _ = run_cli(
            ["guard", "--config", str(config), "--max-steps", "3", "--out-dir", str(tmp_path / "run")], capsys
        )
        assert code == 0
        log = (tmp_path / "run" / "guard_log.jsonl").read_text(encoding="utf-8").splitlines()
        first = json.loads(log[0])
        assert first["intervened"]
        assert first["final_input"] == "begin\nMind the rules:\nalways, not (bad) must hold"


class TestEndpointFaults:
    """An endpoint that fails after good replies ends the run with exit 2,
    one error line and no traceback; a guard flushes the steps it completed
    to guard_log.jsonl and trace.jsonl.  The response kinds: HTTP 400, 429
    and 500 with one attempt and no backoff, a body that is not JSON, a body
    without ``choices``, non-text content, a reply slower than the 0.5 s
    timeout, and an HTTP 307, since redirects are not followed."""

    FAULTS = {
        "status-400": ({"status": 400}, "endpoint returned HTTP 400: "),
        "status-429": ({"status": 429}, "endpoint returned HTTP 429: "),
        "status-500": ({"status": 500}, "endpoint returned HTTP 500: "),
        "not-json": ({"raw_body": b"not json"}, "response is not JSON: "),
        "no-choices": ({"raw_body": b'{"id": "r"}'}, "malformed response body: KeyError('choices')"),
        "non-text-content": ({"reply_fn": lambda body: 5}, "message content is not text: 5"),
        "slow": ({"reply_fn": lambda body: time.sleep(1.0) or "ok move"}, "request timed out after 0.5s"),
        "status-307": ({"status": 307}, "endpoint returned HTTP 307: "),
    }

    @pytest.mark.parametrize("kind", FAULTS)
    def test_guard_flushes_completed_steps(self, capsys, tmp_path, kind):
        fault, message = self.FAULTS[kind]
        config, out_dir = tmp_path / "config.json", tmp_path / "run"
        with MockEndpoint(healthy=["ok move"] * 2, **fault) as mock:
            model = {**ENDPOINT, "base_url": mock.base_url, "timeout": 0.5, "retries": 1, "backoff": 0}
            write(config, {**GUARD_CONFIG, "model": model, "policy": {"strategy": "none"}})
            code, out, err = run_cli(
                ["guard", "--config", str(config), "--max-steps", "5", "--out-dir", str(out_dir)], capsys
            )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")
        assert err.endswith(f" (partial outputs flushed to {out_dir})\n") and err.count("\n") == 1
        assert "Traceback" not in err
        assert len(mock.requests) == 3
        for name in ("guard_log.jsonl", "trace.jsonl"):
            lines = (out_dir / name).read_text(encoding="utf-8").splitlines()
            assert [json.loads(line)["t"] for line in lines] == [1, 2]

    def test_bench_eval_judge(self, capsys, tmp_path):
        bench, judge = tmp_path / "bench.jsonl", tmp_path / "judge.json"
        bench.write_text(2 * (json.dumps(bench_case(FOX_STEP)) + "\n"), encoding="utf-8")
        with MockEndpoint(healthy=["VALID"], raw_body=b"not json") as mock:
            write(judge, {"base_url": mock.base_url, "model": "m", "retries": 1, "backoff": 0})
            code, out, err = run_cli(
                ["bench", "eval", "--bench", str(bench), "--judge", "endpoint", "--judge-config", str(judge)], capsys
            )
        assert (code, out) == (2, "")
        assert err.startswith("error: response is not JSON: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert len(mock.requests) == 2
