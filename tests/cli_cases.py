"""Every command-line fault case, one row each, and the exit contract every
row keeps.

A row writes its files into an empty working directory, runs its commands
there in order, and names the exit codes each may end with and what stderr,
stdout and the directory must show afterwards.  Paths are relative to that
directory, so a message that names a file reads the same wherever it runs.

The rows of ``CASES`` run two ways.  Tier-1 calls ``ltlguard.cli.main``
in-process, through ``test_cli.py::test_case`` and, for three families of
rows, the parametrized tests whose cases they were.  ``python
tests/cli_cases.py`` runs them through the ``ltlguard`` console script on
``PATH``, prints each row that fails and exits nonzero if any does, or if
there is no ``ltlguard`` to run.

Rows are also generated, and run in-process only: ``paths`` walks a valid
input document to each of its values, and ``shapes`` gives each value the
wrong shapes its key table, or its own kind, rules out.
"""

from __future__ import annotations

import copy
import functools
import json
import random
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

# The JSON block under README's "## Configuration": the example config.
README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
README_CONFIG = json.loads(re.search(r"```json\n(.*?)```", README.split("## Configuration", 1)[1], re.S).group(1))
ENDPOINT = {"type": "endpoint", "base_url": "http://127.0.0.1:9", "model": "m"}
ENDPOINT_LABELER = {"type": "endpoint", "endpoint": ENDPOINT, "vocabulary": ["bad"]}
EXIT_0_OR_1 = (0, 1)


@dataclass(frozen=True)
class Case:
    """One row: ``runs`` holds each command, as a shell would split it, with
    the exit codes it may end with.  The stderr of all runs, in order, must
    equal ``err_is`` unless it is None, and contain ``err_has``; the stderr
    of each run that exits 2 must match the regular expression ``err_re``
    as a whole unless it is None; ``out`` gets the last run's stdout and the
    working directory; no path of ``absent`` may exist once a run exits 2."""

    name: str
    runs: tuple[tuple[str, tuple[int, ...]], ...]
    files: Mapping[str, object] = field(default_factory=dict)
    err_is: str | None = None
    err_has: str = ""
    err_re: str | None = None
    out: Callable[[str, Path], object] | None = None
    absent: tuple[str, ...] = ()


def case(name, cmd, code=2, **fields) -> Case:
    return Case(name, ((cmd, code if isinstance(code, tuple) else (code,)),), **fields)


def write(path: Path, content) -> None:
    """Write text, bytes, a JSON document, or, for a ``.jsonl`` path, a list
    of JSON lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    elif path.suffix == ".jsonl":
        path.write_text("".join(json.dumps(line) + "\n" for line in content), encoding="utf-8")
    else:
        path.write_text(json.dumps(content), encoding="utf-8")


def check(row: Case, run: Callable[[list[str]], tuple[int, str, str]], workdir: Path) -> list[str]:
    """What ``row`` breaks, its own expectations or the exit contract, when
    ``run`` runs each of its commands in ``workdir`` and returns the exit
    code, stdout and stderr.  The contract: no traceback, and on exit 2 an
    empty stdout and exactly one stderr line that contains ``error:``."""
    for name, content in row.files.items():
        write(workdir / name, content)
    problems, stderr, stdout = [], "", ""
    for cmd, codes in row.runs:
        code, stdout, err = run(shlex.split(cmd))
        stderr += err
        if code not in codes:
            problems.append(f"`{cmd}` exited {code}, not {' or '.join(map(str, codes))}")
        if "Traceback" in err:
            problems.append(f"`{cmd}` printed a traceback")
        if code != 2:
            continue
        if stdout or sum("error:" in line for line in err.splitlines()) != 1:
            problems.append(f"`{cmd}` exited 2 without an empty stdout and one error line")
        if row.err_re is not None and not re.fullmatch(row.err_re, err):
            problems.append(f"`{cmd}` exited 2 with a stderr that does not match {row.err_re!r}")
        problems += [f"`{cmd}` exited 2 and left {path}" for path in row.absent if (workdir / path).exists()]
    if row.err_is is not None and stderr != row.err_is:
        problems.append(f"stderr is not {row.err_is!r}")
    if row.err_has not in stderr:
        problems.append(f"stderr does not contain {row.err_has!r}")
    # A run that already failed may have left no stdout for ``out`` to read.
    if row.out is not None and not problems and not row.out(stdout, workdir):
        problems.append(f"stdout fails its check: {stdout[:200]!r}")
    return problems + [f"stderr was {stderr[:2000]!r}"] * bool(problems)


def paths(node, prefix=()):
    """The path to every value below the root of a JSON document, each
    before the paths below it."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def replaced(doc, path, change):
    """A deep copy of ``doc`` whose value at ``path`` is ``change`` of it."""
    doc = copy.deepcopy(doc)
    if not path:
        return change(doc)
    parent = value_at(doc, path[:-1])
    parent[path[-1]] = change(parent[path[-1]])
    return doc


def misspelled(key: str, keys=()) -> str:
    """``key`` without its last letter, as ``glos`` for ``gloss``; or, where
    that spells another of ``keys``, with its last letter doubled, as
    ``modell`` for the top level's ``model``."""
    return key + key[-1] if key[:-1] in keys else key[:-1]


# One value of each JSON kind, as key tables name the kinds.
KIND_VALUES = {"string": "", "integer": 0, "number": 2.5, "boolean": False, "array": [], "object": {}}
KINDS = {bool: "boolean", int: "integer", float: "number", str: "string", list: "array", dict: "object"}
# What each value of a valid input is replaced with in turn, by name.
EDGE_VALUES = {"null": None, "empty-string": "", "empty-array": [], "empty-object": {}, "long-string": "x" * 100_000}


def kind_of(value) -> str:
    """The JSON kind of ``value`` as a key table writes it, with null
    allowed: the wrong shapes of a value no table declares are the other
    kinds, not null."""
    return KINDS[type(value)] + "?"


def shapes(key, kind: str, keys=None) -> dict[str, Callable]:
    """The wrong shapes of the value at ``key`` of a JSON object or array, by
    name, each a function that changes that container in place and returns it.

    The value takes one of each JSON kind that ``kind``, as a key table
    writes it, rules out: an integer counts as a number, null is ruled out
    unless ``kind`` ends in ``?``, and ``kind[]`` also rules out an array
    holding one value that ``kind`` rules out.  A key of the container's
    key table ``keys`` is also misspelled, and dropped if the table requires
    it.  An undeclared value, such as an array item, is shaped by its own
    kind, ``kind_of`` it."""

    def ruled_out(kind):
        nullable, kind = kind.endswith("?"), kind.rstrip("?")
        if kind.endswith("[]"):
            return ruled_out("array" + "?" * nullable) + [[value] for value in ruled_out(kind[:-2])]
        accepted = {"number", "integer"} if kind == "number" else {kind}
        return [value for name, value in KIND_VALUES.items() if name not in accepted] + [None] * (not nullable)

    def put(container, value):
        container[key] = value
        return container

    found = {json.dumps(value): functools.partial(put, value=value) for value in ruled_out(kind)}
    if keys is not None:
        if key in keys.required:
            found["dropped"] = lambda obj: {k: v for k, v in obj.items() if k != key}
        found["misspelled"] = lambda obj: {
            **{k: v for k, v in obj.items() if k != key}, misspelled(key, keys): obj.get(key, "x")
        }
    return found


def trace(*outputs):
    return [{"t": t, "input": "", "output": output} for t, output in enumerate(outputs, 1)]


def with_readme(**change):
    return {**README_CONFIG, **change}


AUDIT = "audit trace.jsonl --config config.json"
GUARD = "guard --config config.json --max-steps 3 --out-dir run"
EVAL = "bench eval --bench bench.jsonl --judge oracle"
JUDGE = "bench eval --bench bench.jsonl --judge endpoint --judge-config judge.json"


def audit(name, trace_lines, err_is, config=README_CONFIG, **fields) -> Case:
    """An audit of ``trace.jsonl`` against ``config.json`` that exits 2."""
    files = {"config.json": config, "trace.jsonl": trace_lines, **fields.pop("files", {})}
    return case(name, fields.pop("cmd", AUDIT), files=files, err_is=err_is, **fields)


def guard(name, change, **fields) -> Case:
    """A guard run of the README config with ``change`` that exits 2 before
    it writes any output."""
    files = {"config.json": with_readme(**change), **fields.pop("files", {})}
    return case(name, fields.pop("cmd", GUARD), files=files, absent=("run",), **fields)


BENCH_CONSTRAINT = {"id": "c1", "formula": "F animal_fox", "informal": "", "precise": "", "path": []}


def bench_case(step, **fields):
    """One bench case whose only step is ``step``; well-formed unless
    ``fields`` overrides a top-level field."""
    return {"knobs": {}, "truth": [True], "constraints": [BENCH_CONSTRAINT], "trace": {"steps": [step]}, **fields}


FOX_STEP = {"t": 1, "output": "a fox", "labels": ["animal_fox"]}
BENCH = [bench_case(FOX_STEP)]


def judge(name, judge_config, err_is, **fields) -> Case:
    """An endpoint judge's eval whose judge config is rejected before any request."""
    files = {"bench.jsonl": BENCH, "judge.json": judge_config}
    return case(name, fields.pop("cmd", JUDGE), files=files, err_is=err_is, **fields)


def with_number(doc, number) -> str:
    """``doc`` as JSON text with each ``"NUMBER"`` spelled ``number``, such
    as ``1e400``, which JSON reads as infinity."""
    return json.dumps(doc).replace('"NUMBER"', number)


# Waits longer than ``time.sleep`` or a socket takes, each with its JSON
# spelling and how the error prints it.
TOO_LONG = [
    (key, number, f"{key} must be at most 4611686018 seconds, got {float(number)}")
    for key in ("timeout", "backoff")
    for number in ("1e400", "1e10")
]


def bench(name, lines, err_is, cmd=EVAL) -> Case:
    """A ``bench eval`` of ``bench.jsonl`` that exits 2."""
    return case(name, cmd, files={"bench.jsonl": lines}, err_is=err_is)


CODEC = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
F1 = f"{AUDIT} --f1-against truth.json"
REPORT = {"constraint_id": "no_bad", "verdicts": ["violated"], "violations": 1, "satisfactions": 0}
ENTRY = {"t": 1, "residual": "F (a &"}
NEEDS_LABELER = "guard mode needs a concrete labeler, not embedded labels"

# Each residual gains a layer per step, over 600 steps of random labels.
GROWING_FORMULAS = {"not-f-x-g": "!(F X G ok U G F !bad)", "f-g-until": "F G(!bad -> ok) U X F G ok"}
GROWING_RNG = random.Random(24)
GROWING_TRACE = [
    {"t": t, "output": "step", "labels": [p for p in ("ok", "bad") if GROWING_RNG.random() < 0.5]}
    for t in range(1, 601)
]

# A ban on any of 1,000 actions and a goal of all of them, over 3 steps of
# 3 seeded labels each.
WIDE_NAMES = [f"a{i}" for i in range(1000)]
WIDE_CONSTRAINTS = [
    {"id": "ban", "formula": f"G !({' | '.join(WIDE_NAMES)})"},
    {"id": "all", "formula": f"F ({' & '.join(WIDE_NAMES)})"},
]
WIDE_RNG = random.Random(37)
WIDE_TRACE = [{"t": t, "output": "step", "labels": WIDE_RNG.sample(WIDE_NAMES, 3)} for t in range(1, 4)]

# Values in the README config that the config reader rejects, each with
# what it says after "error: invalid config value: ".
BAD_CONFIG_VALUES = [
    ({"seed": "abc"}, "seed must be an integer, got 'abc'"),
    (
        {"model": {"type": "scripted", "distributions": [[["bad move", -1], ["ok move", 1]]]}},
        "each distribution needs nonnegative weights summing > 0",
    ),
    ({"labeler": {"type": "event", "entities": "two"}}, "entities must be an integer, got 'two'"),
    ({"policy": {**README_CONFIG["policy"], "n": 2.5}}, "n must be an integer, got 2.5"),
    ({"policy": {**README_CONFIG["policy"], "k": 1.5}}, "k must be an integer, got 1.5"),
    ({"policy": {**README_CONFIG["policy"], "m": 2.0}}, "m must be an integer, got 2.0"),
    ({"policy": {**README_CONFIG["policy"], "k": True}}, "k must be an integer, got True"),
    ({"policy": {**README_CONFIG["policy"], "tau": True}}, "tau must be a number, got True"),
    (
        {"policy": {**README_CONFIG["policy"], "strategy": "inject", "inject_template": 5}},
        "inject_template must be a string or null, got 5",
    ),
    ({"initial_input": 5}, "initial_input must be a string, got 5"),
    ({"initial_input": None}, "initial_input must be a string, got None"),
    ({"stop_token": 7}, "stop_token must be a string, got 7"),
    ({"stop_token": "END"}, "the scripted model's stop_token 'DONE' differs from 'END'"),
    (
        {"model": {**README_CONFIG["model"], "stop_token": "END"}},
        "the scripted model's stop_token 'END' differs from 'DONE'",
    ),
    ({"seed": 2.7}, "seed must be an integer, got 2.7"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"labeler": {"type": "event", "entities": 2.5}}, "entities must be an integer, got 2.5"),
    ({"labeler": {"type": "event", "entities": True}}, "entities must be an integer, got True"),
    (
        {"labeler": {"type": "endpoint", "endpoint": ENDPOINT, "vocabulary": ["bad"], "max_context_chars": 2.5}},
        "max_context_chars must be an integer, got 2.5",
    ),
    (
        {"labeler": {"type": "endpoint", "endpoint": {**ENDPOINT, "base_url": 5}, "vocabulary": ["bad"]}},
        "base_url must be a string, got 5",
    ),
    (
        {"constraints": [{"id": "no_bad", "formula": "G !bad", "gloss": 5}]},
        "constraint 'no_bad': gloss must be a string, got 5",
    ),
    ({"model": {**ENDPOINT, "base_url": 5}}, "base_url must be a string, got 5"),
    ({"model": {**ENDPOINT, "api_key_env": 5}}, "api_key_env must be a string, got 5"),
    ({"model": {**ENDPOINT, "audit_log_path": 5}}, "audit_log_path must be a string or null, got 5"),
    ({"model": {**ENDPOINT, "retries": 2.5}}, "retries must be an integer, got 2.5"),
    ({"model": {**ENDPOINT, "retries": True}}, "retries must be an integer, got True"),
    ({"substitute_model": {**ENDPOINT, "timeout": True}}, "timeout must be a number, got True"),
    ({"action_temperature": True}, "action_temperature must be a number, got True"),
    ({"action_temperature": "0.2"}, "action_temperature must be a number, got '0.2'"),
    ({"sampling_temperature": "0.8"}, "sampling_temperature must be a number, got '0.8'"),
    ({"sampling_temperature": None}, "sampling_temperature must be a number, got None"),
    (
        {"labeler": {"type": "endpoint", "endpoint": ENDPOINT, "vocabulary": ["bad"], "temperature": True}},
        "temperature must be a number, got True",
    ),
    (
        {"labeler": {"type": "endpoint", "endpoint": ENDPOINT, "vocabulary": ["bad"], "temperature": "0"}},
        "temperature must be a number, got '0'",
    ),
    (
        {"model": {"type": "scripted", "distributions": [[["bad move", "0.5"], ["ok move", 0.5]]]}},
        "a distribution weight must be a number, got '0.5'",
    ),
    (
        {"model": {"type": "scripted", "distributions": [[["bad move", True], ["ok move", 0.5]]]}},
        "a distribution weight must be a number, got True",
    ),
    (
        {"substitute_model": {"type": "scripted", "distributions": [[["ok move", True]]]}},
        "a distribution weight must be a number, got True",
    ),
    (
        {"model": {"type": "scripted", "distributions": [[[5, 0.5], ["ok move", 0.5]]]}},
        "a distribution text must be a string, got 5",
    ),
    (
        {"model": {"type": "scripted", "distributions": [[[None, 0.5], ["ok move", 0.5]]]}},
        "a distribution text must be a string, got None",
    ),
    ({"labeler": {"type": "event", "tagged": "no"}}, "tagged must be a boolean, got 'no'"),
    ({"labeler": {"type": "event", "tagged": 1}}, "tagged must be a boolean, got 1"),
    ({"labeler": {"type": "event", "tagged": None}}, "tagged must be a boolean, got None"),
    ({"model": {"type": "scripted", "outputs": "abc"}}, "outputs must be an array, got 'abc'"),
    # A script has outputs or distributions, not both.
    (
        {"model": {"type": "scripted", "outputs": ["ok move"], "distributions": [[["bad move", 1.0]]]}},
        "provide exactly one of outputs or distributions",
    ),
    ({"substitute_model": []}, "substitute_model must be an object or null, got []"),
    ({"policy": []}, "policy must be an object, got []"),
    ({"policy": {**README_CONFIG["policy"], "template_path": 0}}, "template_path must be a string or null, got 0"),
    (
        {"policy": {**README_CONFIG["policy"], "substitute_model": 0}},
        "substitute_model must be an object or null, got 0",
    ),
    (
        {"policy": {**README_CONFIG["policy"], "pattern": "contains_violatd"}},
        "unknown monitoring pattern 'contains_violatd';"
        " known: ['contains_satisfied', 'contains_violated', 'ends_violated']",
    ),
    ({"labeler": {"type": "rule", "vocabulary": ["bad"], "rules": []}}, "rules must be an object, got []"),
    (
        {"labeler": {"type": "rule", "vocabulary": "bad", "rules": {"b": "b", "a": "a", "d": "d"}}},
        "vocabulary must be an array, got 'bad'",
    ),
    # A vocabulary proposition without a rule could never be labeled.
    ({"labeler": {"type": "rule", "vocabulary": ["bad"], "rules": {}}}, "no rule for vocabulary propositions: ['bad']"),
    # A base_url must be an http:// or https:// URL with a host and a well-formed port.
    (
        {"model": {**ENDPOINT, "base_url": "localhost:8000/v1"}},
        "base_url must be an http:// or https:// URL with a host, got 'localhost:8000/v1'",
    ),
    (
        {"model": {**ENDPOINT, "base_url": "ftp://h/v1"}},
        "base_url must be an http:// or https:// URL with a host, got 'ftp://h/v1'",
    ),
    ({"model": {**ENDPOINT, "base_url": "http://h:port/v1"}}, "Port could not be cast to integer value as 'port'"),
    (
        {"model": {"type": "scripted", "distributions": [[["bad move", 0.5, 1], ["ok move", 0.5]]]}},
        "a distribution item must be a [text, weight] pair, got ['bad move', 0.5, 1]",
    ),
]

TRUTH_PER_CONSTRAINT = "error: bench.jsonl: line 1: 'truth' must be an array of booleans, one per constraint\n"
# Bench files `bench eval` rejects, by what is wrong with their one case.
MALFORMED_BENCH = {
    "case-without-constraints": ({}, "error: bench.jsonl: line 1: case is missing field 'knobs'\n"),
    "step-labels-not-an-array": (
        bench_case({"t": 1, "output": "a fox", "labels": "animal_fox"}),
        "error: bench.jsonl: line 1: labels must be an array or null, got 'animal_fox'\n",
    ),
    "step-output-not-a-string": (
        bench_case({"t": 1, "output": 7, "labels": ["animal_fox"]}),
        "error: bench.jsonl: line 1: output must be a string, got 7\n",
    ),
    "knobs-not-an-object": (
        bench_case(FOX_STEP, knobs=5),
        "error: bench.jsonl: line 1: knobs must be an object, got 5\n",
    ),
    "truth-longer-than-constraints": (bench_case(FOX_STEP, truth=[True, False]), TRUTH_PER_CONSTRAINT),
    "truth-shorter-than-constraints": (bench_case(FOX_STEP, truth=[]), TRUTH_PER_CONSTRAINT),
    "truth-not-booleans": (
        bench_case(FOX_STEP, truth=["yes"]),
        "error: bench.jsonl: line 1: an item of truth must be a boolean, got 'yes'\n",
    ),
    "truth-integer": (
        bench_case(FOX_STEP, truth=[1]),
        "error: bench.jsonl: line 1: an item of truth must be a boolean, got 1\n",
    ),
    "truth-not-an-array": (
        bench_case(FOX_STEP, truth=True),
        "error: bench.jsonl: line 1: truth must be an array, got True\n",
    ),
    "no-constraints": (
        bench_case(FOX_STEP, truth=[], constraints=[]),
        "error: bench.jsonl: line 1: a case needs at least one constraint\n",
    ),
    "path-not-an-array": (
        bench_case(FOX_STEP, constraints=[{**BENCH_CONSTRAINT, "path": "abc"}]),
        "error: bench.jsonl: line 1: path must be an array, got 'abc'\n",
    ),
}


def runs_to_the_reports(stdout: str, workdir: Path) -> bool:
    """The audit on stdout reports what a guard run of no step wrote to ``run/``."""
    run = workdir / "run"
    reports = json.loads((run / "reports.json").read_text(encoding="utf-8"))
    steps = [json.loads(line) for line in (run / "trace.jsonl").read_text(encoding="utf-8").splitlines()]
    return (
        (run / "guard_log.jsonl").read_text(encoding="utf-8") == ""
        and not [step for step in steps if "t" in step]
        and reports["steps"] == len(reports["reports"][0]["verdicts"]) == 0
        and reports["violation_rate"] == 0.0
        and json.loads(stdout)["reports"] == reports["reports"]
    )


CASES = [
    case("parse", 'parse "G p"', 0, out=lambda out, _: json.loads(out)["canonical"] == "G p"),
    case(
        "parse-error-shows-caret",
        'parse "G(a ->"',
        err_is="error: unexpected end of input at line 1, column 7 (expected one of: identifier, 'true', 'false',"
        " '(', '!', 'G', 'F', 'X')\n  G(a ->\n        ^\n",
    ),
    # Lines split at "\n" alone, and the caret's indent keeps the line's tabs.
    case(
        "parse-error-caret-after-tabs",
        'parse "\t\ta &&"',
        err_is="error: unexpected '&' at line 1, column 6 (expected one of: identifier, 'true', 'false', '(', '!',"
        " 'G', 'F', 'X')\n  \t\ta &&\n  \t\t   ^\n",
    ),
    case(
        "parse-error-caret-past-carriage-return",
        'parse "a &\r b %"',
        err_is="error: unknown operator or character '%' at line 1, column 8\n  a &\r b %\n         ^\n",
    ),
    # The parser keeps its own stacks, so nesting depth meets no recursion limit.
    case(
        "parse-deep-parentheses",
        f'parse "{"(" * 5000}p{")" * 5000}"',
        0,
        out=lambda out, _: json.loads(out)["canonical"] == "p",
    ),
    case(
        "progress-labels-and-steps-file",
        'progress "F p" --labels q --steps-file steps.txt',
        files={"steps.txt": ""},
        err_has="error: argument --steps-file: not allowed with argument --labels",
    ),
    case(
        "progress-steps-file-not-utf8",
        'progress "G p" --steps-file steps.txt',
        files={"steps.txt": b"p\n\xffq\n"},
        err_is="error: steps.txt: not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 2:"
        " invalid start byte\n",
    ),
    # The README's example config guards 20 steps, and the trace it writes
    # audits with --cross-check to a report.
    Case(
        "readme-guard-audits-with-cross-check",
        (
            ("guard --config config.json --max-steps 20 --out-dir run", (0,)),
            ("audit run/trace.jsonl --config config.json --cross-check", EXIT_0_OR_1),
        ),
        files={"config.json": README_CONFIG},
        out=lambda out, _: json.loads(out)["reports"],
    ),
    # A script that holds no output ends the session before its first step,
    # and every output file counts the steps that were taken.
    Case(
        "guard-of-no-step-audits",
        (
            ("guard --config config.json --max-steps 5 --out-dir run", (0,)),
            ("audit run/trace.jsonl --config config.json", (0,)),
        ),
        files={"config.json": with_readme(model={"type": "scripted", "outputs": []})},
        err_is="ran 0 steps, 0 intervention(s), violation rate 0.0000\n"
        "audited 0 steps against 1 constraints: 0 violation(s)\n",
        out=runs_to_the_reports,
    ),
    *(
        case(
            f"audit-growing-residual-{formula_id}-{mode}",
            AUDIT,
            EXIT_0_OR_1,
            files={
                "config.json": {"constraints": [{"id": "c", "formula": formula}], "mode": mode},
                "trace.jsonl": GROWING_TRACE,
            },
            out=lambda out, _: len(json.loads(out)["reports"][0]["verdicts"]) == 600,
        )
        for formula_id, formula in GROWING_FORMULAS.items()
        for mode in ("plain", "reset")
    ),
    # The cross-check compares the residuals without recursion.
    *(
        case(
            f"audit-growing-residual-cross-check-{formula_id}-{mode}",
            AUDIT + " --cross-check",
            EXIT_0_OR_1,
            files={
                "config.json": {"constraints": [{"id": "c", "formula": formula}], "mode": mode},
                "trace.jsonl": GROWING_TRACE[:200],
            },
            out=lambda out, _: len(json.loads(out)["reports"][0]["verdicts"]) == 200,
        )
        for formula_id, formula in GROWING_FORMULAS.items()
        for mode in ("plain", "reset")
    ),
    # The reference engine takes a chain as one unit, so its width adds no
    # recursion.
    *(
        case(
            f"audit-wide-chain-cross-check-{mode}",
            AUDIT + " --cross-check",
            1,
            files={
                "config.json": {"constraints": WIDE_CONSTRAINTS, "mode": mode},
                "trace.jsonl": WIDE_TRACE,
            },
            out=lambda out, _: [len(r["verdicts"]) for r in json.loads(out)["reports"]] == [3, 3],
        )
        for mode in ("plain", "reset")
    ),
    case(
        "audit-deep-parentheses",
        AUDIT,
        1,
        files={
            "config.json": {"constraints": [{"id": "c", "formula": f"G ({'(' * 2000}!bad{')' * 2000})"}]},
            "trace.jsonl": [{"t": 1, "output": "step", "labels": ["bad"]}],
        },
        out=lambda out, _: json.loads(out)["reports"][0]["verdicts"] == ["violated"],
    ),
    case(
        "audit-without-config",
        "audit trace.jsonl",
        files={"trace.jsonl": trace("x")},
        err_has="error: the following arguments are required: --config",
    ),
    audit(
        "audit-missing-config",
        trace("x"),
        "error: cannot read config: [Errno 2] No such file or directory: 'absent.json'\n",
        cmd="audit trace.jsonl --config absent.json",
    ),
    audit(
        "audit-bad-formula-in-config",
        trace("x"),
        "error: constraint 'c': unexpected end of input at line 1, column 3 (expected one of: identifier, 'true',"
        " 'false', '(', '!', 'G', 'F', 'X')\n  G(\n    ^\n",
        config=with_readme(constraints=[{"id": "c", "formula": "G("}]),
    ),
    audit(
        "audit-bad-formula-in-config-shows-caret",
        trace("x"),
        "error: constraint 'c': unbalanced parentheses at line 1, column 8 (expected one of: ')')\n"
        "  G (!bad\n         ^\n",
        config=with_readme(constraints=[{"id": "c", "formula": "G (!bad"}]),
    ),
    audit(
        "audit-endpoint-labeler-without-vocabulary",
        trace("x"),
        "error: invalid config value: endpoint labeler is missing field 'vocabulary'\n",
        config=with_readme(labeler={"type": "endpoint", "endpoint": {"base_url": ENDPOINT["base_url"], "model": "m"}}),
    ),
    audit(
        "audit-invalid-rule-regex",
        trace("x"),
        "error: rule labeler: invalid regex '((': missing ), unterminated subpattern at position 1\n",
        config=with_readme(labeler={"type": "rule", "vocabulary": ["bad"], "rules": {"bad": "(("}}),
    ),
    audit(
        "audit-out-in-missing-directory",
        trace("fine", "goal reached"),
        "error: [Errno 2] No such file or directory: 'missing/r.json'\n",
        cmd=f"{AUDIT} --out missing/r.json",
    ),
    audit(
        "audit-f1-truth-without-reports",
        trace("bad", "goal"),
        "error: truth.json: malformed report: report document is missing field 'reports'\n",
        files={"truth.json": {"mode": "reset"}},
        cmd=F1,
    ),
    audit(
        "audit-f1-truth-without-constraint-id",
        trace("bad", "goal"),
        "error: truth.json: malformed report: report is missing field 'constraint_id'\n",
        files={"truth.json": {"reports": [{"verdicts": [], "violations": 0, "satisfactions": 0}]}},
        cmd=F1,
    ),
    *(
        audit(
            f"audit-f1-truth-{name}",
            trace("bad"),
            f"error: truth.json: malformed report: {message}\n",
            files={"truth.json": {"reports": [{**REPORT, **report}]}},
            cmd=F1,
        )
        for name, report, message in [
            ("verdicts-string", {"verdicts": "violated"}, "verdicts must be an array, got 'violated'"),
            ("violations-string", {"violations": "1"}, "violations must be an integer, got '1'"),
            ("witnesses-object", {"witnesses": {}}, "witnesses must be an array, got {}"),
            (
                "entry-labels-string",
                {"witnesses": [{"verdict": "violated", "entries": [{"t": 1, "labels": "bad", "residual": "false"}]}]},
                "labels must be an array, got 'bad'",
            ),
            ("verdict-unknown", {"verdicts": ["bogus"]}, "'bogus' is not a valid Verdict"),
        ]
    ),
    audit(
        "audit-f1-truth-not-json",
        trace("bad"),
        "error: truth.json: not valid JSON: Expecting value: line 1 column 1 (char 0)\n",
        files={"truth.json": b"reports: none\n"},
        cmd=F1,
    ),
    audit(
        "audit-f1-truth-not-utf-8",
        trace("bad"),
        f"error: truth.json: not valid JSON: {CODEC}\n",
        files={"truth.json": b"\xff{}"},
        cmd=F1,
    ),
    audit(
        "audit-f1-truth-nested-too-deeply",
        trace("bad"),
        None,
        files={"truth.json": "[" * 100_000},
        cmd=F1,
        err_re=r"error: truth\.json: not valid JSON: maximum recursion depth exceeded[^\n]*\n",
    ),
    audit(
        "audit-f1-truth-residual-shows-caret",
        trace("bad"),
        "error: truth.json: malformed report: unexpected end of input at line 1, column 7 (expected one of:"
        " identifier, 'true', 'false', '(', '!', 'G', 'F', 'X')\n  F (a &\n        ^\n",
        files={"truth.json": {"reports": [{**REPORT, "witnesses": [{"verdict": "violated", "entries": [ENTRY]}]}]}},
        cmd=F1,
    ),
    audit(
        "audit-f1-truth-other-constraint-id",
        trace("bad"),
        "error: truth.json: mismatched constraint ids between predicted and truth reports\n",
        files={"truth.json": {"reports": [{**REPORT, "constraint_id": "other"}]}},
        cmd=F1,
    ),
    audit(
        "audit-f1-truth-verdict-lengths",
        trace("bad"),
        "error: truth.json: constraint no_bad: mismatched verdict sequence lengths\n",
        files={"truth.json": {"reports": [{**REPORT, "verdicts": ["violated", "violated"]}]}},
        cmd=F1,
    ),
    # Relabeling needs a labeler: auditing the embedded labels instead
    # would report on labels the user asked to replace.
    audit(
        "audit-relabel-without-labeler",
        [{"t": 1, "output": "bad", "labels": []}],
        "error: --relabel needs a labeler, but the config has none and keeps embedded labels\n",
        config={"constraints": [{"id": "c", "formula": "G !bad"}]},
        cmd=f"{AUDIT} --relabel",
    ),
    audit(
        "audit-proposition-outside-vocabulary",
        trace("a bad move"),
        "error: constraint 'c': proposition(s) bda outside the labeler's vocabulary\n",
        config=with_readme(constraints=[{"id": "c", "formula": "G !bda"}]),
    ),
    audit(
        "audit-input-not-a-string",
        [{"t": 1, "input": 5, "output": "ok"}],
        "error: trace.jsonl: line 1: input must be a string or null, got 5\n",
    ),
    audit(
        "audit-step-index-boolean",
        [{"t": True, "output": "bad move"}],
        "error: trace.jsonl: line 1: t must be an integer, got True\n",
    ),
    audit(
        "audit-unknown-top-level-key",
        trace("a bad move"),
        "error: unknown config key(s): 'Mode', 'polcy'\n",
        config=with_readme(polcy={"strategy": "resample"}, Mode="plain"),
        cmd=f"{AUDIT} --out r.json",
        absent=("r.json",),
    ),
    audit(
        "audit-trace-line-not-utf8",
        b'{"t": 1, "output": "ok"}\n\xff\n',
        f"error: trace.jsonl: line 2: not valid UTF-8: {CODEC}\n",
    ),
    audit(
        "audit-trace-line-not-json",
        '{"t": 1, "output": "ok"}\nnope\n',
        "error: trace.jsonl: line 2: malformed JSON: Expecting value\n",
    ),
    # A JSON escape can spell half of a surrogate pair, which no report
    # file can hold: the trace is refused before the audit writes one.
    *(
        audit(
            f"audit-trace-lone-surrogate-{name}",
            [*trace("ok"), {"t": 2, "output": "ok", **step}],
            f"error: trace.jsonl: line 2: {text} holds the lone surrogate '\\ud800' at position {position}, "
            "which UTF-8 cannot encode\n",
            cmd=f"{AUDIT} --out rep.json",
            absent=("rep.json",),
        )
        for name, step, text, position in [
            ("output", {"output": "bad \ud800"}, "output", 4),
            ("input", {"input": "\ud800"}, "input", 0),
            ("label", {"labels": ["bad", "b\ud800d"]}, "an item of labels", 1),
        ]
    ),
    # JSON nested deeper than the decoder goes.
    audit(
        "audit-trace-line-nested-too-deeply",
        "[" * 100_000 + "\n",
        None,
        err_re=r"error: trace\.jsonl: line 1: malformed JSON: maximum recursion depth exceeded[^\n]*\n",
    ),
    audit(
        "audit-trace-step-not-an-object",
        [*trace("ok", "fine"), [1]],
        "error: trace.jsonl: line 3: step must be an object, got [1]\n",
    ),
    audit(
        "audit-meta-line-not-an-object",
        [{"meta": 5}, {"t": 1, "output": "ok"}],
        "error: trace.jsonl: line 1: meta must be an object, got 5\n",
    ),
    audit("audit-config-not-utf8", trace("ok"), f"error: config is not valid JSON: {CODEC}\n", config=b"\xff{}"),
    case(
        "guard-max-steps-not-an-integer",
        "guard --config config.json --max-steps abc",
        files={"config.json": README_CONFIG},
        err_has="error: argument --max-steps: invalid int value: 'abc'",
    ),
    *(
        guard(
            f"guard-max-steps-{max_steps}",
            {},
            cmd=f"guard --config config.json --max-steps {max_steps} --out-dir run",
            err_is=f"error: --max-steps must be at least 1, got {max_steps}\n",
        )
        for max_steps in ("0", "-1")
    ),
    guard(
        "guard-missing-model",
        {},
        files={"config.json": {key: value for key, value in README_CONFIG.items() if key != "model"}},
        err_is="error: guard needs a 'model' object in the config\n",
    ),
    *(
        guard(f"guard-config-fault-{name}", change, err_is=f"error: {message}\n")
        for name, change, message in [
            ("embedded-labeler", {"labeler": {"type": "embedded"}}, NEEDS_LABELER),
            ("null-labeler", {"labeler": None}, NEEDS_LABELER),
            (
                "no-id",
                {"constraints": [{"formula": "G !bad"}]},
                "invalid config value: constraint #1 is missing field 'id'",
            ),
            (
                "no-formula",
                {"constraints": [{"id": "no_bad"}]},
                "invalid config value: constraint #1 is missing field 'formula'",
            ),
            ("duplicate-id", {"constraints": README_CONFIG["constraints"] * 2}, "duplicate constraint id 'no_bad'"),
            ("no-script", {"model": {"type": "scripted"}}, "scripted model needs 'outputs' or 'distributions'"),
            ("unknown-mode", {"mode": "sometimes"}, "mode must be 'plain' or 'reset', got 'sometimes'"),
            (
                "no-distributions",
                {"model": {"type": "scripted", "distributions": []}},
                "invalid config value: distributions must not be empty",
            ),
        ]
    ),
    *(
        guard(f"guard-bad-config-value-{i}", change, err_is=f"error: invalid config value: {message}\n")
        for i, (change, message) in enumerate(BAD_CONFIG_VALUES)
    ),
    # A model or labeler spec without its type names the section it is in.
    guard(
        "guard-model-without-type", {"model": {}}, err_is="error: invalid config value: model is missing field 'type'\n"
    ),
    audit(
        "audit-labeler-without-type",
        trace("x"),
        "error: invalid config value: labeler is missing field 'type'\n",
        config=with_readme(labeler={}),
    ),
    guard(
        "guard-out-dir-under-regular-file",
        {},
        files={"afile": ""},
        cmd="guard --config config.json --max-steps 3 --out-dir afile/sub",
        err_is="error: [Errno 20] Not a directory: 'afile/sub'\n",
    ),
    guard(
        "guard-proposition-outside-vocabulary",
        {"constraints": [{"id": "c", "formula": "G !bda"}]},
        err_is="error: constraint 'c': proposition(s) bda outside the labeler's vocabulary\n",
    ),
    guard(
        "guard-unknown-top-level-key",
        {"polcy": README_CONFIG["policy"]},
        err_is="error: unknown config key(s): 'polcy'\n",
    ),
    guard(
        "guard-unknown-model-key",
        {"model": {**README_CONFIG["model"], "temprature": 0.5}},
        err_is="error: unknown scripted model key(s): 'temprature'\n",
    ),
    guard(
        "guard-unknown-policy-key",
        {"policy": {"taw" if key == "tau" else key: value for key, value in README_CONFIG["policy"].items()}},
        err_is="error: unknown policy key(s): 'taw'\n",
    ),
    guard(
        "guard-endpoint-retries-0",
        {"model": {**ENDPOINT, "retries": 0}},
        err_is="error: invalid config value: retries must be at least 1, got 0\n",
    ),
    *(
        guard(
            f"guard-endpoint-{key}-{number}",
            {},
            files={"config.json": with_number(with_readme(model={**ENDPOINT, key: "NUMBER"}), number)},
            err_is=f"error: invalid config value: {message}\n",
        )
        for key, number, message in TOO_LONG
    ),
    # A nested endpoint spec must not turn into another model type.
    guard(
        "guard-endpoint-labeler-inner-type",
        {"labeler": {**ENDPOINT_LABELER, "endpoint": {**ENDPOINT, "type": "scripted", "outputs": ["bad: yes"]}}},
        err_is="error: invalid config value: endpoint's 'type' must be 'endpoint' or absent, got 'scripted'\n",
    ),
    *(
        guard(
            f"guard-non-finite-{name}",
            change,
            err_is=f"error: config is not valid JSON: {number} is not a JSON number\n",
        )
        for name, number, change in [
            ("action_temperature-NaN", "NaN", {"action_temperature": float("nan")}),
            ("sampling_temperature-Infinity", "Infinity", {"sampling_temperature": float("inf")}),
            ("seed--Infinity", "-Infinity", {"seed": float("-inf")}),
            (
                "distribution-weight-NaN",
                "NaN",
                {"model": {"type": "scripted", "distributions": [[["bad move", float("nan")], ["ok move", 0.5]]]}},
            ),
        ]
    ),
    guard(
        "guard-inject-template-missing",
        {"policy": {**README_CONFIG["policy"], "strategy": "inject", "template_path": "missing.txt"}},
        err_is="error: cannot read inject template missing.txt: [Errno 2] No such file or directory: 'missing.txt'\n",
    ),
    guard(
        "guard-inject-template-path-empty",
        {"policy": {**README_CONFIG["policy"], "strategy": "inject", "template_path": ""}},
        err_is="error: invalid config value: template_path must name a file, got ''\n",
    ),
    guard(
        "guard-inject-template-not-utf8",
        {"policy": {**README_CONFIG["policy"], "strategy": "inject", "template_path": "reminder.txt"}},
        files={"reminder.txt": b"\xff{constraints}"},
        err_is=f"error: cannot read inject template reminder.txt: {CODEC}\n",
    ),
    # Audit and guard check a script item by item alike: a config one
    # accepts, the other runs.
    audit(
        "audit-distribution-not-an-array",
        trace("x"),
        "error: invalid config value: a distribution must be an array, got None\n",
        config=with_readme(model={"type": "scripted", "distributions": [None]}),
    ),
    guard(
        "guard-distribution-not-an-array",
        {"model": {"type": "scripted", "distributions": [None]}},
        err_is="error: invalid config value: a distribution must be an array, got None\n",
    ),
    # An inline template and a template file: neither is dropped silently.
    guard(
        "guard-inject-template-and-template-path",
        {
            "policy": {
                **README_CONFIG["policy"], "strategy": "inject", "inject_template": "Mind {constraints}",
                "template_path": "reminder.txt",
            }
        },
        files={"reminder.txt": "Remember {constraints}"},
        err_is="error: policy sets both 'inject_template' and 'template_path'; set at most one\n",
    ),
    # The monitor-backed oracle scores a generated benchmark perfectly.
    Case(
        "bench-oracle-scores-generated-cases-perfectly",
        (
            ("bench gen --suite constraint --family complex --n 3 --count 2 --seed 1 --out bench.jsonl", (0,)),
            (EVAL, (0,)),
        ),
        out=lambda out, _: json.loads(out)["overall"]["accuracy"] == 1.0,
    ),
    case(
        "bench-gen-unknown-suite",
        "bench gen --suite bogus --out bench.jsonl",
        err_has="error: argument --suite: invalid choice: 'bogus'",
        absent=("bench.jsonl",),
    ),
    *(
        case(
            f"bench-gen-gap-0-{suite}",
            f"bench gen --suite {suite} --gap 0 --count 2 --out x.jsonl",
            err_is=f"error: gap must be {bound}, got 0\n",
        )
        for suite, bound in (("elasticity", "in [1, 1000]"), ("constraint", ">= 1"), ("proposition", ">= 1"))
    ),
    case(
        "bench-gen-invalid-knob",
        "bench gen --suite elasticity --gap 5000 --count 2 --out x.jsonl",
        err_is="error: gap must be in [1, 1000], got 5000\n",
    ),
    *(
        case(
            f"bench-gen-count-{count}",
            f"bench gen --suite elasticity --count {count} --out bench.jsonl",
            err_is=f"error: --count must be at least 1, got {count}\n",
            absent=("bench.jsonl",),
        )
        for count in ("0", "-3")
    ),
    # A flag that the suite would ignore names the suite that reads it.
    *(
        case(
            f"bench-gen-{suite}-{flags.split()[0][2:]}",
            f"bench gen --suite {suite} {flags} --count 2 --out bench.jsonl",
            err_is=f"error: {message}\n",
            absent=("bench.jsonl",),
        )
        for suite, flags, message in (
            ("elasticity", "--n 5 --entities 3", "--n requires --suite constraint"),
            ("constraint", "--entities 3", "--entities requires --suite proposition"),
            ("proposition", "--n 5", "--n requires --suite constraint"),
        )
    ),
    bench(
        "bench-eval-out-in-missing-directory",
        BENCH,
        "error: [Errno 2] No such file or directory: 'missing/e.json'\n",
        cmd=f"{EVAL} --out missing/e.json",
    ),
    bench(
        "bench-eval-endpoint-without-judge-config",
        BENCH,
        "error: --judge endpoint requires --judge-config\n",
        cmd="bench eval --bench bench.jsonl --judge endpoint",
    ),
    bench(
        "bench-eval-judge-config-without-endpoint",
        BENCH,
        "error: --judge-config requires --judge endpoint\n",
        cmd=f"{EVAL} --judge-config does-not-exist.json",
    ),
    *(bench(f"bench-eval-{name}", [line], err_is) for name, (line, err_is) in MALFORMED_BENCH.items()),
    bench(
        "bench-eval-formula-shows-caret",
        [bench_case(FOX_STEP, constraints=[{**BENCH_CONSTRAINT, "formula": "F (animal_fox"}])],
        "error: bench.jsonl: line 1: unbalanced parentheses at line 1, column 14 (expected one of: ')')\n"
        "  F (animal_fox\n               ^\n",
    ),
    # The one error line is located; the caret under the formula follows.
    bench(
        "bench-eval-second-formula-not-parsing",
        [*BENCH, bench_case(FOX_STEP, constraints=[{**BENCH_CONSTRAINT, "formula": "F (a &"}])],
        "error: bench.jsonl: line 2: unexpected end of input at line 1, column 7 (expected one of: identifier,"
        " 'true', 'false', '(', '!', 'G', 'F', 'X')\n  F (a &\n        ^\n",
    ),
    bench("bench-eval-empty", "", "error: bench.jsonl: bench file has no cases\n"),
    bench("bench-eval-blank-lines", "\n  \n", "error: bench.jsonl: bench file has no cases\n"),
    bench(
        "bench-eval-line-not-utf8",
        json.dumps(BENCH[0]).encode() + b"\n\xff\n",
        f"error: bench.jsonl: line 2: not valid UTF-8: {CODEC}\n",
    ),
    case(
        "bench-eval-line-nested-too-deeply",
        EVAL,
        files={"bench.jsonl": "[" * 100_000 + "\n"},
        err_re=r"error: bench\.jsonl: line 1: malformed JSON: maximum recursion depth exceeded[^\n]*\n",
    ),
    bench(
        "bench-eval-step-not-an-object",
        [bench_case([1])],
        "error: bench.jsonl: line 1: step must be an object, got [1]\n",
    ),
    # The coin flip judge words its prompt by the entities knob.
    *(
        bench(
            f"bench-eval-entities-{name}",
            [bench_case(FOX_STEP, knobs={"entities": entities})],
            f"error: bench.jsonl: line 1: entities must be an integer, got {entities!r}\n",
            cmd="bench eval --bench bench.jsonl --judge coinflip",
        )
        for name, entities in (("array", [2]), ("string", "two"))
    ),
    judge(
        "judge-config-not-an-object",
        "[1]",
        "error: invalid config value: judge config must be an object, got [1]\n",
    ),
    judge("judge-config-not-utf8", b"\xff{}", f"error: judge config is not valid JSON: {CODEC}\n"),
    judge(
        "judge-config-timeout-0",
        {"base_url": ENDPOINT["base_url"], "model": "m", "timeout": 0},
        "error: invalid config value: timeout must be positive, got 0\n",
    ),
    *(
        judge(
            f"judge-config-{key}-{number}",
            with_number({**ENDPOINT, key: "NUMBER"}, number),
            f"error: invalid config value: {message}\n",
        )
        for key, number, message in TOO_LONG
    ),
    judge(
        "judge-config-base-url-int",
        {"base_url": 5, "model": "m"},
        "error: invalid config value: base_url must be a string, got 5\n",
    ),
    *(
        judge(
            f"judge-config-inner-type-{kind}",
            {"type": kind, "outputs": ["VALID"], "base_url": "http://127.0.0.1:9/v1", "model": "m"},
            f"error: invalid config value: judge config's 'type' must be 'endpoint' or absent, got {kind!r}\n",
        )
        for kind in ("scripted", None, 5)
    ),
    judge(
        "judge-config-infinity",
        {**ENDPOINT, "timeout": float("inf")},
        "error: judge config is not valid JSON: Infinity is not a JSON number\n",
        cmd=f"{JUDGE} --out eval.json",
        absent=("eval.json",),
    ),
]


def run_script(script: str, argv: list[str], workdir: Path) -> tuple[int, str, str]:
    # Decoded by hand: text mode would turn a "\r" the script echoes into "\n".
    proc = subprocess.run([script, *argv], cwd=workdir, capture_output=True)
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


def main() -> int:
    """Run every row through the ``ltlguard`` on ``PATH``; 1 if one fails."""
    script = shutil.which("ltlguard")
    if script is None:
        print("no ltlguard console script on PATH", file=sys.stderr)
        return 1
    failed = 0
    for row in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            problems = check(row, lambda argv: run_script(script, argv, Path(tmp)), Path(tmp))
        failed += bool(problems)
        for problem in problems:
            print(f"FAIL {row.name}: {problem}")
    print(f"{len(CASES) - failed} of {len(CASES)} cases passed through {script}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
