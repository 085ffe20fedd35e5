"""Trace loading/saving, validation, and labeler application."""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ltlguard.ltl import Verdict, parse
from ltlguard.trace import (
    LabelingError,
    StepRecord,
    Trace,
    TraceError,
    VerdictReport,
    WitnessEntry,
    WitnessEpisode,
    apply_labeler,
    checked,
    label_step,
    load_trace,
    report_to_dict,
    save_reports,
    save_trace,
    write_json,
)


NEWLINES = {"lf": b"\n", "crlf": b"\r\n", "cr": b"\r"}


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class UppercaseLabeler:
    """Labels 'shout' when the latest output is all-caps; history length as parity."""

    vocabulary = frozenset({"shout", "even_history"})

    def __call__(self, steps):
        labels = set()
        if steps[-1].output.isupper():
            labels.add("shout")
        if len(steps) % 2 == 0:
            labels.add("even_history")
        return frozenset(labels)


class TestLoadTrace:
    def test_single_step(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(path, ['{"t": 1, "input": "go", "output": "ok"}'])
        trace = load_trace(path)
        assert len(trace) == 1
        assert trace.steps[0] == StepRecord(t=1, input="go", output="ok")

    def test_non_contiguous_index(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(
            path,
            ['{"t": 1, "output": "a"}', '{"t": 3, "output": "b"}'],
        )
        with pytest.raises(TraceError, match="non-contiguous step index at line 2"):
            load_trace(path)

    def test_embedded_labels(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(path, ['{"t": 1, "output": "grab", "labels": ["pickup"]}'])
        trace = load_trace(path)
        assert trace.steps[0].labels == frozenset({"pickup"})

    def test_missing_input_is_empty(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(path, ['{"t": 1, "output": "a"}'])
        assert load_trace(path).steps[0].input == ""

    def test_null_input_is_empty(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(path, ['{"t": 1, "input": null, "output": "a"}'])
        assert load_trace(path).steps[0].input == ""

    @pytest.mark.parametrize("value", ["5", "false", "[\"go\"]", "{}"])
    def test_non_string_input_rejected(self, tmp_path, value):
        path = tmp_path / "t.jsonl"
        write_lines(path, ['{"t": 1, "output": "a"}', f'{{"t": 2, "input": {value}, "output": "b"}}'])
        with pytest.raises(TraceError) as info:
            load_trace(path)
        assert str(info.value) == f"{path}: line 2: input must be a string or null, got {json.loads(value)!r}"

    @pytest.mark.parametrize("value", ["true", "false", "1.0", "\"1\"", "null"])
    def test_non_integer_step_index_rejected(self, tmp_path, value):
        # bool is an int subclass in Python, but a JSON boolean is no step index.
        path = tmp_path / "t.jsonl"
        write_lines(path, [f'{{"t": {value}, "output": "bad"}}'])
        with pytest.raises(TraceError) as info:
            load_trace(path)
        assert str(info.value) == f"{path}: line 1: t must be an integer, got {json.loads(value)!r}"

    def test_metadata_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(path, ['{"meta": {"seed": 3}}', '{"t": 1, "output": "a"}'])
        trace = load_trace(path)
        assert trace.metadata == {"seed": 3}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TraceError, match="empty"):
            load_trace(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(path, ['{"t": 1, "output": "a"}', "{nope"])
        with pytest.raises(TraceError, match="line 2"):
            load_trace(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"t": 1, "output": "a"} {"t": 2, "output": "b"}', "Extra data"),
            ('\ufeff{"t": 1, "output": "a"}', "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
            ('\u00a0{"t": 1, "output": "a"}', "Expecting value"),  # U+00A0 is no JSON whitespace
        ],
        ids=["two-values", "bom", "nbsp"],
    )
    def test_malformed_line_message(self, tmp_path, line, message):
        path = tmp_path / "t.jsonl"
        write_lines(path, [line])
        with pytest.raises(TraceError) as info:
            load_trace(path)
        assert str(info.value) == f"{path}: line 1: malformed JSON: {message}"

    # JSON writes U+0085 and U+2028 unescaped, and ``str.splitlines`` would
    # break a line at either.
    @pytest.mark.parametrize(
        "newline, text",
        [(newline, text) for text in ("caf\u00e9", "next\u0085line", "line\u2028sep") for newline in NEWLINES.values()],
        ids=[f"{name}{text}" for text in ("", "-u0085", "-u2028") for name in NEWLINES],
    )
    def test_universal_newlines(self, tmp_path, newline, text):
        path = tmp_path / "t.jsonl"
        lines = [json.dumps({"t": 1, "output": text}, ensure_ascii=False), '{"t": 2, "output": "b"}']
        path.write_bytes(newline.join(line.encode("utf-8") for line in lines) + newline)
        assert [s.output for s in load_trace(path).steps] == [text, "b"]

    @pytest.mark.parametrize("blank", ["", "  \t", "\u00a0", "\u3000 "])
    def test_blank_lines_skipped(self, tmp_path, blank):
        path = tmp_path / "t.jsonl"
        write_lines(path, [blank, '{"t": 1, "output": "a"}', blank, '{"t": 2, "output": "b"}', blank])
        assert [s.output for s in load_trace(path).steps] == ["a", "b"]

    @pytest.mark.parametrize("value", ["5", "null", "[\"a\"]", "{}"])
    def test_non_string_label_rejected(self, tmp_path, value):
        path = tmp_path / "t.jsonl"
        write_lines(path, [f'{{"t": 1, "output": "a", "labels": ["ok", {value}]}}'])
        with pytest.raises(TraceError) as info:
            load_trace(path)
        assert str(info.value) == f"{path}: line 1: an item of labels must be a string, got {json.loads(value)!r}"

    # A JSON escape can spell half of a surrogate pair, which no UTF-8 output
    # can hold; a whole pair is one character.
    @pytest.mark.parametrize(
        "step, message",
        [
            ({"output": "bad \ud800"}, "output holds the lone surrogate '\\ud800' at position 4"),
            ({"input": "\udfff", "output": "ok"}, "input holds the lone surrogate '\\udfff' at position 0"),
            ({"labels": ["ok", "b\udc00d"]}, "an item of labels holds the lone surrogate '\\udc00' at position 1"),
        ],
        ids=["output", "input", "label"],
    )
    def test_lone_surrogate_rejected(self, tmp_path, step, message):
        path = tmp_path / "t.jsonl"
        write_lines(path, ['{"t": 1, "output": "a"}', json.dumps({"t": 2, "output": "ok", **step})])
        with pytest.raises(TraceError) as info:
            load_trace(path)
        assert str(info.value) == f"{path}: line 2: {message}, which UTF-8 cannot encode"

    def test_surrogate_pair_escape_loads(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(path, ['{"t": 1, "output": "\\ud83d\\ude00", "labels": ["\\ud83d\\ude00"]}'])
        assert load_trace(path).steps == (StepRecord(1, "", "\U0001f600", frozenset({"\U0001f600"})),)

    def test_line_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        # The position is counted from the start of the faulty line.
        path.write_bytes('{"t": 1, "output": "a"}\n{"t": 2, "output": "\xe9"}\n'.encode("latin-1"))
        with pytest.raises(TraceError) as info:
            load_trace(path)
        assert str(info.value) == (
            f"{path}: line 2: not valid UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 20: "
            "invalid continuation byte"
        )

    def test_missing_output(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_lines(path, ['{"t": 1}'])
        with pytest.raises(TraceError, match="output"):
            load_trace(path)

    def test_round_trip(self, tmp_path):
        steps = (
            StepRecord(1, "start", "héllo ✓"),
            StepRecord(2, "", "tab\tand \"quotes\"", frozenset({"b", "a"})),
        )
        trace = Trace(steps, {"seed": 7})
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.steps == steps
        assert loaded.metadata == {"seed": 7}

    def test_save_is_deterministic(self, tmp_path):
        trace = Trace((StepRecord(1, "", "x", frozenset({"b", "a", "c"})),))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_trace(trace, p1)
        save_trace(trace, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text())["labels"] == ["a", "b", "c"]


class TestChecked:
    @pytest.mark.parametrize(
        "value, kind, nullable",
        [("", "string", False), (2, "integer", False), (2, "number", False), (2.5, "number", False),
         (False, "boolean", False), ([], "array", False), ({}, "object", False), (None, "string", True)],
    )
    def test_returns_value_of_its_kind_unchanged(self, value, kind, nullable):
        assert checked(value, kind, "v", nullable=nullable) is value

    @pytest.mark.parametrize(
        "value, kind, nullable, message",
        [
            (True, "integer", False, "v must be an integer, got True"),
            (True, "number", False, "v must be a number, got True"),
            (1, "boolean", False, "v must be a boolean, got 1"),
            (2.0, "integer", True, "v must be an integer or null, got 2.0"),
            (None, "object", False, "v must be an object, got None"),
            ("abc", "array", False, "v must be an array, got 'abc'"),
        ],
    )
    def test_rejects_other_kinds(self, value, kind, nullable, message):
        with pytest.raises(TypeError) as err:
            checked(value, kind, "v", nullable=nullable)
        assert str(err.value) == message

    def test_items(self):
        items = ["a", "b"]
        assert checked(items, "string[]", "v") is items
        with pytest.raises(TypeError, match="^an item of v must be a string, got 5$"):
            checked(["a", 5], "string[]", "v")
        with pytest.raises(TypeError, match="^v must be an array, got 'ab'$"):
            checked("ab", "string[]", "v")


class TestTraceInvariants:
    def test_bad_contiguity_rejected_at_construction(self):
        with pytest.raises(TraceError, match="contiguous"):
            Trace((StepRecord(2, "", "a"),))


class TestApplyLabeler:
    def test_labels_every_step(self):
        trace = Trace(tuple(StepRecord(i, "", o) for i, o in enumerate(["a", "B", "c"], 1)))
        labeled = apply_labeler(trace, UppercaseLabeler())
        assert all(s.labels is not None for s in labeled.steps)
        assert labeled.steps[1].labels == frozenset({"shout", "even_history"})

    def test_history_dependence_with_empty_input(self):
        # Autoregressive steps (no input) still get labeled from history.
        trace = Trace((StepRecord(1, "prompt", "a"), StepRecord(2, "", "b")))
        labeled = apply_labeler(trace, UppercaseLabeler())
        assert labeled.steps[1].labels == frozenset({"even_history"})

    def test_existing_labels_kept_without_overwrite(self):
        trace = Trace((StepRecord(1, "", "A", frozenset({"shout"})),))
        labeled = apply_labeler(trace, UppercaseLabeler())
        assert labeled.steps[0].labels == frozenset({"shout"})

    def test_overwrite_recomputes(self):
        trace = Trace((StepRecord(1, "", "quiet", frozenset({"shout"})),))
        labeled = apply_labeler(trace, UppercaseLabeler(), overwrite=True)
        assert labeled.steps[0].labels == frozenset()

    def test_undeclared_proposition(self):
        class Rogue:
            vocabulary = frozenset({"ok"})

            def __call__(self, steps):
                return frozenset({"mystery"})

        trace = Trace((StepRecord(1, "", "a"),))
        with pytest.raises(LabelingError, match="undeclared proposition"):
            apply_labeler(trace, Rogue())

    def test_failure_carries_step_index(self):
        class Flaky:
            vocabulary = frozenset()

            def __call__(self, steps):
                if len(steps) == 2:
                    raise RuntimeError("boom")
                return frozenset()

        trace = Trace((StepRecord(1, "", "a"), StepRecord(2, "", "b")))
        with pytest.raises(LabelingError, match="step 2") as err:
            apply_labeler(trace, Flaky())
        assert err.value.t == 2

    @pytest.mark.parametrize(
        "overwrite, histories, labels",
        [
            (
                False,
                [
                    [(1, None)],
                    [(1, {"shout"}), (2, {"shout"}), (3, None)],
                ],
                [{"shout"}, {"shout"}, {"shout"}, set()],
            ),
            (
                True,
                [
                    [(1, None)],
                    [(1, {"shout"}), (2, None)],
                    [(1, {"shout"}), (2, {"even_history"}), (3, None)],
                    [(1, {"shout"}), (2, {"even_history"}), (3, {"shout"}), (4, None)],
                ],
                [{"shout"}, {"even_history"}, {"shout"}, {"even_history"}],
            ),
        ],
        ids=["embedded-kept", "overwrite"],
    )
    def test_labeler_sees_each_history(self, overwrite, histories, labels):
        # Each call sees the steps labeled so far, then the current one unlabeled.
        class Spy(UppercaseLabeler):
            def __init__(self):
                self.calls = []

            def __call__(self, steps):
                self.calls.append([(s.t, s.labels) for s in steps])
                return super().__call__(steps)

        trace = Trace(
            (
                StepRecord(1, "", "A"),
                StepRecord(2, "", "b", frozenset({"shout"})),
                StepRecord(3, "", "C"),
                StepRecord(4, "", "d", frozenset()),
            )
        )
        spy = Spy()
        labeled = apply_labeler(trace, spy, overwrite=overwrite)
        assert spy.calls == histories
        assert [s.labels for s in labeled.steps] == labels

    def test_idempotent_for_deterministic_labeler(self):
        trace = Trace(tuple(StepRecord(i, "", o) for i, o in enumerate(["A", "b"], 1)))
        once = apply_labeler(trace, UppercaseLabeler())
        twice = apply_labeler(once, UppercaseLabeler())
        assert once == twice


class TestLabelStep:
    def test_labels_in_place_and_appends(self):
        seen = []

        class Spy(UppercaseLabeler):
            def __call__(self, steps):
                seen.append((steps, steps[-1]))
                return super().__call__(steps)

        steps, step = [StepRecord(1, "", "a", frozenset())], StepRecord(2, "go", "B")
        labels = label_step(Spy(), steps, step)
        assert labels == frozenset({"shout", "even_history"})
        assert steps == [StepRecord(1, "", "a", frozenset()), StepRecord(2, "go", "B", labels)]
        # The labeler saw the caller's own list and the caller's own record last.
        assert seen[0][0] is steps and seen[0][1] is step

    @pytest.mark.parametrize(
        "error, expected, match",
        [
            (RuntimeError("boom"), LabelingError, "step 2: labeler failed: boom"),
            (KeyboardInterrupt(), KeyboardInterrupt, None),
        ],
        ids=["runtime-error", "keyboard-interrupt"],
    )
    def test_raising_labeler_leaves_steps_unchanged(self, error, expected, match):
        class Raising:
            vocabulary = frozenset()

            def __call__(self, steps):
                raise error

        steps = [StepRecord(1, "", "a", frozenset())]
        before = list(steps)
        with pytest.raises(expected, match=match):
            label_step(Raising(), steps, StepRecord(2, "", "b"))
        assert steps == before

    def test_undeclared_proposition_leaves_steps_unchanged(self):
        class Rogue:
            vocabulary = frozenset({"ok"})

            def __call__(self, steps):
                return frozenset({"ok", "mystery"})

        steps = [StepRecord(1, "", "a", frozenset())]
        before = list(steps)
        with pytest.raises(LabelingError, match="step 2: undeclared proposition\\(s\\): mystery"):
            label_step(Rogue(), steps, StepRecord(2, "", "b"))
        assert steps == before


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),  # any code point: non-ASCII, control characters, surrogates
)
_KEYS = st.one_of(st.text(), st.integers(), st.floats(allow_nan=True), st.booleans(), st.none())
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_KEYS, children, max_size=5),
    ),
    max_leaves=40,
)


class TestWriteJson:
    """``write_json`` writes the bytes of ``json.dumps(..., indent=2)``."""

    @settings(max_examples=300, deadline=None)
    @given(_DOCUMENTS)
    def test_equals_json_dumps(self, doc):
        expected = json.dumps(doc, ensure_ascii=False, indent=2) + "\n"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            write_json(doc)
        assert out.getvalue() == expected

    @pytest.mark.parametrize(
        "doc",
        [
            {"reports": [], "empty": {}, "nested": [[], {}, [[]], ({},)]},
            {"é \x00\x1f": ["\x7f", "ü", "\U0001f600"], 1: 2.5, 2.5: None, None: True, False: -0.0},
            [float("nan"), float("inf"), -float("inf"), 10**30, {"a": [1, {"b": (2, 3)}]}],
            "leaf",
        ],
    )
    def test_equals_json_dumps_in_file(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        write_json(doc, path)
        assert path.read_bytes() == (json.dumps(doc, ensure_ascii=False, indent=2) + "\n").encode("utf-8")

    # The last document's dict holds a container, so its tuple key reaches
    # the walker's own key check rather than the C encoder.
    @pytest.mark.parametrize(
        "doc", [{("a",): 1}, {"a": [{(1, 2): 0}]}, [{1, 2}], {"a": [object()]}, {"a": [{("b",): [1]}]}]
    )
    def test_unencodable_raises_type_error_like_json_dumps(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, ensure_ascii=False, indent=2)
        with pytest.raises(TypeError):
            write_json(doc, None)


# Texts with quotes, backslashes, control characters and non-ASCII.
_WITNESS_TEXTS = [
    "", "plain", 'say "hi"', "back\\slash", "tab\tline\nnul\x00\x1f\x7f", "caf\u00e9 \u2713 \U0001f600\u2028",
]
_RESIDUALS = [parse(text) for text in ("true", "false", "G !bad", "F (ok & X F bad)", "bad U (ok | !bad)")]


def _random_verdicts(rng: random.Random) -> tuple[Verdict, ...]:
    """Runs of the three verdicts: alternating, of random lengths, or one run,
    at lengths around the writer's blocks of 32."""
    length = rng.choice([0, 1, 2, 31, 32, 33, 63, 64, 65, 100, 1000])
    shape = rng.choice(["alternating", "runs", "one run"])
    verdicts = [rng.choice(list(Verdict))]
    while len(verdicts) < length:
        if shape == "alternating":
            verdicts.append(rng.choice([v for v in Verdict if v is not verdicts[-1]]))
        elif shape == "runs":
            verdicts += [rng.choice(list(Verdict))] * rng.randint(1, rng.choice([3, 40]))
        else:
            verdicts.append(verdicts[-1])
    return tuple(verdicts[:length])


def _random_report(rng: random.Random, cid: str) -> VerdictReport:
    """A report with up to two witness episodes of up to three entries each."""
    episodes = tuple(
        WitnessEpisode(
            rng.choice([Verdict.VIOLATED, Verdict.SATISFIED]),
            tuple(
                WitnessEntry(
                    t, rng.choice(_WITNESS_TEXTS), rng.choice(_WITNESS_TEXTS),
                    frozenset(rng.sample(_WITNESS_TEXTS, rng.randint(0, 3))), rng.choice(_RESIDUALS),
                )
                for t in range(1, rng.randint(0, 3) + 1)
            ),
        )
        for _ in range(rng.choice([0, 0, 1, 2]))
    )
    return VerdictReport(cid, _random_verdicts(rng), rng.randint(0, 5), rng.randint(0, 5), episodes)


class TestSaveReports:
    """``save_reports`` writes the bytes of ``json.dumps(..., indent=2)`` of
    the reports as ``report_to_dict`` gives them, whatever runs their
    verdicts form."""

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_json_dumps(self, tmp_path, seed):
        rng = random.Random(seed)
        reports = [_random_report(rng, rng.choice(_WITNESS_TEXTS) + str(i)) for i in range(rng.randint(0, 4))]
        f1 = {"pooled": {"precision": 0.5, "recall": 1.0, "f1": 2 / 3}, "per_constraint": {"c\u00e9": {"f1": 0.0}}}
        extra = rng.choice([{}, {"mode": "reset", "trace_length": 7}, {"f1": f1}])
        expected = json.dumps({"reports": [report_to_dict(r) for r in reports], **extra}, ensure_ascii=False, indent=2)
        path = tmp_path / "reports.json"
        save_reports(iter(reports), path, extra)
        assert path.read_bytes() == (expected + "\n").encode("utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            save_reports(reports, None, extra)
        assert out.getvalue() == expected + "\n"
