"""Histories, labels, verdict reports, witnesses, and the labeler contract.

Trace files are UTF-8 JSONL: an optional leading metadata line
``{"meta": {...}}``, then one step object per line, read through
``STEP_KEYS``; a missing, null or empty ``input`` means no new input.
"""

from __future__ import annotations

import json
import operator
import re
import sys
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from json.scanner import make_scanner
from pathlib import Path
from typing import Protocol, runtime_checkable

from .ltl import Formula, TruthAssignment, Verdict, parse, render


class TraceError(ValueError):
    """Malformed trace file or inconsistent step sequence."""


class LabelingError(RuntimeError):
    """A labeler failed or emitted a proposition outside its vocabulary."""

    def __init__(self, message: str, t: int):
        super().__init__(f"step {t}: {message}")
        self.t = t


@dataclass(frozen=True)
class StepRecord:
    """One input/output pair at step ``t``; empty input means none was given."""

    t: int
    input: str
    output: str
    labels: TruthAssignment | None = None


@dataclass(frozen=True)
class Trace:
    steps: tuple[StepRecord, ...]
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for i, step in enumerate(self.steps):
            if step.t != i + 1:
                raise TraceError(
                    f"step indices must be contiguous from 1; found t={step.t} at position {i + 1}"
                )

    def __len__(self) -> int:
        return len(self.steps)


@runtime_checkable
class LabelingFunction(Protocol):
    """Maps the history up to and including the current step to the set of
    propositions that hold there.  Must be deterministic for identical
    histories and emit only propositions from ``vocabulary``."""

    vocabulary: frozenset[str]

    def __call__(self, steps: Sequence[StepRecord]) -> TruthAssignment: ...


LABEL_MEMO_SIZE = 4096  # keys whose answers a ``Memo`` keeps


class Memo(dict):
    """``memo[key]`` is ``compute(key)``, computed once for each of at most
    ``LABEL_MEMO_SIZE`` keys; a full memo empties on a miss.  ``compute`` must not
    refer to the memo's owner, or the cycle outlives the owner until collected."""

    def __init__(self, compute: Callable[[Hashable], object]):
        super().__init__()
        self.compute = compute

    def __missing__(self, key: Hashable) -> object:
        if len(self) >= LABEL_MEMO_SIZE:
            self.clear()
        value = self[key] = self.compute(key)
        return value


@dataclass(frozen=True)
class WitnessEntry:
    """One residual-changing step: what was seen and what remains required."""

    t: int
    input: str
    output: str
    labels: TruthAssignment
    residual: Formula


@dataclass(frozen=True)
class WitnessEpisode:
    """The recorded steps that led to one terminal verdict."""

    verdict: Verdict
    entries: tuple[WitnessEntry, ...]


@dataclass(frozen=True)
class VerdictReport:
    constraint_id: str
    verdicts: tuple[Verdict, ...]
    violations: int
    satisfactions: int
    witnesses: tuple[WitnessEpisode, ...] = ()


def step_to_dict(step: StepRecord) -> dict:
    out: dict = {"t": step.t, "input": step.input, "output": step.output}
    if step.labels is not None:
        out["labels"] = sorted(step.labels)
    return out


class ShapeError(TypeError, ValueError):
    """A JSON value of another kind than declared, or an object without a
    required key; a ``ValueError`` too, as the input fault it is."""


_JSON_TYPES = {"string": str, "integer": int, "number": (int, float), "boolean": bool, "array": list, "object": dict}


def checked(value: object, kind: str, name: str, nullable: bool = False):
    """``value`` unchanged if its JSON type is ``kind`` (``string``,
    ``integer``, ``number``, ``boolean``, ``array`` or ``object``, or one of
    these followed by ``[]`` for an array of values of that kind), where an
    integer counts as a number and a bool as neither, or if it is null and
    ``nullable`` is set; otherwise ``ShapeError`` names it."""
    if isinstance(value, _JSON_TYPES.get(kind, ())) and isinstance(value, bool) == (kind == "boolean"):
        return value
    if nullable and value is None:
        return value
    if kind[-2:] == "[]":
        item_kind = kind[:-2]
        types, boolean = _JSON_TYPES.get(item_kind, ()), item_kind == "boolean"
        for item in checked(value, "array", name, nullable):
            # Only a faulty item, or an array to check in turn, is named.
            if not isinstance(item, types) or isinstance(item, bool) != boolean:
                checked(item, item_kind, f"an item of {name}")
        return value
    article = "an" if kind[0] in "aio" else "a"
    raise ShapeError(f"{name} must be {article} {kind}{' or null' if nullable else ''}, got {value!r}")


class Keys(dict):
    """A key table: each key of a JSON object with its kind as ``checked``
    names it, where a trailing ``?`` also allows null; an object must have
    the ``required`` keys and may have the ``optional`` ones."""

    def __init__(self, required: Mapping[str, str] | None = None, optional: Mapping[str, str] | None = None):
        super().__init__(required or {}, **(optional or {}))
        self.required = frozenset(required or ())
        self.checks = tuple((key, kind.rstrip("?"), kind[-1] == "?") for key, kind in self.items())


def read(obj: object, keys: Keys, section: str, prefix: str = "") -> dict:
    """The keys of ``keys`` that the JSON object ``obj`` has, with their
    values, once it has every required key and each of those values has
    its key's kind; other keys are ignored.  A fault raises ``ShapeError``
    naming the object by ``section``, or a value by ``prefix`` and its key."""
    obj = checked(obj, "object", section)
    values = {}
    for key, kind, nullable in keys.checks:
        if key in obj:
            values[key] = checked(obj[key], kind, prefix + key, nullable)
        elif key in keys.required:
            raise ShapeError(f"{section} is missing field {key!r}")
    return values


STEP_KEYS = Keys(required={"t": "integer", "output": "string"}, optional={"input": "string?", "labels": "string[]?"})
META_KEYS = Keys(required={"meta": "object"})


def step_from_dict(obj: object) -> StepRecord:
    """Decode one step; a malformed one raises ``ShapeError``."""
    step = read(obj, STEP_KEYS, "step")
    labels = step.get("labels")
    return StepRecord(step["t"], step.get("input") or "", step["output"], None if labels is None else frozenset(labels))


_scan = make_scanner(json.JSONDecoder())  # the C scanner that ``json.loads`` decodes with
_JSON_SPACE = " \t\r"  # the whitespace JSON allows around a value within a line


def read_jsonl(path: str | Path) -> Iterator[tuple[int, object]]:
    """Yield ``(line_no, value)`` for each nonblank line of a JSONL file; a
    line that is not UTF-8 or not JSON raises ``TraceError`` naming the file
    and the line.  Bytes that are not UTF-8 are kept as escapes while the
    file is read, so each line is checked, and its fault placed, alone.

    A line that holds one JSON value is decoded once, by ``json.loads``'s own
    scanner; any other line is left to ``json.loads``, which skips it if it
    is blank and otherwise raises the message its fault gets."""
    with Path(path).open(encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    for line_no, line in enumerate(text.split("\n"), 1):  # not ``splitlines``: U+2028 may sit in a string
        if not line.isascii():
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as err:
                raise TraceError(f"{path}: line {line_no}: not valid UTF-8: {err}") from err
        stripped = line.strip(_JSON_SPACE)
        try:
            value, end = _scan(stripped, 0)
        except (StopIteration, ValueError, RecursionError):  # no JSON value starts the line
            end = -1
        if end != len(stripped):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as err:
                raise TraceError(f"{path}: line {line_no}: malformed JSON: {err.msg}") from err
            except RecursionError as err:
                raise TraceError(f"{path}: line {line_no}: malformed JSON: {err}") from err
        yield line_no, value


def write_jsonl(rows: Iterable[object], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def write_json(doc: object, path: str | Path | None = None) -> None:
    """Write ``doc`` as one indented JSON document to ``path``, or to stdout.

    The bytes are those of ``json.dumps(doc, ensure_ascii=False, indent=2)``
    and a newline, where a report's ``_Verdicts`` counts as the list of its
    verdicts' strings.  The C encoder encodes the leaves, and encodes each
    container that holds only leaves in one call whose item separator
    carries the indentation; only containers of containers are walked here.
    """
    chunks: list[str] = []
    _indented(doc, chunks)
    chunks.append("\n")
    text = "".join(chunks)
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


_CONTAINERS = (list, tuple, dict)


def _indented(doc: object, chunks: list[str]) -> None:
    """Append ``doc`` indented as ``json.dumps(..., indent=2)`` does.

    The stack holds text to append and ``(value, newline)`` pairs to
    expand, ``newline`` being the line break and indentation of the depth
    the value starts at; the walk keeps its own stack because a document
    can be as deep as a formula."""
    stack: list[str | tuple[object, str]] = [(doc, "\n")]
    while stack:
        top = stack.pop()
        if isinstance(top, str):
            chunks.append(top)
            continue
        value, newline = top
        if not isinstance(value, _CONTAINERS):
            chunks.append(encode_basestring(value) if isinstance(value, str) else json.dumps(value))
            continue
        brackets = "{}" if isinstance(value, dict) else "[]"
        if not value:
            chunks.append(brackets)
            continue
        if type(value) is _Verdicts:
            chunks.append(_verdict_list(value, newline))
            continue
        inner = newline + "  "
        items = value.values() if brackets == "{}" else value
        if not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, items))):
            text = json.dumps(value, ensure_ascii=False, separators=("," + inner, ": "))
            chunks.append(f"{text[0]}{inner}{text[1:-1]}{newline}{text[-1]}")
            continue
        keys = [f"{encode_basestring(_key_text(key))}: " for key in value] if brackets == "{}" else [""] * len(value)
        chunks.append(brackets[0])
        pending: list[str | tuple[object, str]] = []
        separator = inner
        for key, item in zip(keys, items):
            pending += (separator + key, (item, inner))
            separator = "," + inner
        pending.append(newline + brackets[1])
        stack += reversed(pending)


_BLOCK = 32  # the verdicts a verdict list is written by at a time


def _verdict_list(verdicts: tuple[Verdict, ...], newline: str) -> str:
    """``verdicts`` as ``json.dumps`` indents the list of their strings at the
    depth of ``newline``.  A block of ``_BLOCK`` equal verdicts, as most of a
    long run is, is written as one repeated string, any other block by one
    join; a verdict's string needs no escape."""
    inner = newline + "  "
    separator = f'",{inner}"'
    blocks = (verdicts[start:start + _BLOCK] for start in range(0, len(verdicts), _BLOCK))
    text = "".join(
        (_TEXT(block[0]) + separator) * len(block) if block.count(block[0]) == len(block)
        else separator.join(map(_TEXT, block)) + separator
        for block in blocks
    )
    return f'[{inner}"{text[:-len(separator)]}"{newline}]'


def _key_text(key: object) -> str:
    """A mapping key as ``json`` spells it: a string as itself, a number,
    boolean or null as its JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def load_trace(path: str | Path) -> Trace:
    """Load a JSONL trace, validating step-index contiguity; a file holding
    only the metadata line is a trace of no steps.  Text that holds a lone
    surrogate, which UTF-8 cannot encode, is refused."""
    path = Path(path)
    steps: list[StepRecord] = []
    metadata: dict = {}
    rows = 0
    for rows, (line_no, obj) in enumerate(read_jsonl(path), 1):
        step = _step(obj)
        if step is None:
            try:
                if rows == 1 and isinstance(obj, dict) and "meta" in obj and "t" not in obj:
                    metadata = read(obj, META_KEYS, "meta line")["meta"]
                    continue
                step = step_from_dict(obj)
            except ShapeError as err:
                raise TraceError(f"{path}: line {line_no}: {err}") from err
            fault = _surrogate_fault(obj)
            if fault:
                raise TraceError(f"{path}: line {line_no}: {fault}")
        if step.t != len(steps) + 1:
            raise TraceError(f"{path}: non-contiguous step index at line {line_no}")
        steps.append(step)
    if not rows:
        raise TraceError(f"{path}: empty trace file")
    return Trace(tuple(steps), metadata)


def _step(obj: object) -> StepRecord | None:
    """The step ``obj`` holds if ``step_from_dict`` takes it and none of its
    text holds a lone surrogate, else None.  On a JSON value, which is never
    of a subclass, each exact type test agrees with ``checked``."""
    if type(obj) is not dict:
        return None
    t, text, output, labels = obj.get("t"), obj.get("input"), obj.get("output"), obj.get("labels")
    if text is None:
        text = ""
    if type(t) is not int or type(text) is not str or type(output) is not str:
        return None
    if labels is not None:
        if type(labels) is not list or not all(type(label) is str for label in labels):
            return None
        labels = frozenset(labels)
    ascii_only = output.isascii() and text.isascii() and (not labels or all(map(str.isascii, labels)))
    if not ascii_only and _surrogate_fault(obj):
        return None
    return StepRecord(t, text, output, labels)


_SURROGATE = re.compile("[\ud800-\udfff]")  # a JSON escape may decode to one; UTF-8 cannot encode it


def _surrogate_fault(obj: dict) -> str | None:
    """What is wrong with a step that ``step_from_dict`` takes, if one of its
    texts holds a lone surrogate: the first such text, named as ``checked``
    names it, and where it holds one."""
    texts = [("output", obj["output"]), ("input", obj.get("input") or "")]
    texts += (("an item of labels", label) for label in obj.get("labels") or ())
    for name, text in texts:
        found = _SURROGATE.search(text)
        if found:
            return (
                f"{name} holds the lone surrogate {found.group()!r} at position {found.start()}, "
                "which UTF-8 cannot encode"
            )
    return None


def save_trace(trace: Trace, path: str | Path) -> None:
    meta = [{"meta": dict(trace.metadata)}] if trace.metadata else []
    write_jsonl([*meta, *map(step_to_dict, trace.steps)], path)


def label_step(labeler: LabelingFunction, steps: list[StepRecord], step: StepRecord) -> TruthAssignment:
    """Append ``step``, the unlabeled next step of ``steps``, labeled by
    ``labeler`` over ``steps`` with ``step`` last, and return its labels.
    A labeler failure or an undeclared proposition raises ``LabelingError``
    with the step's index; on any exception ``steps`` is left as it was."""
    steps.append(step)
    try:
        try:
            labels = labeler(steps)
        except Exception as err:
            raise LabelingError(f"labeler failed: {err}", step.t) from err
        if not labels <= labeler.vocabulary:
            raise LabelingError(f"undeclared proposition(s): {', '.join(sorted(labels - labeler.vocabulary))}", step.t)
    except BaseException:
        del steps[-1]
        raise
    steps[-1] = StepRecord(step.t, step.input, step.output, labels)
    return labels


def apply_labeler(trace: Trace, labeler: LabelingFunction, overwrite: bool = False) -> Trace:
    """Return a copy of ``trace`` with labels populated at every step.

    Existing labels are preserved unless ``overwrite`` is set, and are kept
    as given: they need not lie in the labeler's vocabulary.  Each labeler
    call sees the steps before it as they appear in the result, so a kept
    step shows the labeler its embedded labels.
    """
    steps: list[StepRecord] = []
    for step in trace.steps:
        if step.labels is not None and not overwrite:
            steps.append(step)
        else:  # a step without labels is already the record the labeler must see
            label_step(labeler, steps, step if step.labels is None else StepRecord(step.t, step.input, step.output))
    return Trace(tuple(steps), trace.metadata)


_TEXT = operator.attrgetter("_value_")  # a verdict's string, read past ``Enum.value``


class _Verdicts(tuple):
    """A report's verdicts, which ``write_json`` writes as the list of their
    strings without making that list."""


def report_to_dict(report: VerdictReport, memo: dict[int, str] | None = None) -> dict:
    """``report`` as a dict; ``memo`` is passed to ``render`` for every residual."""
    return _report_dict(report, list(map(_TEXT, report.verdicts)), memo)


def _report_dict(report: VerdictReport, verdicts: object, memo: dict[int, str] | None) -> dict:
    """``report`` as a dict whose ``"verdicts"`` are ``verdicts``."""
    return {
        "constraint_id": report.constraint_id,
        "verdicts": verdicts,
        "violations": report.violations,
        "satisfactions": report.satisfactions,
        "witnesses": [
            {
                "verdict": _TEXT(ep.verdict),
                "entries": [
                    {
                        "t": e.t,
                        "input": e.input,
                        "output": e.output,
                        "labels": sorted(e.labels),
                        "residual": render(e.residual, "ascii", memo),
                    }
                    for e in ep.entries
                ],
            }
            for ep in report.witnesses
        ],
    }


REPORT_DOCUMENT_KEYS = Keys(required={"reports": "array"})
REPORT_KEYS = Keys(
    required={"constraint_id": "string", "verdicts": "string[]", "violations": "integer", "satisfactions": "integer"},
    optional={"witnesses": "array"},
)
EPISODE_KEYS = Keys(required={"verdict": "string"}, optional={"entries": "array"})
ENTRY_KEYS = Keys(
    required={"t": "integer", "residual": "string"},
    optional={"input": "string", "output": "string", "labels": "string[]"},
)


def report_from_dict(obj: object) -> VerdictReport:
    """Decode one report; a malformed one raises ``ShapeError``, and an
    unknown verdict or a residual that does not parse ``ValueError``."""
    report = read(obj, REPORT_KEYS, "report")
    witnesses = []
    for episode in report.get("witnesses", ()):
        episode = read(episode, EPISODE_KEYS, "witness episode")
        entries = tuple(map(_entry_from_dict, episode.get("entries", ())))
        witnesses.append(WitnessEpisode(Verdict(episode["verdict"]), entries))
    return VerdictReport(
        report["constraint_id"], tuple(map(Verdict, report["verdicts"])), report["violations"], report["satisfactions"],
        tuple(witnesses),
    )


def _entry_from_dict(obj: object) -> WitnessEntry:
    entry = read(obj, ENTRY_KEYS, "witness entry")
    labels = frozenset(entry.get("labels", ()))
    return WitnessEntry(entry["t"], entry.get("input", ""), entry.get("output", ""), labels, parse(entry["residual"]))


def save_reports(reports: Iterable[VerdictReport], path: str | Path | None, extra: Mapping | None = None) -> None:
    """Write reports as a single JSON document to ``path``, or to stdout.

    Residuals are rendered through one memo for the document; the list of
    reports keeps every rendered node alive while it is in use.  The bytes
    are those of ``write_json`` of the reports as ``report_to_dict`` gives
    them, with ``extra``'s keys after ``"reports"``.
    """
    reports, memo = list(reports), {}
    write_json({"reports": [_report_dict(r, _Verdicts(r.verdicts), memo) for r in reports], **(extra or {})}, path)


def load_reports(path: str | Path) -> list[VerdictReport]:
    """Load a report document; a file that is not JSON, or a missing or
    malformed field, raises ``TraceError`` naming the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as err:  # a JSON or a UTF-8 decoding error, or nesting too deep
        raise TraceError(f"{path}: not valid JSON: {err}") from err
    try:
        return [report_from_dict(obj) for obj in read(doc, REPORT_DOCUMENT_KEYS, "report document")["reports"]]
    except ValueError as err:  # a malformed value, an unknown verdict or a residual that does not parse
        raise TraceError(f"{path}: malformed report: {err}") from err
