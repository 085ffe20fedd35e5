"""Histories, labels, verdict reports, witnesses, and the labeler contract.

Trace files are UTF-8 JSONL: one step object per line with fields ``t``
(integer), ``input`` (string, optional; missing, null or empty means no new input),
``output`` (string), ``labels`` (array of strings, optional), plus an
optional leading metadata line ``{"meta": {...}}``.
"""

from __future__ import annotations

import json
import operator
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring
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


def step_from_dict(obj: dict, line_no: int) -> StepRecord:
    if not isinstance(obj, dict):
        raise TraceError(f"line {line_no}: step must be a JSON object")
    if not isinstance(obj.get("t"), int) or isinstance(obj["t"], bool):
        raise TraceError(f"line {line_no}: missing or non-integer 't'")
    if "output" not in obj or not isinstance(obj["output"], str):
        raise TraceError(f"line {line_no}: missing or non-string 'output'")
    if obj.get("input") is not None and not isinstance(obj["input"], str):
        raise TraceError(f"line {line_no}: 'input' must be a string")
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise TraceError(f"line {line_no}: 'labels' must be an array of strings")
        labels = frozenset(labels)
    return StepRecord(
        t=obj["t"],
        input=obj.get("input") or "",
        output=obj["output"],
        labels=labels,
    )


_JSON_TYPES = {"string": str, "integer": int, "number": (int, float), "boolean": bool, "array": list, "object": dict}


def checked(value: object, kind: str, name: str, nullable: bool = False):
    """``value`` unchanged if its JSON type is ``kind`` (``string``,
    ``integer``, ``number``, ``boolean``, ``array`` or ``object``), where an
    integer counts as a number and a bool as neither, or if it is null and
    ``nullable`` is set; otherwise ``TypeError`` names it."""
    if isinstance(value, _JSON_TYPES[kind]) and isinstance(value, bool) == (kind == "boolean"):
        return value
    if nullable and value is None:
        return value
    article = "an" if kind[0] in "aio" else "a"
    raise TypeError(f"{name} must be {article} {kind}{' or null' if nullable else ''}, got {value!r}")


def checked_items(value: object, kind: str, name: str) -> list:
    """``value`` unchanged if it is an array whose every item has JSON type ``kind``."""
    for item in checked(value, "array", name):
        checked(item, kind, f"an item of {name}")
    return value


def read_jsonl(path: str | Path) -> Iterator[tuple[int, object]]:
    """Yield ``(line_no, value)`` for each nonblank line of a JSONL file; a
    line that is not JSON raises ``TraceError``."""
    with Path(path).open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if line.strip():
                try:
                    yield line_no, json.loads(line)
                except json.JSONDecodeError as err:
                    raise TraceError(f"line {line_no}: malformed JSON: {err.msg}") from err


def write_jsonl(rows: Iterable[object], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def write_json(doc: object, path: str | Path | None = None) -> None:
    """Write ``doc`` as one indented JSON document to ``path``, or to stdout.

    The bytes are those of ``json.dumps(doc, ensure_ascii=False, indent=2)``
    and a newline.  The C encoder encodes the leaves, and encodes each
    container that holds only leaves in one call whose item separator
    carries the indentation; only containers of containers are walked here.
    """
    chunks: list[str] = []
    _indented(doc, "\n", chunks)
    chunks.append("\n")
    text = "".join(chunks)
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


_CONTAINERS = (list, tuple, dict)


def _indented(value: object, newline: str, chunks: list[str]) -> None:
    """Append ``value`` indented as ``json.dumps(..., indent=2)`` does at the
    depth whose line break and indentation is ``newline``."""
    if not isinstance(value, _CONTAINERS):
        chunks.append(encode_basestring(value) if isinstance(value, str) else json.dumps(value))
        return
    if not value:
        chunks.append("{}" if isinstance(value, dict) else "[]")
        return
    inner = newline + "  "
    items = value.values() if isinstance(value, dict) else value
    if not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, items))):
        text = json.dumps(value, ensure_ascii=False, separators=("," + inner, ": "))
        chunks.append(f"{text[0]}{inner}{text[1:-1]}{newline}{text[-1]}")
        return
    separator = inner
    if isinstance(value, dict):
        chunks.append("{")
        for key, item in value.items():
            chunks.append(f"{separator}{encode_basestring(_key_text(key))}: ")
            _indented(item, inner, chunks)
            separator = "," + inner
        chunks.append(newline + "}")
    else:
        chunks.append("[")
        for item in value:
            chunks.append(separator)
            _indented(item, inner, chunks)
            separator = "," + inner
        chunks.append(newline + "]")


def _key_text(key: object) -> str:
    """A mapping key as ``json`` spells it: a string as itself, a number,
    boolean or null as its JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def load_trace(path: str | Path) -> Trace:
    """Load a JSONL trace, validating step-index contiguity."""
    path = Path(path)
    steps: list[StepRecord] = []
    metadata: dict = {}
    rows = 0
    for rows, (line_no, obj) in enumerate(read_jsonl(path), 1):
        if rows == 1 and isinstance(obj, dict) and "meta" in obj and "t" not in obj:
            metadata = obj["meta"]
            continue
        step = step_from_dict(obj, line_no)
        if step.t != len(steps) + 1:
            raise TraceError(f"non-contiguous step index at line {line_no}")
        steps.append(step)
    if not steps:
        raise TraceError(f"{path}: {'trace has no steps' if rows else 'empty trace file'}")
    return Trace(tuple(steps), metadata)


def save_trace(trace: Trace, path: str | Path) -> None:
    meta = [{"meta": dict(trace.metadata)}] if trace.metadata else []
    write_jsonl([*meta, *map(step_to_dict, trace.steps)], path)


def label_step(labeler: LabelingFunction, steps: list[StepRecord], input: str, output: str) -> TruthAssignment:
    """Append (input, output) to ``steps`` as the next step, labeled by
    ``labeler`` over ``steps`` with that step unlabeled last, and return
    its labels.  A labeler failure or an undeclared proposition raises
    ``LabelingError`` with the step's index; on any exception ``steps`` is
    left as it was."""
    t = len(steps) + 1
    steps.append(StepRecord(t, input, output))
    try:
        try:
            labels = labeler(steps)
        except Exception as err:
            raise LabelingError(f"labeler failed: {err}", t) from err
        extra = labels - labeler.vocabulary
        if extra:
            raise LabelingError(f"undeclared proposition(s): {', '.join(sorted(extra))}", t)
    except BaseException:
        del steps[-1]
        raise
    steps[-1] = StepRecord(t, input, output, labels)
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
        if step.labels is None or overwrite:
            label_step(labeler, steps, step.input, step.output)
        else:
            steps.append(step)
    return Trace(tuple(steps), trace.metadata)


_TEXT = operator.attrgetter("_value_")  # a verdict's string, read past ``Enum.value``


def witness_entry_to_dict(entry: WitnessEntry, memo: dict[int, str] | None = None) -> dict:
    """``entry`` as a dict; ``memo`` is passed to ``render`` for the residual."""
    return {
        "t": entry.t,
        "input": entry.input,
        "output": entry.output,
        "labels": sorted(entry.labels),
        "residual": render(entry.residual, "ascii", memo),
    }


def report_to_dict(report: VerdictReport, memo: dict[int, str] | None = None) -> dict:
    """``report`` as a dict; ``memo`` is passed to ``render`` for every residual."""
    return {
        "constraint_id": report.constraint_id,
        "verdicts": list(map(_TEXT, report.verdicts)),
        "violations": report.violations,
        "satisfactions": report.satisfactions,
        "witnesses": [
            {
                "verdict": _TEXT(ep.verdict),
                "entries": [witness_entry_to_dict(e, memo) for e in ep.entries],
            }
            for ep in report.witnesses
        ],
    }


def report_from_dict(obj: Mapping) -> VerdictReport:
    """Decode one report; a value of the wrong JSON type raises ``TypeError``."""
    witnesses = []
    for ep in checked_items(obj.get("witnesses", []), "object", "witnesses"):
        entries = tuple(
            WitnessEntry(
                t=checked(e["t"], "integer", "t"),
                input=checked(e.get("input", ""), "string", "input"),
                output=checked(e.get("output", ""), "string", "output"),
                labels=frozenset(checked_items(e.get("labels", []), "string", "labels")),
                residual=parse(checked(e["residual"], "string", "residual")),
            )
            for e in checked_items(ep.get("entries", []), "object", "entries")
        )
        witnesses.append(WitnessEpisode(Verdict(checked(ep["verdict"], "string", "verdict")), entries))
    return VerdictReport(
        constraint_id=checked(obj["constraint_id"], "string", "constraint_id"),
        verdicts=tuple(map(Verdict, checked_items(obj["verdicts"], "string", "verdicts"))),
        violations=checked(obj["violations"], "integer", "violations"),
        satisfactions=checked(obj["satisfactions"], "integer", "satisfactions"),
        witnesses=tuple(witnesses),
    )


def save_reports(reports: Iterable[VerdictReport], path: str | Path | None, extra: Mapping | None = None) -> None:
    """Write reports as a single JSON document to ``path``, or to stdout.

    Residuals are rendered through one memo for the document; the list of
    reports keeps every rendered node alive while it is in use.
    """
    reports, memo = list(reports), {}
    write_json({"reports": [report_to_dict(r, memo) for r in reports], **(extra or {})}, path)


def load_reports(path: str | Path) -> list[VerdictReport]:
    """Load a report document; a missing or malformed field raises ``TraceError``."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        reports = checked(doc, "object", "a report document")["reports"]
        return [report_from_dict(obj) for obj in checked_items(reports, "object", "reports")]
    except KeyError as err:
        raise TraceError(f"{path}: missing field {err.args[0]!r}") from err
    except TypeError as err:
        raise TraceError(f"{path}: malformed report: {err}") from err
