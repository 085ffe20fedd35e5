"""Judge whole traces against constraints and score the judgments.

Prompts follow three shapes (single constraint, numbered multi-constraint,
multi-entity); replies are parsed leniently.  Unparseable replies score
as incorrect and are tallied separately.  The monitor-backed oracle judge
answers from the verdict machinery instead of the prompt and must score
a perfect accuracy on construction-valid batches.
"""

from __future__ import annotations

import random
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from ..ltl import Verdict, render
from ..models import SampleParams, confidence_half_width, derive_seed
from ..monitor import run_monitor
from .generator import BenchCase

SINGLE_PROMPT = (
    "You are given a trace of observed events. The trace is VALID if it satisfies "
    "the following constraint: {constraint}. The trace is INVALID otherwise. "
    "Determine whether the following trace is VALID or INVALID. "
    "Respond with VALID or INVALID.\n\n{trace}"
)

MULTI_PROMPT = (
    "You are given a trace of observed events.\n{constraints}\n"
    "For each constraint, determine whether the trace is VALID or INVALID. "
    "Respond with one line per constraint in the format:\n"
    "Constraint i: VALID or INVALID\n\n{trace}"
)

ENTITY_PROMPT = (
    "You are given a trace of observed events. Each step describes {entities} "
    "labeled entities (Entity 1, Entity 2, ..., Entity {entities}). Each entity "
    "has an animal, a color, a shape, and a number. The trace is VALID if it "
    "satisfies the following constraint: {constraint}. The trace is INVALID "
    "otherwise. Determine whether the following trace is VALID or INVALID. "
    "Respond with VALID or INVALID.\n\n{trace}"
)

_VALID_WORD = re.compile(r"\b(INVALID|VALID)\b", re.IGNORECASE)
_CONSTRAINT_LINE = re.compile(r"Constraint\s+(\d+)\s*:", re.MULTILINE)


def constraint_text(case: BenchCase, index: int, level: str) -> str:
    constraint = case.constraints[index]
    if level == "informal":
        return constraint.informal
    if level == "precise":
        return constraint.precise
    if level == "precise+ltl":
        return f"{constraint.precise} LTL: {render(constraint.formula, 'ascii')}"
    raise ValueError(f"unknown specification level {level!r}")


def trace_text(case: BenchCase) -> str:
    return "\n".join(f"Step {s.t}: {s.output}" for s in case.trace.steps)


def prompt_for_case(case: BenchCase, level: str = "informal") -> str:
    entities = case.knobs.get("entities", 1)
    if len(case.constraints) > 1:
        lines = "\n".join(
            f"Constraint {i + 1}: The trace is VALID for this constraint if it satisfies: "
            f"{constraint_text(case, i, level)}"
            for i in range(len(case.constraints))
        )
        return MULTI_PROMPT.format(constraints=lines, trace=trace_text(case))
    if entities > 1:
        return ENTITY_PROMPT.format(
            entities=entities,
            constraint=constraint_text(case, 0, level),
            trace=trace_text(case),
        )
    return SINGLE_PROMPT.format(constraint=constraint_text(case, 0, level), trace=trace_text(case))


class MonitorOracleJudge:
    """Judges by running the monitor over the case's labeled trace."""

    def judge_case(self, case: BenchCase) -> list[bool]:
        constraints = {c.constraint_id: c.formula for c in case.constraints}
        reports = run_monitor(case.trace, constraints, mode="plain")
        by_id = {r.constraint_id: r for r in reports}
        return [
            any(v is Verdict.SATISFIED for v in by_id[c.constraint_id].verdicts)
            for c in case.constraints
        ]


class CoinFlipJudge:
    """Uniform VALID/INVALID replies in the expected response shape."""

    def next_output(self, history, input: str, params: SampleParams) -> str:
        rng = random.Random(f"coinflip:{params.seed}")
        indices = [int(m) for m in _CONSTRAINT_LINE.findall(input)]
        if not indices:
            return rng.choice(("VALID", "INVALID"))
        return "\n".join(
            f"Constraint {i}: {rng.choice(('VALID', 'INVALID'))}" for i in sorted(set(indices))
        )


def parse_reply(reply: str, n_constraints: int) -> list[bool | None]:
    """Lenient parse of VALID/INVALID judgments; None marks a parse failure."""
    if n_constraints == 1:
        match = _VALID_WORD.search(reply)
        if not match:
            return [None]
        return [match.group(1).upper() == "VALID"]
    out: list[bool | None] = []
    for i in range(1, n_constraints + 1):
        line = re.search(
            rf"Constraint\s*{i}\s*:\s*(INVALID|VALID)", reply, re.IGNORECASE
        )
        out.append(None if not line else line.group(1).upper() == "VALID")
    return out


@dataclass(frozen=True)
class KnobAccuracy:
    accuracy: float
    half_width: float
    judgments: int
    parse_failures: int


@dataclass(frozen=True)
class JudgeReport:
    overall: KnobAccuracy
    by_knob: Mapping[str, KnobAccuracy]

    def to_dict(self) -> dict:
        def knob(acc: KnobAccuracy) -> dict:
            return {
                "accuracy": acc.accuracy,
                "half_width": acc.half_width,
                "judgments": acc.judgments,
                "parse_failures": acc.parse_failures,
            }

        return {
            "overall": knob(self.overall),
            "by_knob": {key: knob(acc) for key, acc in sorted(self.by_knob.items())},
        }


def knob_key(knobs: Mapping[str, object]) -> str:
    return ",".join(
        f"{key}={knobs[key]}" for key in sorted(knobs) if key not in ("seed", "case")
    )


def _accuracy(correct: int, total: int, failures: int) -> KnobAccuracy:
    accuracy = correct / total if total else 0.0
    return KnobAccuracy(accuracy, confidence_half_width(accuracy, total), total, failures)


def eval_judge(
    cases: Sequence[BenchCase],
    judge: object,
    level: str = "informal",
    seed: int = 0,
) -> JudgeReport:
    """Score a judge's VALID/INVALID calls against construction truth."""
    per_knob: dict[str, list[int]] = {}  # correct, judged, parse failures
    for index, case in enumerate(cases):
        if hasattr(judge, "judge_case"):
            judgments: list[bool | None] = judge.judge_case(case)
        else:
            prompt = prompt_for_case(case, level)
            reply = judge.next_output(
                [], prompt, SampleParams(temperature=0.0, seed=derive_seed(seed, index))
            )
            judgments = parse_reply(reply, len(case.constraints))
        bucket = per_knob.setdefault(knob_key(case.knobs), [0, 0, 0])
        for judged, actual in zip(judgments, case.truth):
            bucket[0] += judged is not None and judged == actual
            bucket[1] += 1
            bucket[2] += judged is None
    return JudgeReport(
        overall=_accuracy(*map(sum, zip([0, 0, 0], *per_knob.values()))),
        by_knob={key: _accuracy(*bucket) for key, bucket in per_knob.items()},
    )
