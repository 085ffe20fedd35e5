"""Sampling-based prediction of near-future verdict patterns.

The estimator draws independent continuations of the session from the
model, labels them, progresses copies of the monitor state along each,
and reports the fraction whose verdict sequence (current verdict first)
matches a monitoring pattern.  Sampled steps never touch the live state
or history.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from .ltl import Verdict
from .models import BlackBoxModel, SampleParams, derive_seed
from .monitor import MonitorState, step
from .trace import LabelingFunction, StepRecord, checked_labels


@dataclass(frozen=True)
class MonitoringPattern:
    """Named predicate over finite verdict sequences."""

    name: str
    matches: Callable[[Sequence[Verdict]], bool]


CONTAINS_VIOLATED = MonitoringPattern(
    "contains_violated", lambda seq: Verdict.VIOLATED in seq
)
CONTAINS_SATISFIED = MonitoringPattern(
    "contains_satisfied", lambda seq: Verdict.SATISFIED in seq
)
ENDS_VIOLATED = MonitoringPattern(
    "ends_violated", lambda seq: bool(seq) and seq[-1] is Verdict.VIOLATED
)

_REGISTRY: dict[str, MonitoringPattern] = {}


def register_pattern(pattern: MonitoringPattern) -> MonitoringPattern:
    _REGISTRY[pattern.name] = pattern
    return pattern


def get_pattern(name: str) -> MonitoringPattern:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown monitoring pattern {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


for _p in (CONTAINS_VIOLATED, CONTAINS_SATISFIED, ENDS_VIOLATED):
    register_pattern(_p)


def advance(
    states: Mapping[str, MonitorState],
    labeler: LabelingFunction,
    steps: Sequence[StepRecord],
    input: str,
    output: str,
) -> tuple[StepRecord, dict[str, MonitorState]]:
    """Label (input, output) as the step after ``steps`` and progress every
    state along it; returns the labeled record and the new states."""
    t = len(steps) + 1
    labels = checked_labels(labeler, [*steps, StepRecord(t, input, output)])
    return StepRecord(t, input, output, labels), {cid: step(st, labels) for cid, st in states.items()}


@dataclass(frozen=True)
class RiskEstimate:
    constraint_id: str
    probability: float
    samples: int
    horizon: int
    verdict_sequences: tuple[tuple[Verdict, ...], ...]


def estimate_risks(
    states: Mapping[str, MonitorState],
    model: BlackBoxModel,
    labeler: LabelingFunction,
    pattern: MonitoringPattern,
    k: int,
    m: int,
    next_input: str,
    history: Sequence[StepRecord],
    seed: int,
    temperature: float = 0.8,
) -> dict[str, RiskEstimate]:
    """Estimate the pattern probability for every constraint at once.

    The m sampled continuations are shared across constraints; the first
    continuation step uses ``next_input`` and later steps carry no input.
    An estimate costs m*k model calls.
    """
    if k < 1 or m < 1:
        raise ValueError("horizon k and sample count m must be >= 1")
    sequences: dict[str, list[tuple[Verdict, ...]]] = {cid: [] for cid in states}
    for j in range(m):
        sampled_steps = list(history)
        copies = states
        verdicts = {cid: [st.last_verdict] for cid, st in states.items()}
        params = SampleParams(temperature=temperature, seed=derive_seed(seed, "sample", j))
        for offset in range(k):
            inp = next_input if offset == 0 else ""
            out = model.next_output(sampled_steps, inp, params)
            record, copies = advance(copies, labeler, sampled_steps, inp, out)
            sampled_steps.append(record)
            for cid, state in copies.items():
                verdicts[cid].append(state.last_verdict)
        for cid in states:
            sequences[cid].append(tuple(verdicts[cid]))
    return {
        cid: RiskEstimate(
            constraint_id=cid,
            probability=sum(map(pattern.matches, sequences[cid])) / m,
            samples=m,
            horizon=k,
            verdict_sequences=tuple(sequences[cid]),
        )
        for cid in states
    }


def estimate_risk(
    state: MonitorState,
    model: BlackBoxModel,
    labeler: LabelingFunction,
    pattern: MonitoringPattern,
    k: int,
    m: int,
    next_input: str,
    history: Sequence[StepRecord] = (),
    seed: int = 0,
    temperature: float = 0.8,
) -> RiskEstimate:
    """Single-constraint risk estimate; see ``estimate_risks``."""
    return estimate_risks(
        {state.constraint_id: state},
        model,
        labeler,
        pattern,
        k,
        m,
        next_input,
        history,
        seed,
        temperature,
    )[state.constraint_id]
