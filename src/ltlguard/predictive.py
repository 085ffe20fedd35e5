"""Sampling-based prediction of near-future verdict patterns.

The estimator draws independent continuations of the session from the
model through ``rollout``, which labels them and progresses copies of the
monitor states along each, and reports the fraction whose verdict
sequence (current verdict first) matches a monitoring pattern.  Sampled
steps never touch the live state or history.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from .ltl import Verdict
from .models import BlackBoxModel, SampleParams, derive_seed
from .monitor import MonitorState, step
from .trace import LabelingFunction, StepRecord, label_step


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
    steps: list[StepRecord],
    input: str,
    output: str,
) -> dict[str, MonitorState]:
    """Append (input, output), labeled, to ``steps`` and return every state
    progressed along it; a labeling failure leaves ``steps`` as it was."""
    labels = label_step(labeler, steps, input, output)
    return {cid: step(st, labels) for cid, st in states.items()}


def rollout(
    states: Mapping[str, MonitorState],
    model: BlackBoxModel,
    labeler: LabelingFunction,
    history: Sequence[StepRecord],
    input: str,
    seeds: Sequence[int],
    temperature: float,
) -> tuple[list[StepRecord], list[Mapping[str, MonitorState]]]:
    """Sample one continuation of ``history``: one model call and one
    ``advance`` per seed, the first step with ``input`` and later steps
    with none.  Returns the steps (a private copy of ``history`` followed
    by the sampled steps) and the trail of states, ``states`` first."""
    steps = list(history)
    trail = [states]
    for offset, seed in enumerate(seeds):
        inp = input if offset == 0 else ""
        out = model.next_output(steps, inp, SampleParams(temperature=temperature, seed=seed))
        trail.append(advance(trail[-1], labeler, steps, inp, out))
    return steps, trail


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
        seeds = [derive_seed(seed, "sample", j)] * k
        _, trail = rollout(states, model, labeler, history, next_input, seeds, temperature)
        for cid in states:
            sequences[cid].append(tuple(copies[cid].last_verdict for copies in trail))
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
