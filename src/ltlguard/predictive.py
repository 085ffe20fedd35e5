"""Sampling-based prediction of near-future verdict patterns.

The estimator draws independent continuations of the session from the
model through ``rollout``, which labels them, steps the session's
product state (``monitor.Product``) along each and returns each
constraint's verdict sequence (current verdict first); it reports the
fraction of sequences that match a monitoring pattern.  A product state
is immutable and interned, so a sampled step that repeats an earlier
one is a lookup, and sampled steps never touch the live state or
history.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from .ltl import Verdict
from .models import BlackBoxModel, SampleParams, derive_seed
from .monitor import MonitorState, Product, product
from .trace import LabelingFunction, StepRecord, label_step

# Each monitoring pattern by name: a predicate over a finite verdict sequence.
PATTERNS: dict[str, Callable[[Sequence[Verdict]], bool]] = {
    "contains_violated": lambda seq: Verdict.VIOLATED in seq,
    "contains_satisfied": lambda seq: Verdict.SATISFIED in seq,
    "ends_violated": lambda seq: bool(seq) and seq[-1] is Verdict.VIOLATED,
}


def advance(
    states: Mapping[str, MonitorState],
    labeler: LabelingFunction,
    steps: list[StepRecord],
    input: str,
    output: str,
) -> Product:
    """Append (input, output), labeled, to ``steps`` and return the product
    state of ``states`` after it; a labeling failure leaves ``steps`` as it
    was."""
    return product(states).step(label_step(labeler, steps, StepRecord(len(steps) + 1, input, output)))


def rollout(
    states: Mapping[str, MonitorState],
    model: BlackBoxModel,
    labeler: LabelingFunction,
    history: Sequence[StepRecord],
    input: str,
    seeds: Sequence[int],
    temperature: float,
) -> tuple[str, dict[str, tuple[Verdict, ...]]]:
    """Sample one continuation of ``history``: one model call and one
    labeled step of the product state per seed, on a private copy of
    ``history``, the first step with ``input`` and later steps with none.
    Returns the first sampled output and each constraint's verdict
    sequence, its current verdict first, read from the product states
    visited."""
    steps = list(history)
    states = product(states)
    visited = [states.verdicts]
    for offset, seed in enumerate(seeds):
        inp = input if offset == 0 else ""
        out = model.next_output(steps, inp, SampleParams(temperature=temperature, seed=seed))
        states = states.step(label_step(labeler, steps, StepRecord(len(steps) + 1, inp, out)))
        visited.append(states.verdicts)
    return steps[len(history)].output, dict(zip(states, zip(*visited)))


@dataclass(frozen=True)
class RiskEstimate:
    probability: float
    verdict_sequences: tuple[tuple[Verdict, ...], ...]


def estimate_risks(
    states: Mapping[str, MonitorState],
    model: BlackBoxModel,
    labeler: LabelingFunction,
    pattern: Callable[[Sequence[Verdict]], bool],
    k: int,
    m: int,
    next_input: str,
    history: Sequence[StepRecord],
    seed: int,
    temperature: float,
) -> dict[str, RiskEstimate]:
    """Estimate the pattern probability for every constraint at once.

    The m sampled continuations are shared across constraints; the first
    continuation step uses ``next_input`` and later steps carry no input.
    An estimate costs m*k model calls.
    """
    if k < 1 or m < 1:
        raise ValueError("horizon k and sample count m must be >= 1")
    states = product(states)
    sequences: dict[str, list[tuple[Verdict, ...]]] = {cid: [] for cid in states}
    for j in range(m):
        seeds = [derive_seed(seed, "sample", j)] * k
        _, verdicts = rollout(states, model, labeler, history, next_input, seeds, temperature)
        for cid, seq in verdicts.items():
            sequences[cid].append(seq)
    return {
        cid: RiskEstimate(sum(map(pattern, seqs)) / m, tuple(seqs))
        for cid, seqs in sequences.items()
    }
