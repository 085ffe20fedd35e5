"""Sampling-based prediction of near-future verdict patterns.

The estimator draws independent continuations of the session from the
model through ``rollout``, which labels them, progresses copies of the
monitor states along each and returns each constraint's verdict sequence
(current verdict first); it reports the fraction of sequences that match
a monitoring pattern.  Sampled steps never touch the live state or
history.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from .ltl import Verdict
from .models import BlackBoxModel, SampleParams, derive_seed
from .monitor import MonitorState, step
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
) -> tuple[str, dict[str, tuple[Verdict, ...]]]:
    """Sample one continuation of ``history``: one model call and one
    ``advance`` per seed, on a private copy of ``history``, the first step
    with ``input`` and later steps with none.  Returns the first sampled
    output and each constraint's verdict sequence, its current verdict
    first."""
    steps = list(history)
    sequences = {cid: [st.last_verdict] for cid, st in states.items()}
    for offset, seed in enumerate(seeds):
        inp = input if offset == 0 else ""
        out = model.next_output(steps, inp, SampleParams(temperature=temperature, seed=seed))
        states = advance(states, labeler, steps, inp, out)
        for cid, st in states.items():
            sequences[cid].append(st.last_verdict)
    return steps[len(history)].output, {cid: tuple(seq) for cid, seq in sequences.items()}


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
