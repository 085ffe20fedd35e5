"""Incremental constraint monitoring over labeled traces.

Each constraint is progressed independently, one step per labeled
input/output pair.  In plain mode a terminal verdict absorbs: the
residual is pinned at ``true``/``false`` and every later step repeats
the verdict.  In reset mode the residual returns to the original
objective after each terminal verdict so further episodes can be
counted.  A state holds only what stepping needs; ``report`` builds the
verdicts, counters and witness episodes from a constraint's change
points, the steps that may have changed its state.

``run_states`` steps all constraints step-major and sparsely.  An event
only reaches the monitors whose propositions it touches (Chen & Roşu,
MOP, OOPSLA 2007), and a state of the residual automaton with a
self-loop on a letter may skip that letter (Bauer, Leucker &
Schallhart, TOSEM 20(4), 2011): a constraint is stepped only when the
step's labels meet its objective's propositions or its state is not yet
settled, and each keeps only its change points.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .ltl import (
    FALSE,
    TRUE,
    Formula,
    ProgressionCache,
    TruthAssignment,
    Verdict,
    progress,
    render,
    simplify,
    verdict_of,
)
from .trace import (
    StepRecord,
    Trace,
    TraceError,
    VerdictReport,
    WitnessEntry,
    WitnessEpisode,
)


class CrossCheckError(AssertionError):
    """Compiled monitoring disagreed with the reference progression."""


class _Reference:
    """The reference progression as an engine: ``simplify(progress(...))``,
    uncached, with ``progress`` and ``simplify`` looked up at call time."""

    __slots__ = ()

    def normalize(self, phi: Formula) -> Formula:
        return simplify(phi)

    def transition(self, phi: Formula, labels: TruthAssignment) -> tuple[Formula, Verdict]:
        residual = simplify(progress(phi, labels))
        return residual, verdict_of(residual)


REFERENCE = _Reference()
_INCONCLUSIVE = Verdict.INCONCLUSIVE  # read once: a class attribute of an Enum is a slow lookup
_NO_LABELS: TruthAssignment = frozenset()


@dataclass(frozen=True)
class MonitorState:
    """Progression state of one constraint within one monitored session."""

    constraint_id: str
    objective: Formula  # held in simplified form; reset target
    residual: Formula
    # The residual automaton ``objective`` and ``residual`` are states of.
    automaton: ProgressionCache | _Reference = field(compare=False, repr=False)
    reset_mode: bool = False
    last_verdict: Verdict = Verdict.INCONCLUSIVE


def new_state(
    constraint_id: str,
    objective: Formula,
    reset_mode: bool = False,
    cache: ProgressionCache | _Reference | None = None,
) -> MonitorState:
    """Initial state, its objective normalized into ``cache`` or a fresh automaton."""
    automaton = ProgressionCache() if cache is None else cache
    simplified = automaton.normalize(objective)
    return MonitorState(constraint_id, simplified, simplified, automaton, reset_mode)


def step(state: MonitorState, labels: TruthAssignment) -> MonitorState:
    """Progress one step; the successor's ``last_verdict`` is the step's verdict.

    In reset mode a terminal verdict returns the residual to the objective.
    A step that keeps the residual object and the verdict returns ``state``
    itself.
    """
    residual, verdict = state.automaton.transition(state.residual, labels)
    if verdict is not _INCONCLUSIVE and state.reset_mode:
        residual = state.objective
    if residual is state.residual and verdict is state.last_verdict:
        return state
    return MonitorState(
        state.constraint_id, state.objective, residual, state.automaton, state.reset_mode, verdict
    )


def _settled(state: MonitorState) -> bool:
    """Whether a step that reads none of the objective's propositions keeps
    ``state``, verdict included.  A reset-mode state at a terminal verdict
    never is: its next step may count another episode from the objective."""
    if state.reset_mode and state.last_verdict is not _INCONCLUSIVE:
        return False
    return step(state, _NO_LABELS) is state


def report(
    records: Sequence[StepRecord],
    start: MonitorState,
    changes: Sequence[tuple[int, MonitorState]],
) -> VerdictReport:
    """The verdict report of ``start`` stepped along ``records``.

    ``changes`` lists, in step order, ``(i, state)`` for each step
    ``records[i]`` that may have changed the state, with the state it
    reached; every step left out kept the state and its verdict.  Listing
    more steps, up to every step, gives the same report.  A step is a
    witness entry when the residual it reaches (``true`` or ``false`` at a
    terminal verdict, the new residual otherwise) differs from the previous
    state's.  A terminal verdict reached by such a step closes an episode;
    reset mode then starts a new witness.
    """
    inconclusive, satisfied = Verdict.INCONCLUSIVE, Verdict.SATISFIED
    verdicts: list[Verdict] = []
    witness: list[WitnessEntry] = []
    episodes: list[WitnessEpisode] = []
    previous = start
    for i, state in changes:
        verdicts += [previous.last_verdict] * (i - len(verdicts))
        verdict = state.last_verdict
        verdicts.append(verdict)
        reached = state.residual if verdict is inconclusive else TRUE if verdict is satisfied else FALSE
        # Reference residuals are fresh objects: identity alone is no change.
        if reached is not previous.residual and reached != previous.residual:
            record = records[i]
            witness.append(WitnessEntry(record.t, record.input, record.output, record.labels, reached))
            if verdict is not inconclusive:
                episodes.append(WitnessEpisode(verdict, tuple(witness)))
                if state.reset_mode:
                    witness = []
        previous = state
    verdicts += [previous.last_verdict] * (len(records) - len(verdicts))
    counts = verdicts.count(Verdict.VIOLATED), verdicts.count(satisfied)
    return VerdictReport(start.constraint_id, tuple(verdicts), *counts, tuple(episodes))


def run_states(states: Sequence[MonitorState], records: Sequence[StepRecord]) -> list[VerdictReport]:
    """The report of each state stepped along ``records``, all stepped
    together, step by step, and each only when it may move.

    An index maps each proposition to the states whose objective mentions
    it.  A state is stepped when the step's labels meet its objective's
    propositions, or while it is not settled (``_settled``); any other step
    reads none of its propositions and so keeps it.  A stepped state's
    change point is kept when the step reaches a new state, or a terminal
    verdict in reset mode, which may keep the state and still closes an
    episode.
    """
    watchers: dict[str, list[int]] = {}
    for j, state in enumerate(states):
        for prop in state.automaton.props(state.objective):
            watchers.setdefault(prop, []).append(j)
    watched = frozenset(watchers)
    current = list(states)
    changes: list[list[tuple[int, MonitorState]]] = [[] for _ in states]
    unsettled = {j for j, state in enumerate(states) if not _settled(state)}
    for i, record in enumerate(records):
        labels = record.labels
        touched = watched.intersection(labels)
        if not touched and not unsettled:
            continue
        for j in unsettled.union(*(watchers[prop] for prop in touched)):
            state = current[j]
            successor = step(state, labels)
            if successor is not state:
                current[j] = successor
                changes[j].append((i, successor))
                if _settled(successor):
                    unsettled.discard(j)
                else:
                    unsettled.add(j)
            elif successor.reset_mode and successor.last_verdict is not _INCONCLUSIVE:
                changes[j].append((i, successor))
    return [report(records, start, points) for start, points in zip(states, changes)]


def _require_labels(trace: Trace) -> None:
    if not trace.steps:
        raise TraceError("cannot monitor an empty trace")
    for record in trace.steps:
        if record.labels is None:
            raise TraceError(f"missing labels at step {record.t}")


def run_monitor(
    trace: Trace,
    constraints: Mapping[str, Formula],
    mode: str = "plain",
    cache: ProgressionCache | None = None,
) -> list[VerdictReport]:
    """Monitor every constraint independently over a fully labeled trace.

    The constraints are normalized into ``cache``, such as the automaton
    their config was parsed into, or into a fresh automaton.
    """
    if mode not in ("plain", "reset"):
        raise ValueError(f"unknown mode {mode!r}")
    _require_labels(trace)
    automaton = ProgressionCache() if cache is None else cache
    states = [new_state(cid, constraints[cid], mode == "reset", automaton) for cid in sorted(constraints)]
    return run_states(states, trace.steps)


def audit_log(
    trace: Trace,
    constraints: Mapping[str, Formula],
    mode: str = "plain",
    cross_check: bool = False,
    cache: ProgressionCache | None = None,
) -> list[VerdictReport]:
    """Audit a recorded trace; identical output to ``run_monitor``.

    With ``cross_check`` the reports are checked against the reference
    progression; see ``_cross_check``.
    """
    reports = run_monitor(trace, constraints, mode, cache)
    if cross_check:
        _cross_check(trace, constraints, mode, reports)
    return reports


def _cross_check(
    trace: Trace,
    constraints: Mapping[str, Formula],
    mode: str,
    reports: Sequence[VerdictReport],
) -> None:
    """Check compiled monitoring against the reference progression in one pass.

    Per constraint, a compiled run on a fresh automaton and an uncached run
    of ``simplify(progress(...))`` step densely through the trace side by
    side and must agree on every residual and verdict; the report of the
    reference run, every step a change point, must equal the given one.
    Replaying each witness episode's labels from the objective must then
    reproduce every recorded residual and end in the episode's verdict.
    Raises ``CrossCheckError`` on the first disagreement.
    """
    cache = ProgressionCache()
    for given in reports:
        cid = given.constraint_id
        compiled = new_state(cid, constraints[cid], mode == "reset", cache)
        start = reference = new_state(cid, constraints[cid], mode == "reset", REFERENCE)
        references = []
        for i, (record, reported) in enumerate(zip(trace.steps, given.verdicts, strict=True)):
            compiled = step(compiled, record.labels)
            reference = step(reference, record.labels)
            references.append((i, reference))
            if compiled.residual != reference.residual:
                raise CrossCheckError(
                    f"constraint {cid}: step {record.t}: compiled residual "
                    f"{render(compiled.residual)} differs from reference "
                    f"{render(reference.residual)}"
                )
            verdict, expected = compiled.last_verdict, reference.last_verdict
            if verdict is not expected or reported is not expected:
                raise CrossCheckError(
                    f"constraint {cid}: step {record.t}: reference verdict {expected.value}, "
                    f"compiled {verdict.value}, reported {reported.value}"
                )
        if report(trace.steps, start, references) != given:
            raise CrossCheckError(
                f"constraint {cid}: reported counters or witnesses differ from the reference run"
            )
        for n, episode in enumerate(given.witnesses, 1):
            residual = start.objective
            for entry in episode.entries:
                residual = simplify(progress(residual, entry.labels))
                if residual != entry.residual:
                    raise CrossCheckError(
                        f"constraint {cid}: witness episode {n} does not replay at step {entry.t}"
                    )
            if verdict_of(residual) is not episode.verdict:
                raise CrossCheckError(
                    f"constraint {cid}: witness episode {n} replays to "
                    f"{verdict_of(residual).value}, not {episode.verdict.value}"
                )


@dataclass(frozen=True)
class F1Stats:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class F1Result:
    per_constraint: Mapping[str, F1Stats]
    pooled: F1Stats


def _events(report: VerdictReport) -> set[tuple[int, str, Verdict]]:
    return {
        (t + 1, report.constraint_id, v)
        for t, v in enumerate(report.verdicts)
        if v.is_terminal()
    }


def _stats(predicted: set, truth: set) -> F1Stats:
    tp = len(predicted & truth)
    fp = len(predicted - truth)
    fn = len(truth - predicted)
    if tp + fp + fn == 0:
        return F1Stats(0, 0, 0, 1.0, 1.0, 1.0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return F1Stats(tp, fp, fn, precision, recall, f1)


def score_f1(
    predicted: Sequence[VerdictReport], truth: Sequence[VerdictReport]
) -> F1Result:
    """Precision/recall/F1 of detected terminal events against ground truth.

    An event is (step, constraint, terminal verdict kind); a true positive
    requires all three to match.
    """
    pred_by_id = {r.constraint_id: r for r in predicted}
    truth_by_id = {r.constraint_id: r for r in truth}
    if set(pred_by_id) != set(truth_by_id):
        raise ValueError("mismatched constraint ids between predicted and truth reports")
    per_constraint: dict[str, F1Stats] = {}
    pooled_pred: set = set()
    pooled_truth: set = set()
    for cid in sorted(pred_by_id):
        p_report, t_report = pred_by_id[cid], truth_by_id[cid]
        if len(p_report.verdicts) != len(t_report.verdicts):
            raise ValueError(f"constraint {cid}: mismatched verdict sequence lengths")
        p_events, t_events = _events(p_report), _events(t_report)
        per_constraint[cid] = _stats(p_events, t_events)
        pooled_pred |= p_events
        pooled_truth |= t_events
    return F1Result(per_constraint, _stats(pooled_pred, pooled_truth))
