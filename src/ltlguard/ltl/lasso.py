"""Full LTL truth on ultimately periodic words.

An infinite word ``prefix . loop^omega`` has finitely many distinct
positions, so satisfaction is decidable by evaluating subformulas
bottom-up over those positions, with a least fixed point for the
eventuality operators; invariance is decided as ``G φ = ¬F¬φ`` through the
same least fixed point.
Serves as the semantic oracle the progression machinery is tested
against.
"""

from __future__ import annotations

from collections.abc import Sequence

from .ast import (
    And,
    Always,
    Eventually,
    FalseBool,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    TrueBool,
    TruthAssignment,
    Until,
    fold,
)


def evaluate_lasso(
    phi: Formula,
    prefix: Sequence[TruthAssignment],
    loop: Sequence[TruthAssignment],
) -> bool:
    """Whether ``prefix . loop^omega`` satisfies ``phi`` at position 0."""
    if not loop:
        raise ValueError("loop must be nonempty")
    states = [frozenset(s) for s in prefix] + [frozenset(s) for s in loop]
    n = len(states)
    p = len(prefix)

    def nxt(i: int) -> int:
        return i + 1 if i + 1 < n else p

    def vec(f: Formula, *parts) -> list[bool]:
        match f:
            case TrueBool():
                return [True] * n
            case FalseBool():
                return [False] * n
            case Prop(name):
                return [name in state for state in states]
            case Not():
                return [not x for x in parts[0]]
            case And():
                return [x and y for x, y in zip(*parts)]
            case Or():
                return [x or y for x, y in zip(*parts)]
            case Implies():
                return [(not x) or y for x, y in zip(*parts)]
            case Next():
                return [parts[0][nxt(i)] for i in range(n)]
            case Eventually():
                return _least_fixpoint(parts[0], [True] * n, n, nxt)
            case Until():
                return _least_fixpoint(parts[1], parts[0], n, nxt)
            case Always():
                eventually_not = _least_fixpoint([not x for x in parts[0]], [True] * n, n, nxt)
                return [not x for x in eventually_not]
        raise TypeError(f"not a formula: {f!r}")

    # Memoized by identity: ``phi`` keeps its subformulas alive for the call.
    return fold(phi, vec, {})[0]


def _least_fixpoint(
    target: list[bool], hold: list[bool], n: int, nxt
) -> list[bool]:
    # v = target | (hold & X v), from bottom: reaches exactly the positions
    # with a finite witness.
    v = list(target)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1, -1, -1):
            if not v[i] and (target[i] or (hold[i] and v[nxt(i)])):
                v[i] = True
                changed = True
    return v
