"""Full LTL truth on ultimately periodic words.

An infinite word ``prefix . loop^omega`` has finitely many distinct
positions, so satisfaction is decidable by evaluating subformulas
bottom-up over those positions, with least fixed points for the
eventuality operators and a greatest fixed point for invariance.
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

    # Keyed by identity: ``phi`` keeps its subformulas alive for the call.
    cache: dict[int, list[bool]] = {}

    def vec(f: Formula) -> list[bool]:
        cached = cache.get(id(f))
        if cached is not None:
            return cached
        match f:
            case TrueBool():
                v = [True] * n
            case FalseBool():
                v = [False] * n
            case Prop(name):
                v = [name in states[i] for i in range(n)]
            case Not(child):
                v = [not x for x in vec(child)]
            case And(left, right):
                lv, rv = vec(left), vec(right)
                v = [lv[i] and rv[i] for i in range(n)]
            case Or(left, right):
                lv, rv = vec(left), vec(right)
                v = [lv[i] or rv[i] for i in range(n)]
            case Implies(left, right):
                lv, rv = vec(left), vec(right)
                v = [(not lv[i]) or rv[i] for i in range(n)]
            case Next(child):
                cv = vec(child)
                v = [cv[nxt(i)] for i in range(n)]
            case Eventually(child):
                v = _least_fixpoint(vec(child), [True] * n, n, nxt)
            case Until(left, right):
                v = _least_fixpoint(vec(right), vec(left), n, nxt)
            case Always(child):
                v = _greatest_fixpoint(vec(child), n, nxt)
            case _:
                raise TypeError(f"not a formula: {f!r}")
        cache[id(f)] = v
        return v

    return vec(phi)[0]


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


def _greatest_fixpoint(child: list[bool], n: int, nxt) -> list[bool]:
    # v = child & X v, from top: survives only along everywhere-true runs.
    v = list(child)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if v[i] and not (child[i] and v[nxt(i)]):
                v[i] = False
                changed = True
    return v
