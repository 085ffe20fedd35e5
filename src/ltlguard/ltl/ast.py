"""Abstract syntax trees for linear temporal logic formulas.

Nodes are immutable, hashable dataclasses; every rewrite builds new values.
Structural equality, ``same``, is their ``==`` and the equality of the
reference semantics.  A constant has one instance, which ``TrueBool()`` or
a copy of ``TRUE`` returns, so it is tested by identity.  Within one
``ProgressionCache`` (see ``progression``) equal nodes are the same object,
so the compiled monitor compares residuals by identity.  ``SYNTAX`` is the
one table of their concrete syntax; ``fold`` and ``same`` walk a formula
without recursion.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, TypeVar

TruthAssignment = frozenset[str]
T = TypeVar("T")

IDENT = r"[A-Za-z0-9_]+"  # proposition names; the parser's identifiers
_PROP_NAME = re.compile(IDENT + r"\Z")


class Verdict(Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class Formula:
    """Base class for all formula nodes; ``==`` is ``same`` and ``hash`` a ``fold``, so neither recurses."""

    def __eq__(self, other: object) -> bool:
        return same(self, other) if isinstance(other, Formula) else NotImplemented

    def __hash__(self) -> int:
        return fold(self, lambda node, *parts: hash((type(node), *parts)), {})


@dataclass(frozen=True, eq=False)
class TrueBool(Formula):
    def __new__(cls) -> TrueBool:  # also serves copy, pickle and ``dataclasses.replace``
        return TRUE


@dataclass(frozen=True, eq=False)
class FalseBool(Formula):
    def __new__(cls) -> FalseBool:
        return FALSE


@dataclass(frozen=True, eq=False)
class Prop(Formula):
    name: str

    def __post_init__(self) -> None:
        if not _PROP_NAME.match(self.name):
            raise ValueError(
                f"invalid proposition name {self.name!r}: must be nonempty over [A-Za-z0-9_]"
            )
        if self.name in RESERVED_WORDS:
            raise ValueError(f"proposition name {self.name!r} is a reserved word")


@dataclass(frozen=True, eq=False)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Next(Formula):
    child: Formula


@dataclass(frozen=True, eq=False)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Eventually(Formula):
    child: Formula


@dataclass(frozen=True, eq=False)
class Always(Formula):
    child: Formula


TRUE: TrueBool = object.__new__(TrueBool)
FALSE: FalseBool = object.__new__(FalseBool)

# Binding strengths: a higher number binds tighter.  Binary operators are
# right-associative; unary operators and atoms bind tightest.
UNARY = 5
ATOM = 6


class Syntax(NamedTuple):
    """Concrete syntax of one node class."""

    kind: str  # node kind in the AST dump of ``ltlguard parse``
    ascii: str  # canonical spelling ("" for propositions, spelled by name)
    symbolic: str  # Unicode alias, accepted by the parser too
    strength: int
    english: str  # phrase template over the children's phrases, in field order


# The one definition of the formula language's concrete syntax.  The
# parser, the renderer, ``RESERVED_WORDS`` and the AST dump all read it.
SYNTAX: dict[type[Formula], Syntax] = {
    TrueBool: Syntax("true", "true", "true", ATOM, "true"),
    FalseBool: Syntax("false", "false", "false", ATOM, "false"),
    Prop: Syntax("prop", "", "", ATOM, "{0}"),
    Not: Syntax("not", "!", "¬", UNARY, "not ({0})"),
    Always: Syntax("always", "G", "□", UNARY, "always, {0}"),
    Eventually: Syntax("eventually", "F", "◇", UNARY, "eventually, {0}"),
    Next: Syntax("next", "X", "○", UNARY, "at the next step, {0}"),
    Until: Syntax("until", "U", "U", 4, "({0}) until ({1})"),
    And: Syntax("and", "&", "∧", 3, "({0}) and ({1})"),
    Or: Syntax("or", "|", "∨", 2, "({0}) or ({1})"),
    Implies: Syntax("implies", "->", "→", 1, "if ({0}) then ({1})"),
}

# Reserved by the concrete grammar; a proposition with one of these names
# could not survive a print/parse round trip.
RESERVED_WORDS = frozenset(s.ascii for s in SYNTAX.values() if s.ascii.isalpha())


def fold(phi: Formula, visit: Callable[..., T], memo: dict[int, T] | None = None) -> T:
    """``visit(node, *parts)`` of every node of ``phi`` in post-order, where
    ``parts`` are the results for the node's fields in field order and a
    proposition's one part is its name; returns the result for ``phi``.

    The walk keeps its own stacks, so no depth meets Python's recursion
    limit, and a result is held only until its parent's visit.  ``memo``,
    if given, maps ``id(node)`` to the result for a node; ``fold`` reads
    and extends it, so a subformula shared within ``phi``, or folded by an
    earlier call with the same memo, is visited once.  It is sound only
    while every node folded into it stays alive.
    """
    if memo is not None and id(phi) in memo:
        return memo[id(phi)]
    results: list[T] = []
    stack: list[tuple[object, bool]] = [(phi, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            fields = node.__match_args__
            if len(fields) == 2:
                right = results.pop()
                result = visit(node, results.pop(), right)
            else:
                result = visit(node, results.pop()) if fields else visit(node)
        elif memo is not None and id(node) in memo:
            results.append(memo[id(node)])
            continue
        elif type(node) is Prop:
            result = visit(node, node.name)
        elif isinstance(node, Formula):
            stack.append((node, True))
            stack += [(getattr(node, name), False) for name in reversed(node.__match_args__)]
            continue
        else:
            raise TypeError(f"not a formula: {node!r}")
        if memo is not None:
            memo[id(node)] = result
        results.append(result)
    return results[0]


def same(a: Formula, b: Formula) -> bool:
    """Structural equality, formulas' ``==``, by an explicit stack, so no
    depth meets the recursion limit; a shared subtree is matched by identity."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        kind = type(x)
        if kind is not type(y) or kind is Prop and x.name != y.name:
            return False
        if kind is not Prop:
            stack += [(getattr(x, name), getattr(y, name)) for name in x.__match_args__]
    return True
