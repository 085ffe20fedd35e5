"""Abstract syntax trees for linear temporal logic formulas.

Nodes are immutable, hashable dataclasses; every rewrite builds new values.
Structural equality (generated ``__eq__``) is the equality of the reference
semantics.  Within one ``ProgressionCache`` (see ``progression``) equal
nodes are the same object, so the compiled monitor compares residuals by
identity.  ``SYNTAX`` is the one table of their concrete syntax.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

TruthAssignment = frozenset[str]

IDENT = r"[A-Za-z0-9_]+"  # proposition names; the parser's identifiers
_PROP_NAME = re.compile(IDENT + r"\Z")


class Verdict(Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"

    def is_terminal(self) -> bool:
        return self is not Verdict.INCONCLUSIVE


@dataclass(frozen=True)
class Formula:
    """Base class for all formula nodes."""


@dataclass(frozen=True)
class TrueBool(Formula):
    pass


@dataclass(frozen=True)
class FalseBool(Formula):
    pass


@dataclass(frozen=True)
class Prop(Formula):
    name: str

    def __post_init__(self) -> None:
        if not _PROP_NAME.match(self.name):
            raise ValueError(
                f"invalid proposition name {self.name!r}: must be nonempty over [A-Za-z0-9_]"
            )
        if self.name in RESERVED_WORDS:
            raise ValueError(f"proposition name {self.name!r} is a reserved word")


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    child: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    child: Formula


@dataclass(frozen=True)
class Always(Formula):
    child: Formula


TRUE = TrueBool()
FALSE = FalseBool()

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


def props_of(phi: Formula) -> frozenset[str]:
    """Set of proposition names occurring in ``phi``."""
    match phi:
        case Prop(name):
            return frozenset({name})
        case Not(child) | Next(child) | Eventually(child) | Always(child):
            return props_of(child)
        case And(left, right) | Or(left, right) | Implies(left, right) | Until(left, right):
            return props_of(left) | props_of(right)
        case _:
            return frozenset()


def node_count(phi: Formula) -> int:
    """Number of AST nodes in ``phi``."""
    match phi:
        case Not(child) | Next(child) | Eventually(child) | Always(child):
            return 1 + node_count(child)
        case And(left, right) | Or(left, right) | Implies(left, right) | Until(left, right):
            return 1 + node_count(left) + node_count(right)
        case _:
            return 1
