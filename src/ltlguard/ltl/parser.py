"""Parser for the concrete formula grammar.

Spellings and binding strengths come from ``ast.SYNTAX``.  Loosest to
tightest: ``->``, ``|``, ``&``, ``U`` (all right-assoc), unary (``!``,
``G``, ``F``, ``X``).  Parentheses override.  Unicode aliases are
accepted for every operator so that the symbolic rendering parses back.
Given a residual automaton, the parser builds each node through its
normalizing constructors, so no plain tree is built and walked again.
It is the automaton's only door: a plain tree enters it through its ascii
rendering.

One operator-precedence pass (Dijkstra's shunting yard) reads the tokens
with two explicit stacks and no recursion, so no depth or length of input
reaches Python's recursion limit.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .ast import ATOM, IDENT, SYNTAX, UNARY, FalseBool, Formula, Prop, TrueBool

if TYPE_CHECKING:
    from .progression import ProgressionCache


class ParseError(ValueError):
    """Syntax error with position and the set of tokens that were expected."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        self.text = ""  # the whole input, filled in by the parser
        detail = f"{message} at line {line}, column {column}"
        if expected:
            detail += f" (expected one of: {', '.join(expected)})"
        super().__init__(detail)


_SPELLINGS = {
    spelling: cls
    for cls, syntax in SYNTAX.items()
    for spelling in (syntax.ascii, syntax.symbolic)
    if spelling
}

# Alphabetic spellings lex as identifiers and are resolved through
# ``_SPELLINGS``; every other spelling is an operator, longest first.  Each
# match is one token with the whitespace before it.
_OPERATORS = sorted([*(s for s in _SPELLINGS if not s.isalpha()), "(", ")"], key=len, reverse=True)
_TOKEN = re.compile(
    rf"\s*(?:(?P<word>{IDENT})|(?P<op>{'|'.join(map(re.escape, _OPERATORS))})|(?P<bad>\S))"
)

_UNARY = frozenset(cls for cls, syntax in SYNTAX.items() if syntax.strength == UNARY)
_BINARY = {cls: syntax.strength for cls, syntax in SYNTAX.items() if syntax.strength < UNARY}

_ATOM_EXPECTED = (
    "identifier",
    *(f"'{s.ascii}'" for s in SYNTAX.values() if s.strength == ATOM and s.ascii),
    "'('",
    *(f"'{s.ascii}'" for s in SYNTAX.values() if s.strength == UNARY),
)


def _error(message: str, text: str, index: int, expected: tuple[str, ...] = ()) -> ParseError:
    """A ``ParseError`` at ``text[index]``; lines start after each ``\\n``."""
    line_start = text.rfind("\n", 0, index) + 1
    err = ParseError(message, text.count("\n", 0, index) + 1, index - line_start + 1, expected)
    err.text = text
    return err


def _tree(cls: type[Formula], *children: Formula | str) -> Formula:
    return cls(*children)


def parse(text: str, automaton: ProgressionCache | None = None) -> Formula:
    """Parse a formula string into its AST, or with ``automaton`` into the
    state ``automaton.normalize(parse(text))`` of it, built directly.

    Raises ParseError with line/column positioning and ``text`` on bad input.
    """
    return parse_written(text, automaton)[0]


def parse_written(text: str, automaton: ProgressionCache | None = None) -> tuple[Formula, frozenset[str]]:
    """``parse(text, automaton)`` and the proposition names of the text's
    tokens, which include any that normalizing drops (``q`` in ``G (q | true)``)."""
    build = _tree if automaton is None else automaton.build  # a proposition's child is its name
    tokens = []  # (spelling, index, node class); the class is None for parentheses and the end
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        word, index = m[kind], m.start(kind)
        if kind == "bad":
            raise _error(f"unknown operator or character {word!r}", text, index)
        tokens.append((word, index, _SPELLINGS.get(word, Prop if kind == "word" else None)))
    tokens.append(("", len(text), None))

    operands: list[Formula] = []
    pending: list[type[Formula] | None] = []  # operators not yet applied; None marks an open "("
    want_operand = True
    for word, index, node in tokens:
        if want_operand:
            if node is Prop:
                operands.append(build(Prop, word))
            elif node is TrueBool or node is FalseBool:
                operands.append(node())  # the constant's one instance
            elif node in _UNARY or word == "(":
                pending.append(node)
                continue
            else:
                unexpected = f"unexpected {word!r}" if word else "unexpected end of input"
                raise _error(unexpected, text, index, _ATOM_EXPECTED)
        else:
            # Apply the pending binary operators that bind tighter than this
            # token: an equal one stays pending, so each binds to the right.
            # Any other token binds loosest; after it, an open "(" is on top,
            # or nothing is pending.
            strength = _BINARY.get(node, 0)
            while pending and _BINARY.get(pending[-1], 0) > strength:
                right = operands.pop()
                operands[-1] = build(pending.pop(), operands[-1], right)
            if strength:
                pending.append(node)
                want_operand = True
                continue
            if pending and word == ")":
                pending.pop()
            elif pending:
                raise _error("unbalanced parentheses", text, index, ("')'",))
            elif word == ")":
                raise _error("unbalanced parentheses", text, index)
            elif word:
                raise _error(f"unexpected {word!r} after formula", text, index)
            else:
                break
        # An operand is complete: apply the unary operators written before it.
        while pending and pending[-1] in _UNARY:
            operands.append(build(pending.pop(), operands.pop()))
        want_operand = False

    (phi,) = operands
    written = frozenset(word for word, _, node in tokens if node is Prop)
    # The state keeps the written names: a superset of those its step reads.
    return (phi if automaton is None else automaton._state(phi, written)[2][0]), written
