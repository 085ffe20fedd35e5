"""Parser for the concrete formula grammar.

Spellings and binding strengths come from ``ast.SYNTAX``.  Loosest to
tightest: ``->``, ``|``, ``&``, ``U`` (all right-assoc), unary (``!``,
``G``, ``F``, ``X``).  Parentheses override.  Unicode aliases are
accepted for every operator so that the symbolic rendering parses back.
Given a residual automaton, the parser builds each node through its
normalizing constructors, so no plain tree is built and walked again.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, NamedTuple

from .ast import ATOM, FALSE, IDENT, SYNTAX, TRUE, UNARY, Formula, Prop

if TYPE_CHECKING:
    from .progression import ProgressionCache


class ParseError(ValueError):
    """Syntax error with position and the set of tokens that were expected."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        self.text = ""  # the whole input, filled in by ``parse``
        detail = f"{message} at line {line}, column {column}"
        if expected:
            detail += f" (expected one of: {', '.join(expected)})"
        super().__init__(detail)


class Token(NamedTuple):
    text: str  # "" at the end of input
    line: int
    column: int
    node: type[Formula] | None  # the class the spelling denotes; None for parentheses and the end


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

_CONSTANTS = {type(c): c for c in (TRUE, FALSE)}
_BINARY = {cls: syntax.strength for cls, syntax in SYNTAX.items() if syntax.strength < UNARY}

_ATOM_EXPECTED = (
    "identifier",
    *(f"'{s.ascii}'" for s in SYNTAX.values() if s.strength == ATOM and s.ascii),
    "'('",
    *(f"'{s.ascii}'" for s in SYNTAX.values() if s.strength == UNARY),
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: index of the current line's first character
    multiline = "\n" in text
    end = 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start, end = m.span(kind)
        if multiline and (newlines := text.count("\n", m.start(), start)):
            line += newlines
            line_start = text.rindex("\n", 0, start) + 1
        word, column = text[start:end], start - line_start + 1
        if kind == "bad":
            raise ParseError(f"unknown operator or character {word!r}", line, column)
        tokens.append(Token(word, line, column, _SPELLINGS.get(word, Prop if kind == "word" else None)))
    if multiline and (newlines := text.count("\n", end)):
        line += newlines
        line_start = text.rindex("\n") + 1
    tokens.append(Token("", line, len(text) - line_start + 1, None))
    return tokens


def _unexpected(tok: Token) -> str:
    return f"unexpected {tok.text!r}" if tok.text else "unexpected end of input"


def _tree(cls: type[Formula], *children: Formula | str) -> Formula:
    return cls(*children)


class _Parser:
    def __init__(self, tokens: list[Token], build) -> None:
        self.tokens = tokens
        self.pos = 0
        self.build = build  # (node class, *children) -> node; a proposition's child is its name

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def binary(self, strength: int = 1) -> Formula:
        """Operands joined by the binary operators of ``strength`` or tighter.

        Precedence climbing: an operator's right operand takes every later
        operator binding at least as tight, so each binds right-associatively.
        """
        left = self.operand()
        while True:
            op_strength = _BINARY.get(self.peek().node)
            if op_strength is None or op_strength < strength:
                return left
            node = self.advance().node
            left = self.build(node, left, self.binary(op_strength))

    def operand(self) -> Formula:
        tok = self.advance()
        node = tok.node
        if node is Prop:
            return self.build(Prop, tok.text)
        if node in _CONSTANTS:
            return _CONSTANTS[node]
        if node is not None and SYNTAX[node].strength == UNARY:
            return self.build(node, self.operand())
        if tok.text == "(":
            inner = self.binary()
            closing = self.peek()
            if closing.text != ")":
                raise ParseError("unbalanced parentheses", closing.line, closing.column, expected=("')'",))
            self.advance()
            return inner
        raise ParseError(_unexpected(tok), tok.line, tok.column, expected=_ATOM_EXPECTED)


def parse(text: str, automaton: ProgressionCache | None = None) -> Formula:
    """Parse a formula string into its AST, or with ``automaton`` into the
    state ``automaton.normalize(parse(text))`` of it, built directly.

    Raises ParseError with line/column positioning and ``text`` on bad input.
    """
    return parse_written(text, automaton)[0]


def parse_written(text: str, automaton: ProgressionCache | None = None) -> tuple[Formula, frozenset[str]]:
    """``parse(text, automaton)`` and the proposition names of the text's
    tokens, which include any that normalizing drops (``q`` in ``G (q | true)``)."""
    try:
        tokens = tokenize(text)
        parser = _Parser(tokens, _tree if automaton is None else automaton.build)
        phi = parser.binary()
        trailing = parser.peek()
        if trailing.text == ")":
            raise ParseError("unbalanced parentheses", trailing.line, trailing.column)
        if trailing.text:
            raise ParseError(f"{_unexpected(trailing)} after formula", trailing.line, trailing.column)
    except ParseError as err:
        err.text = text
        raise
    written = frozenset(tok.text for tok in tokens if tok.node is Prop)
    return (phi if automaton is None else automaton.normalize(phi)), written
