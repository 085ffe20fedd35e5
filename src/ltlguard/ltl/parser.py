"""Parser for the concrete formula grammar.

Spellings and binding strengths come from ``ast.SYNTAX``.  Loosest to
tightest: ``->``, ``|``, ``&``, ``U`` (all right-assoc), unary (``!``,
``G``, ``F``, ``X``).  Parentheses override.  Unicode aliases are
accepted for every operator so that the symbolic rendering parses back.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .ast import ATOM, FALSE, IDENT, SYNTAX, TRUE, UNARY, Formula, Prop


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
# ``_SPELLINGS``; every other spelling is an operator, longest first.
_OPERATORS = sorted([*(s for s in _SPELLINGS if not s.isalpha()), "(", ")"], key=len, reverse=True)
_TOKEN = re.compile(
    rf"(?P<space>\s+)|(?P<word>{IDENT})|(?P<op>{'|'.join(map(re.escape, _OPERATORS))})|(?P<bad>.)",
    re.DOTALL,
)

_CONSTANTS = {type(c): c for c in (TRUE, FALSE)}

_ATOM_EXPECTED = (
    "identifier",
    *(f"'{s.ascii}'" for s in SYNTAX.values() if s.strength == ATOM and s.ascii),
    "'('",
    *(f"'{s.ascii}'" for s in SYNTAX.values() if s.strength == UNARY),
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: index of the current line's first character
    for m in _TOKEN.finditer(text):
        kind, word, column = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "space":
            newlines = word.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + word.rindex("\n") + 1
        elif kind == "bad":
            raise ParseError(f"unknown operator or character {word!r}", line, column)
        else:
            tokens.append(Token(word, line, column, _SPELLINGS.get(word, Prop if kind == "word" else None)))
    tokens.append(Token("", line, len(text) - line_start + 1, None))
    return tokens


def _unexpected(tok: Token) -> str:
    return f"unexpected {tok.text!r}" if tok.text else "unexpected end of input"


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def binary(self, strength: int = 1) -> Formula:
        """Operands binding tighter than ``strength``, joined right-associatively
        by the binary operator of that strength."""
        if strength == UNARY:
            return self.operand()
        left = self.binary(strength + 1)
        node = self.peek().node
        if node is not None and SYNTAX[node].strength == strength:
            self.advance()
            return node(left, self.binary(strength))
        return left

    def operand(self) -> Formula:
        tok = self.advance()
        node = tok.node
        if node is Prop:
            return Prop(tok.text)
        if node in _CONSTANTS:
            return _CONSTANTS[node]
        if node is not None and SYNTAX[node].strength == UNARY:
            return node(self.operand())
        if tok.text == "(":
            inner = self.binary()
            closing = self.peek()
            if closing.text != ")":
                raise ParseError("unbalanced parentheses", closing.line, closing.column, expected=("')'",))
            self.advance()
            return inner
        raise ParseError(_unexpected(tok), tok.line, tok.column, expected=_ATOM_EXPECTED)


def parse(text: str) -> Formula:
    """Parse a formula string into its AST.

    Raises ParseError with line/column positioning and ``text`` on bad input.
    """
    try:
        parser = _Parser(tokenize(text))
        phi = parser.binary()
        trailing = parser.peek()
        if trailing.text == ")":
            raise ParseError("unbalanced parentheses", trailing.line, trailing.column)
        if trailing.text:
            raise ParseError(f"{_unexpected(trailing)} after formula", trailing.line, trailing.column)
    except ParseError as err:
        err.text = text
        raise
    return phi
