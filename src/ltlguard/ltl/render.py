"""Formula rendering: ascii (canonical), symbolic, and english text.

Spellings, binding strengths and english phrase templates come from
``ast.SYNTAX``.  The ascii and symbolic styles are exact inverses of the
parser; the english style is a deterministic template rendering used when
formulas are spliced into prompts.  The template table is documented in
the project README.
"""

from __future__ import annotations

from .ast import ATOM, SYNTAX, UNARY, Formula, Syntax

# Index of each style's spelling in a ``Syntax`` row.
_STYLES = {style: Syntax._fields.index(style) for style in ("ascii", "symbolic")}


def _render(phi: Formula, style: int) -> str:
    syntax = SYNTAX[type(phi)]
    op, strength = syntax[style], syntax.strength
    if strength == ATOM:
        return op or phi.name
    if strength == UNARY:
        child = phi.child
        text = _render(child, style)
        if SYNTAX[type(child)].strength < UNARY:
            return f"{op}({text})"
        # Alphabetic operators need a space before an operand; the symbolic
        # style spaces like the ascii one.
        return f"{op} {text}" if syntax.ascii.isalpha() else f"{op}{text}"
    # Right-associative: parenthesize a left child of equal strength.
    left, right = phi.left, phi.right
    left_text, right_text = _render(left, style), _render(right, style)
    if SYNTAX[type(left)].strength <= strength:
        left_text = f"({left_text})"
    if SYNTAX[type(right)].strength < strength:
        right_text = f"({right_text})"
    return f"{left_text} {op} {right_text}"


def _phrase(node: Formula | str) -> str:
    if isinstance(node, str):  # a proposition's name
        return node
    return SYNTAX[type(node)].english.format(
        *(_phrase(getattr(node, name)) for name in node.__match_args__)
    )


def render(phi: Formula, style: str = "ascii") -> str:
    """Render ``phi`` in one of the styles ``ascii``, ``symbolic``, ``english``."""
    if style == "english":
        return f"{_phrase(phi)} must hold"
    if style not in _STYLES:
        raise ValueError(f"unknown render style {style!r}")
    return _render(phi, _STYLES[style])
