"""Formula rendering: ascii (canonical), symbolic, and english text.

Spellings, binding strengths and english phrase templates come from
``ast.SYNTAX``.  The ascii and symbolic styles are exact inverses of the
parser; the english style is a deterministic template rendering used when
formulas are spliced into prompts.  The template table is documented in
the project README.
"""

from __future__ import annotations

from functools import partial

from .ast import ATOM, SYNTAX, UNARY, Formula, Syntax, fold


def _syntax(phi: Formula) -> Syntax:
    syntax = SYNTAX.get(type(phi))
    if syntax is None:
        raise TypeError(f"not a formula class: {type(phi)!r}")
    return syntax


def _render(style: int, phi: Formula, *parts: str) -> str:
    # ``fold``'s visit, in the style whose spelling is ``Syntax[style]``.
    syntax = _syntax(phi)
    op, strength = syntax[style], syntax.strength
    if strength == ATOM:
        return op or parts[0]
    if strength == UNARY:
        (text,) = parts
        if SYNTAX[type(phi.child)].strength < UNARY:
            return f"{op}({text})"
        # Alphabetic operators need a space before an operand; the symbolic
        # style spaces like the ascii one.
        return f"{op} {text}" if syntax.ascii.isalpha() else f"{op}{text}"
    # Right-associative: parenthesize a left child of equal strength.
    left_text, right_text = parts
    if SYNTAX[type(phi.left)].strength <= strength:
        left_text = f"({left_text})"
    if SYNTAX[type(phi.right)].strength < strength:
        right_text = f"({right_text})"
    return f"{left_text} {op} {right_text}"


# Each style's visit, by the style's name.
_STYLES = {style: partial(_render, Syntax._fields.index(style)) for style in ("ascii", "symbolic")}


def _phrase(phi: Formula, *parts: str) -> str:
    return _syntax(phi).english.format(*parts)


def render(phi: Formula, style: str = "ascii", memo: dict[int, str] | None = None) -> str:
    """Render ``phi`` in one of the styles ``ascii``, ``symbolic``, ``english``.

    ``memo`` maps ``id(node)`` to the node's rendering in ``style`` (never
    ``english``); ``render`` reads and extends it for ``phi`` and every
    subformula.  It is sound only while every node rendered into it stays
    alive, as the nodes of one ``ProgressionCache`` do.
    """
    if style == "english":
        if memo is not None:
            raise ValueError("the english style takes no memo")
        return f"{fold(phi, _phrase)} must hold"
    if style not in _STYLES:
        raise ValueError(f"unknown render style {style!r}")
    return fold(phi, _STYLES[style], memo)
