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


def _render(phi: Formula, style: int, memo: dict[int, str] | None) -> str:
    if memo is not None:
        text = memo.get(id(phi))
        if text is not None:
            return text
    syntax = SYNTAX[type(phi)]
    op, strength = syntax[style], syntax.strength
    if strength == ATOM:
        text = op or phi.name
    elif strength == UNARY:
        child = phi.child
        text = _render(child, style, memo)
        if SYNTAX[type(child)].strength < UNARY:
            text = f"{op}({text})"
        elif syntax.ascii.isalpha():
            # Alphabetic operators need a space before an operand; the
            # symbolic style spaces like the ascii one.
            text = f"{op} {text}"
        else:
            text = f"{op}{text}"
    else:
        # Right-associative: parenthesize a left child of equal strength.
        left, right = phi.left, phi.right
        left_text, right_text = _render(left, style, memo), _render(right, style, memo)
        if SYNTAX[type(left)].strength <= strength:
            left_text = f"({left_text})"
        if SYNTAX[type(right)].strength < strength:
            right_text = f"({right_text})"
        text = f"{left_text} {op} {right_text}"
    if memo is not None:
        memo[id(phi)] = text
    return text


def _phrase(node: Formula | str) -> str:
    if isinstance(node, str):  # a proposition's name
        return node
    return SYNTAX[type(node)].english.format(
        *(_phrase(getattr(node, name)) for name in node.__match_args__)
    )


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
        return f"{_phrase(phi)} must hold"
    if style not in _STYLES:
        raise ValueError(f"unknown render style {style!r}")
    return _render(phi, _STYLES[style], memo)
