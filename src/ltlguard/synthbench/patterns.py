"""Committed temporal pattern table with three specification levels.

Seven patterns, each renderable as informal text, precise text, or
precise text plus the formula string.  Substituted values default to the
committed examples and can be overridden per call.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping

from ..ltl import (
    And,
    Always,
    Eventually,
    Formula,
    Implies,
    Not,
    Prop,
    Until,
    render,
)
from .generator import branches_wording, build_tree_formula, tree_wording
from .events import article, prop_name

LEVELS = ("informal", "precise", "precise+ltl")

_TREE_D4_LABELS = (
    "toucan",
    "crane", "pelican",
    "hawk", "parrot", "heron", "ibis",
    "falcon", "raven", "stork", "puffin", "marten", "weasel", "jackal", "lemur",
    "wolf", "salmon", "owl", "fox", "otter", "badger", "lynx", "viper",
    "gecko", "bison", "moose", "gibbon", "koala", "wombat", "star", "circle",
)

# A stock pattern built from its values: the formula, the informal wording
# and the precise wording.
_Built = tuple[Formula, str, str]


class UnknownPatternError(KeyError):
    pass


def _appears(prop: str) -> str:
    word = prop.split("_", 1)[1]
    return f"{article(word)} {word} appears"


def _universality(v: Mapping[str, str]) -> _Built:
    p = Prop(prop_name(None, "color", v["color"]))
    return (
        Always(p),
        f"The color is always {v['color']}.",
        f"At every time step in the trace, the color must be {v['color']}.",
    )


def _absence(v: Mapping[str, str]) -> _Built:
    p = Prop(prop_name(None, "animal", v["animal"]))
    return (
        Always(Not(p)),
        f"{article(v['animal']).capitalize()} {v['animal']} never appears.",
        f"At no time step in the trace does the animal \"{v['animal']}\" appear.",
    )


def _response(v: Mapping[str, str]) -> _Built:
    p = Prop(prop_name(None, "shape", v["shape"]))
    s = Prop(prop_name(None, "color", v["color"]))
    return (
        Always(Implies(p, Eventually(s))),
        f"Whenever {article(v['shape'])} {v['shape']} appears, {article(v['color'])} "
        f"{v['color']} item should eventually appear too.",
        f"It is always the case that for every occurrence of {article(v['shape'])} "
        f"{v['shape']} shape, the color {v['color']} must occur at the same time "
        f"step or at a later time step.",
    )


def _absence_between(v: Mapping[str, str]) -> _Built:
    p = Prop(prop_name(None, "color", v["color"]))
    q = Prop(prop_name(None, "animal", v["animal"]))
    r = Prop(prop_name(None, "shape", v["shape"]))
    return (
        Always(Implies(And(q, And(Not(r), Eventually(r))), Until(Not(p), r))),
        f"{article(v['color']).capitalize()} {v['color']} item should not occur between "
        f"{article(v['animal'])} {v['animal']} and {article(v['shape'])} {v['shape']}.",
        f"It is always the case that if {article(v['animal'])} {v['animal']} appears at a "
        f"time step where {article(v['shape'])} {v['shape']} does not appear, and "
        f"{article(v['shape'])} {v['shape']} will appear at some future time step, then "
        f"the color {v['color']} must not appear at any time step from that point "
        f"until the {v['shape']} appears.",
    )


def _constrained_response(v: Mapping[str, str]) -> _Built:
    p = Prop(prop_name(None, "shape", v["shape1"]))
    q = Prop(prop_name(None, "animal", v["animal"]))
    r = Prop(prop_name(None, "shape", v["shape2"]))
    return (
        Always(Implies(p, Until(Not(q), r))),
        f"Whenever {article(v['shape1'])} {v['shape1']} appears, {article(v['animal'])} "
        f"{v['animal']} should not appear until {article(v['shape2'])} {v['shape2']} appears.",
        f"It is always the case that whenever {article(v['shape1'])} {v['shape1']} shape "
        f"appears, the animal {v['animal']} must not appear at any time step from that "
        f"point until the shape {v['shape2']} appears. For every {v['shape1']}, the "
        f"shape {v['shape2']} must eventually appear at that time step or at a later "
        f"time step.",
    )


def _tree_d1(v: Mapping[str, str]) -> _Built:
    a, b1, b2, leaf = (prop_name(None, "animal", v[k]) for k in ("a", "b1", "b2", "leaf"))
    # The fixed rng keeps the rendering stable.  Its first draw of the
    # path's side is 1, so the path (a, b2, leaf) is the right branch.
    formula, paths = build_tree_formula((a, b2, leaf), iter([b1]), random.Random(0), depth=1)
    informal = (
        f"At some point {article(v['a'])} {v['a']} should appear, followed by either "
        f"{article(v['b1'])} {v['b1']} or {article(v['b2'])} {v['b2']}, and then {article(v['leaf'])} {v['leaf']}."
    )
    precise = (
        f"At some time step, {article(v['a'])} {v['a']} must appear, and then at some strictly "
        f"later time step, {branches_wording([path[1:] for path in paths], _appears)}."
    )
    return formula, informal, precise


def _tree_d4(v: Mapping[str, str]) -> _Built:
    # The path takes labels 0, 1, 3, 7 and 15 of the table, then the leaf;
    # the other labels, in table order, fill the off-path nodes depth first.
    # They are picked by index, so an `a` equal to one of them still renders
    # (that label then appears twice, as it does for an equal `leaf`).  The
    # fixed rng keeps the rendering stable; its draws of the path's side are
    # 1, 1, 0, 1, so the path runs right, right, left, right.
    props = [
        prop_name(None, "shape" if label in ("star", "circle") else "animal", label)
        for label in (v["a"], *_TREE_D4_LABELS[1:])
    ]
    on_path = (0, 1, 3, 7, 15)
    path_props = (*(props[i] for i in on_path), prop_name(None, "animal", v["leaf"]))
    off_path = (prop for i, prop in enumerate(props) if i not in on_path)
    formula, paths = build_tree_formula(path_props, off_path, random.Random(0))
    b1, b2 = (prop.split("_", 1)[1] for prop in dict.fromkeys(path[1] for path in paths))
    informal = (
        f"At some point {article(v['a'])} {v['a']} should appear, followed by either "
        f"{article(b1)} {b1} or {article(b2)} {b2}. Each branch splits again in the same way, "
        f"four levels deep. Everything ends with {article(v['leaf'])} {v['leaf']}."
    )
    precise = f"At some time step, {tree_wording(paths, _appears)}."
    return formula, informal, precise


# Each stock pattern's committed example values and its builder.
_PATTERNS: dict[str, tuple[dict[str, str], Callable[[Mapping[str, str]], _Built]]] = {
    "universality": ({"color": "red"}, _universality),
    "absence": ({"animal": "owl"}, _absence),
    "response": ({"shape": "triangle", "color": "blue"}, _response),
    "absence_between": ({"animal": "fox", "shape": "star", "color": "green"}, _absence_between),
    "constrained_response": ({"shape1": "square", "animal": "fox", "shape2": "circle"}, _constrained_response),
    "tree_b2_d1": ({"a": "toucan", "b1": "crane", "b2": "pelican", "leaf": "deer"}, _tree_d1),
    "tree_b2_d4": ({"a": "toucan", "leaf": "deer"}, _tree_d4),
}
PATTERN_IDS = tuple(_PATTERNS)


def _build(pattern_id: str, overrides: Mapping[str, str] | None) -> _Built:
    if pattern_id not in PATTERN_IDS:
        raise UnknownPatternError(f"unknown pattern id {pattern_id!r}; known: {PATTERN_IDS}")
    defaults, build = _PATTERNS[pattern_id]
    return build({**defaults, **(overrides or {})})


def pattern_formula(pattern_id: str, values: Mapping[str, str] | None = None) -> Formula:
    formula, _, _ = _build(pattern_id, values)
    return formula


def render_constraint(
    pattern_id: str, level: str = "informal", values: Mapping[str, str] | None = None
) -> str:
    """Pattern wording at the given specification level; ``precise+ltl``
    appends the round-trip-parseable formula string."""
    if level not in LEVELS:
        raise ValueError(f"unknown specification level {level!r}; one of {LEVELS}")
    formula, informal, precise = _build(pattern_id, values)
    if level == "informal":
        return informal
    if level == "precise":
        return precise
    return f"{precise}\nLTL: {render(formula, 'ascii')}"
