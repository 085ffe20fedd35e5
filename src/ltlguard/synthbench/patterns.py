"""Committed temporal pattern table with three specification levels.

Seven patterns, each renderable as informal text, precise text, or
precise text plus the formula string.  Substituted values default to the
committed examples and can be overridden per call.
"""

from __future__ import annotations

import random
from collections.abc import Mapping

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

PATTERN_IDS = (
    "universality",
    "absence",
    "response",
    "absence_between",
    "constrained_response",
    "tree_b2_d1",
    "tree_b2_d4",
)

LEVELS = ("informal", "precise", "precise+ltl")

_TREE_D4_LABELS = (
    "toucan",
    "crane", "pelican",
    "hawk", "parrot", "heron", "ibis",
    "falcon", "raven", "stork", "puffin", "marten", "weasel", "jackal", "lemur",
    "wolf", "salmon", "owl", "fox", "otter", "badger", "lynx", "viper",
    "gecko", "bison", "moose", "gibbon", "koala", "wombat", "star", "circle",
)

_DEFAULTS: dict[str, dict[str, str]] = {
    "universality": {"color": "red"},
    "absence": {"animal": "owl"},
    "response": {"shape": "triangle", "color": "blue"},
    "absence_between": {"animal": "fox", "shape": "star", "color": "green"},
    "constrained_response": {"shape1": "square", "animal": "fox", "shape2": "circle"},
    "tree_b2_d1": {"a": "toucan", "b1": "crane", "b2": "pelican", "leaf": "deer"},
    "tree_b2_d4": {"a": "toucan", "leaf": "deer"},
}


class UnknownPatternError(KeyError):
    pass


def _values(pattern_id: str, overrides: Mapping[str, str] | None) -> dict[str, str]:
    values = dict(_DEFAULTS[pattern_id])
    if overrides:
        values.update(overrides)
    return values


def _appears(prop: str) -> str:
    word = prop.split("_", 1)[1]
    return f"{article(word)} {word} appears"


def _tree_d1(v: Mapping[str, str]) -> tuple[Formula, str, str]:
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


def _tree_d4(v: Mapping[str, str]) -> tuple[Formula, str, str]:
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


def pattern_formula(pattern_id: str, values: Mapping[str, str] | None = None) -> Formula:
    formula, _, _ = _build(pattern_id, values)
    return formula


def _build(pattern_id: str, overrides: Mapping[str, str] | None) -> tuple[Formula, str, str]:
    if pattern_id not in PATTERN_IDS:
        raise UnknownPatternError(f"unknown pattern id {pattern_id!r}; known: {PATTERN_IDS}")
    v = _values(pattern_id, overrides)
    if pattern_id == "universality":
        p = Prop(prop_name(None, "color", v["color"]))
        return (
            Always(p),
            f"The color is always {v['color']}.",
            f"At every time step in the trace, the color must be {v['color']}.",
        )
    if pattern_id == "absence":
        p = Prop(prop_name(None, "animal", v["animal"]))
        return (
            Always(Not(p)),
            f"{article(v['animal']).capitalize()} {v['animal']} never appears.",
            f"At no time step in the trace does the animal \"{v['animal']}\" appear.",
        )
    if pattern_id == "response":
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
    if pattern_id == "absence_between":
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
    if pattern_id == "constrained_response":
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
    if pattern_id == "tree_b2_d1":
        return _tree_d1(v)
    return _tree_d4(v)


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
