"""Shared test utilities: random formula/word generation, oracles, and a
runner for the CLI as a child process."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

import ltlguard
from ltlguard.ltl import (
    FALSE,
    TRUE,
    And,
    Always,
    Eventually,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    TruthAssignment,
    Until,
    evaluate_lasso,
)

DEFAULT_PROPS = ("p0", "p1", "p2", "p3")

# The directory that holds the imported ``ltlguard`` package: ``src/`` in a
# checkout, ``site-packages`` for an installed copy.
PACKAGE_ROOT = Path(ltlguard.__file__).resolve().parent.parent


def run_cli_process(args: Sequence[str], cwd) -> subprocess.CompletedProcess:
    """Run ``python -m ltlguard.cli *args`` in a fresh process in ``cwd``.

    The child's ``PYTHONPATH`` starts with the absolute directory of the
    ``ltlguard`` this process imported, so the child runs the same code even
    when ``cwd`` makes a relative ``PYTHONPATH`` entry resolve elsewhere.
    """
    pythonpath = [str(PACKAGE_ROOT)]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    return subprocess.run(
        [sys.executable, "-m", "ltlguard.cli", *args], capture_output=True, cwd=cwd, env=env
    )


def random_formula(
    rng: random.Random, depth: int, props: Sequence[str] = DEFAULT_PROPS, constants: bool = True
) -> Formula:
    """Random formula of depth at most ``depth`` over ``props``; with
    ``constants`` a leaf may be ``true`` or ``false``."""
    if depth <= 0:
        roll = rng.random()
        if roll < 0.8 or not constants:
            return Prop(rng.choice(list(props)))
        return TRUE if roll < 0.9 else FALSE
    kind = rng.choice(
        ["prop", "not", "and", "or", "implies", "next", "until", "eventually", "always"]
    )
    if kind == "prop":
        return Prop(rng.choice(list(props)))
    if kind == "not":
        return Not(random_formula(rng, depth - 1, props, constants))
    if kind == "next":
        return Next(random_formula(rng, depth - 1, props, constants))
    if kind == "eventually":
        return Eventually(random_formula(rng, depth - 1, props, constants))
    if kind == "always":
        return Always(random_formula(rng, depth - 1, props, constants))
    left = random_formula(rng, depth - 1, props, constants)
    right = random_formula(rng, depth - 1, props, constants)
    if kind == "and":
        return And(left, right)
    if kind == "or":
        return Or(left, right)
    if kind == "implies":
        return Implies(left, right)
    return Until(left, right)


def random_assignment(rng: random.Random, props: Sequence[str]) -> TruthAssignment:
    return frozenset(p for p in props if rng.random() < 0.5)


def random_lasso(
    rng: random.Random,
    props: Sequence[str],
    max_prefix: int,
    max_loop: int,
) -> tuple[list[TruthAssignment], list[TruthAssignment]]:
    prefix = [random_assignment(rng, props) for _ in range(rng.randint(0, max_prefix))]
    loop = [random_assignment(rng, props) for _ in range(rng.randint(1, max_loop))]
    return prefix, loop


def shift_lasso(
    prefix: Sequence[TruthAssignment], loop: Sequence[TruthAssignment]
) -> tuple[list[TruthAssignment], list[TruthAssignment]]:
    """The word with its first position dropped, as a new lasso."""
    if prefix:
        return list(prefix[1:]), list(loop)
    return [], list(loop[1:]) + [loop[0]]


def all_assignments(props: Sequence[str]) -> list[TruthAssignment]:
    out = []
    for mask in range(2 ** len(props)):
        out.append(frozenset(p for i, p in enumerate(props) if mask >> i & 1))
    return out


def lasso_equivalent(
    a: Formula,
    b: Formula,
    props: Sequence[str],
    max_prefix: int = 3,
    max_loop: int = 2,
    trials: int = 300,
    seed: int = 7,
) -> bool:
    """Semantic equivalence check over random small lasso words."""
    rng = random.Random(seed)
    for _ in range(trials):
        prefix, loop = random_lasso(rng, props, max_prefix, max_loop)
        if evaluate_lasso(a, prefix, loop) != evaluate_lasso(b, prefix, loop):
            return False
    return True
