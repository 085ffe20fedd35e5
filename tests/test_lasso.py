"""Semantic oracle on ultimately periodic words, and the progression identity."""

import random

import pytest

from ltlguard.ltl import (
    Always,
    Eventually,
    Next,
    Not,
    Or,
    Prop,
    Until,
    evaluate_lasso,
    progress,
)
from helpers import DEFAULT_PROPS, random_formula, random_lasso, shift_lasso

A = Prop("a")
B = Prop("b")
P = Prop("p")


def s(*props):
    return frozenset(props)


class TestEvaluateLasso:
    def test_always_true_on_constant_loop(self):
        assert evaluate_lasso(Always(P), [], [s("p")]) is True

    def test_eventually_false_when_never(self):
        assert evaluate_lasso(Eventually(P), [s()], [s()]) is False

    def test_until_hand_unrolled(self):
        # a holds at 0 and 1, b from position 2 on: a U b holds at 0.
        assert evaluate_lasso(Until(A, B), [s("a"), s("a")], [s("b")]) is True

    def test_until_requires_witness(self):
        assert evaluate_lasso(Until(A, B), [s("a")], [s("a")]) is False

    def test_until_needs_hold_until_witness(self):
        assert evaluate_lasso(Until(A, B), [s(), s("a")], [s("b")]) is False

    def test_next_looks_one_ahead(self):
        assert evaluate_lasso(Next(P), [s()], [s("p")]) is True
        assert evaluate_lasso(Next(P), [s("p")], [s()]) is False

    def test_loop_wraps_to_loop_start(self):
        # Word: {} then ({p} {}) repeating; always eventually p.
        phi = Always(Eventually(P))
        assert evaluate_lasso(phi, [s()], [s("p"), s()]) is True

    def test_eventually_always(self):
        phi = Eventually(Always(P))
        assert evaluate_lasso(phi, [s()], [s("p")]) is True
        assert evaluate_lasso(phi, [s("p")], [s("p"), s()]) is False

    def test_empty_loop_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            evaluate_lasso(P, [s("p")], [])

    def test_response_pattern(self):
        phi = Always(Or(Not(A), Eventually(B)))
        assert evaluate_lasso(phi, [s("a")], [s("b")]) is True
        assert evaluate_lasso(phi, [s("b")], [s("a")]) is False

    def test_always_holds_at_every_shift(self):
        # G φ checked without the oracle's fixpoints: the word's suffixes are
        # its len(prefix) + len(loop) shifts, and G φ holds iff φ holds on each.
        rng = random.Random(3535)
        for _ in range(3000):
            phi = random_formula(rng, depth=rng.randint(0, 3))
            prefix, loop = random_lasso(rng, DEFAULT_PROPS, max_prefix=4, max_loop=3)
            holds, word = [], (prefix, loop)
            for _ in range(len(prefix) + len(loop)):
                holds.append(evaluate_lasso(phi, *word))
                word = shift_lasso(*word)
            assert evaluate_lasso(Always(phi), prefix, loop) == all(holds), (phi, prefix, loop)


class TestProgressionIdentity:
    """Truth at position i equals truth of the progressed formula at i+1."""

    def test_random_formulas_and_words(self):
        rng = random.Random(97)
        for _ in range(800):
            phi = random_formula(rng, depth=4)
            prefix, loop = random_lasso(rng, DEFAULT_PROPS, max_prefix=4, max_loop=3)
            first = prefix[0] if prefix else loop[0]
            shifted_prefix, shifted_loop = shift_lasso(prefix, loop)
            assert evaluate_lasso(phi, prefix, loop) == evaluate_lasso(
                progress(phi, first), shifted_prefix, shifted_loop
            )
