"""Progression rules, simplification, and verdict extraction."""

import random

from ltlguard.ltl import (
    FALSE,
    TRUE,
    And,
    Always,
    Eventually,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    ProgressionCache,
    Until,
    Verdict,
    evaluate_lasso,
    node_count,
    parse,
    progress,
    simplify,
    verdict_of,
)
from helpers import DEFAULT_PROPS, lasso_equivalent, random_assignment, random_formula

P = Prop("p")
Q = Prop("q")
EMPTY = frozenset()


class TestProgressRules:
    """Each rewrite rule of the progression table, raw (un-simplified)."""

    def test_prop_present(self):
        assert progress(P, frozenset({"p"})) == TRUE

    def test_prop_absent(self):
        assert progress(P, EMPTY) == FALSE

    def test_constants(self):
        assert progress(TRUE, EMPTY) == TRUE
        assert progress(FALSE, frozenset({"p"})) == FALSE

    def test_not(self):
        assert progress(Not(P), frozenset({"p"})) == Not(TRUE)

    def test_and(self):
        assert progress(And(P, Q), frozenset({"p"})) == And(TRUE, FALSE)

    def test_or(self):
        assert progress(Or(P, Q), frozenset({"q"})) == Or(FALSE, TRUE)

    def test_implies_progresses_as_boolean_definition(self):
        assert progress(Implies(P, Q), frozenset({"p"})) == Or(Not(TRUE), FALSE)

    def test_next_unwraps(self):
        inner = Eventually(P)
        assert progress(Next(inner), EMPTY) == inner

    def test_until_unfolds(self):
        phi = Until(P, Q)
        assert progress(phi, frozenset({"p"})) == Or(FALSE, And(TRUE, phi))

    def test_always_unfolds(self):
        phi = Always(P)
        assert progress(phi, frozenset({"p"})) == And(TRUE, phi)

    def test_eventually_unfolds(self):
        phi = Eventually(P)
        assert progress(phi, EMPTY) == Or(FALSE, phi)


class TestProgressExamples:
    def test_pickup_putdown_residual_is_equivalent_to_eventually_putdown(self):
        # After seeing the trigger, what remains is semantically the bare
        # eventuality; syntactic simplification keeps a disjunction whose
        # second branch re-states the original formula.
        phi = parse("F(pickup & X F putdown)")
        residual = simplify(progress(phi, frozenset({"pickup"})))
        assert residual == Or(Eventually(Prop("putdown")), phi)
        assert lasso_equivalent(residual, Eventually(Prop("putdown")), ("pickup", "putdown"))

    def test_pickup_then_putdown_satisfies(self):
        phi = parse("F(pickup & X F putdown)")
        residual = simplify(progress(phi, frozenset({"pickup"})))
        residual = simplify(progress(residual, frozenset({"putdown"})))
        assert residual == TRUE

    def test_always_persists_when_satisfied_now(self):
        assert simplify(progress(Always(P), frozenset({"p"}))) == Always(P)

    def test_always_violates_when_missed(self):
        assert simplify(progress(Always(P), EMPTY)) == FALSE


class TestSimplify:
    def test_and_identity(self):
        assert simplify(And(TRUE, Eventually(P))) == Eventually(P)

    def test_or_of_false(self):
        assert simplify(Or(FALSE, FALSE)) == FALSE

    def test_or_idempotent(self):
        assert simplify(Or(Eventually(P), Eventually(P))) == Eventually(P)

    def test_and_annihilator(self):
        assert simplify(And(Eventually(P), FALSE)) == FALSE

    def test_or_annihilator(self):
        assert simplify(Or(TRUE, Eventually(P))) == TRUE

    def test_double_negation(self):
        assert simplify(Not(Not(P))) == P

    def test_negated_constants(self):
        assert simplify(Not(TRUE)) == FALSE
        assert simplify(Not(FALSE)) == TRUE

    def test_implies_from_true(self):
        assert simplify(Implies(TRUE, Eventually(P))) == Eventually(P)

    def test_implies_from_false(self):
        assert simplify(Implies(FALSE, Eventually(P))) == TRUE

    def test_commutative_duplicate_absorption(self):
        phi = And(And(P, Q), And(Q, P))
        assert simplify(phi) == And(P, Q)

    def test_nested_units_collapse(self):
        assert simplify(And(TRUE, And(TRUE, TRUE))) == TRUE
        assert simplify(Or(FALSE, Or(P, FALSE))) == P

    def test_no_semantic_tautology_detection(self):
        # Semantically valid but syntactically irreducible: stays as-is.
        phi = Or(Eventually(P), Eventually(Not(P)))
        assert simplify(phi) == phi

    def test_idempotent_and_size_nonincreasing_random(self):
        rng = random.Random(5)
        for _ in range(400):
            phi = random_formula(rng, depth=5)
            once = simplify(phi)
            assert simplify(once) == once
            assert node_count(once) <= node_count(phi)

    def test_simplify_preserves_lasso_semantics_random(self):
        rng = random.Random(11)
        for _ in range(250):
            phi = random_formula(rng, depth=4)
            prefix = [random_assignment(rng, DEFAULT_PROPS) for _ in range(rng.randint(0, 3))]
            loop = [random_assignment(rng, DEFAULT_PROPS) for _ in range(rng.randint(1, 2))]
            assert evaluate_lasso(phi, prefix, loop) == evaluate_lasso(
                simplify(phi), prefix, loop
            )


class TestTemporalUnitLaws:
    LAWS = [
        (Always(TRUE), TRUE),
        (Eventually(TRUE), TRUE),
        (Next(TRUE), TRUE),
        (Until(P, TRUE), TRUE),
        (Always(FALSE), FALSE),
        (Eventually(FALSE), FALSE),
        (Next(FALSE), FALSE),
        (Until(FALSE, Q), Q),
        (Next(Always(Or(Q, Not(FALSE)))), TRUE),
        (Until(Always(TRUE), Always(TRUE)), TRUE),
    ]

    def test_simplify(self):
        for phi, expected in self.LAWS:
            assert simplify(phi) == expected, phi

    def test_normalizing_constructors(self):
        cache = ProgressionCache()
        for phi, expected in self.LAWS:
            assert cache.normalize(phi) == expected, phi

    def test_residual_of_constant_operands_stays_small(self):
        cache = ProgressionCache()
        residual = cache.normalize(parse("p U X(G true U G true)"))
        for _ in range(300):
            residual = cache.progress_simplify(residual, frozenset({"p"}))
        assert residual is TRUE


class TestVerdictOf:
    def test_false_is_violated(self):
        assert verdict_of(FALSE) is Verdict.VIOLATED

    def test_true_is_satisfied(self):
        assert verdict_of(TRUE) is Verdict.SATISFIED

    def test_residual_is_inconclusive(self):
        assert verdict_of(Eventually(P)) is Verdict.INCONCLUSIVE
