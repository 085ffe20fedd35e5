"""Progression rules, simplification, and verdict extraction."""

import random

import pytest

from ltlguard import monitor
from ltlguard.ltl import (
    FALSE,
    TRUE,
    And,
    Always,
    Eventually,
    FalseBool,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    ProgressionCache,
    TrueBool,
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

    def test_fresh_constants(self):
        assert verdict_of(FalseBool()) is Verdict.VIOLATED
        assert verdict_of(TrueBool()) is Verdict.SATISFIED


def with_operand(cls, position, operand):
    """``cls`` over ``p`` and ``q``, with ``operand`` at field ``position``."""
    fields = [P, Q][: len(cls.__match_args__)]
    fields[position] = operand
    return cls(*fields)


OPERAND_POSITIONS = [
    (cls, position)
    for cls in (Not, And, Or, Implies, Next, Until, Eventually, Always)
    for position in range(len(cls.__match_args__))
]


class TestFreshConstants:
    """Any ``TrueBool``/``FalseBool`` instance is that constant, as under
    structural ``==``: a fresh instance at any operand position, directly or
    beside a chain, rewrites as the singleton does."""

    @pytest.mark.parametrize("cls, position", OPERAND_POSITIONS)
    @pytest.mark.parametrize("constant", [TRUE, FALSE], ids=["true", "false"])
    @pytest.mark.parametrize("chained", [False, True], ids=["direct", "beside-chain"])
    def test_simplify_and_progress(self, cls, position, constant, chained):
        def build(operand):
            if chained:
                # Beside a chain, so that the two are flattened together.
                kind = cls if cls in (And, Or) else And
                operand = kind(kind(P, Q), operand)
            return with_operand(cls, position, operand)

        fresh, singleton = build(type(constant)()), build(constant)
        assert simplify(fresh) == simplify(singleton)
        for sigma in (EMPTY, frozenset({"p"}), frozenset({"p", "q"})):
            assert progress(fresh, sigma) == progress(singleton, sigma)
            residual = simplify(progress(fresh, sigma))
            assert residual == simplify(progress(singleton, sigma))
            assert verdict_of(residual) is verdict_of(simplify(progress(singleton, sigma)))
            assert ProgressionCache().transition(fresh, sigma) == (residual, verdict_of(residual))

    def test_absorbing_and_unit_results_are_the_singletons(self):
        t, f = TrueBool(), FalseBool()
        assert simplify(And(P, f)) is FALSE
        assert simplify(Or(t, P)) is TRUE
        assert simplify(And(t, TrueBool())) is TRUE
        assert simplify(Or(f, And(FalseBool(), Q))) is FALSE
        assert simplify(Not(t)) is FALSE
        assert simplify(Not(f)) is TRUE
        assert simplify(Implies(f, P)) is TRUE
        assert progress(t, EMPTY) is TRUE
        assert progress(f, EMPTY) is FALSE


class TestReferenceAgainstAutomaton:
    """``simplify(progress(...))`` and ``ProgressionCache.transition`` step
    random formulas with constant leaves along random traces in lockstep."""

    @pytest.mark.parametrize("reset", [False, True], ids=["plain", "reset"])
    def test_seeded_differential(self, reset):
        rng = random.Random(1707 + reset)
        for _ in range(150):
            phi = random_formula(rng, depth=rng.randint(1, 5), props=DEFAULT_PROPS[:3])
            cache = ProgressionCache()
            objective = reference = simplify(phi)
            compiled = cache.normalize(phi)
            assert compiled == reference
            for _ in range(25):
                labels = random_assignment(rng, DEFAULT_PROPS[:3])
                reference = simplify(progress(reference, labels))
                compiled, verdict = cache.transition(compiled, labels)
                assert compiled == reference, phi
                assert verdict is verdict_of(reference), phi
                if verdict is not Verdict.INCONCLUSIVE:
                    if not reset:
                        break
                    reference, compiled = objective, cache.normalize(objective)


class TestMonitorReferenceLookup:
    def test_rebound_names_reach_the_reference_engine(self, monkeypatch):
        # The traced benchmark times the reference by rebinding these two
        # module globals; the reference engine must look them up per call.
        calls = []

        def spy(name, function):
            def wrapper(*args):
                calls.append(name)
                return function(*args)

            return wrapper

        monkeypatch.setattr(monitor, "progress", spy("progress", progress))
        monkeypatch.setattr(monitor, "simplify", spy("simplify", simplify))
        residual, verdict = monitor.REFERENCE.transition(Always(P), frozenset({"p"}))
        assert (residual, verdict) == (Always(P), Verdict.INCONCLUSIVE)
        assert calls == ["progress", "simplify"]
        assert monitor.REFERENCE.normalize(And(TRUE, P)) == P
        assert calls[2:] == ["simplify"]
