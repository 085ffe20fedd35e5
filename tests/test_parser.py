"""Grammar, precedence, rendering, and round-trip behavior."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ParseError,
    ProgressionCache,
    Prop,
    Until,
    parse,
    parse_written,
    props_of,
    render,
)
from helpers import DEFAULT_PROPS, random_formula


class TestParse:
    def test_always_implies(self):
        assert parse("G(red_light -> stop)") == Always(Implies(Prop("red_light"), Prop("stop")))

    def test_true_literal(self):
        assert parse("true") == TRUE

    def test_false_literal(self):
        assert parse("false") == FALSE

    def test_nested_eventualities(self):
        expected = Eventually(And(Prop("pickup"), Next(Eventually(Prop("putdown")))))
        assert parse("F(pickup & X F putdown)") == expected

    def test_symbolic_aliases(self):
        assert parse("□(red_light → stop)") == parse("G(red_light -> stop)")
        assert parse("◇ putdown") == Eventually(Prop("putdown"))
        assert parse("○ p ∧ ¬q ∨ r") == Or(And(Next(Prop("p")), Not(Prop("q"))), Prop("r"))

    def test_implies_right_associative(self):
        assert parse("a -> b -> c") == Implies(Prop("a"), Implies(Prop("b"), Prop("c")))

    def test_until_right_associative(self):
        assert parse("a U b U c") == Until(Prop("a"), Until(Prop("b"), Prop("c")))

    def test_until_binds_tighter_than_and(self):
        assert parse("a & b U c") == And(Prop("a"), Until(Prop("b"), Prop("c")))

    def test_unary_binds_tighter_than_until(self):
        assert parse("G a U b") == Until(Always(Prop("a")), Prop("b"))

    def test_and_binds_tighter_than_or(self):
        assert parse("a | b & c") == Or(Prop("a"), And(Prop("b"), Prop("c")))

    def test_parentheses_override(self):
        assert parse("(a | b) & c") == And(Or(Prop("a"), Prop("b")), Prop("c"))

    def test_stacked_unary(self):
        assert parse("!G p") == Not(Always(Prop("p")))
        assert parse("X F putdown") == Next(Eventually(Prop("putdown")))

    def test_numeric_proposition(self):
        assert parse("number_19") == Prop("number_19")


class TestParseIntoAutomaton:
    """``parse(text, automaton)`` builds the normalized state directly."""

    def test_equals_normalizing_the_plain_tree(self):
        rng = random.Random(1607)
        for _ in range(400):
            cache = ProgressionCache()
            for _ in range(3):  # later formulas share the automaton's nodes
                phi = random_formula(rng, depth=rng.randint(0, 5))
                for style in ("ascii", "symbolic"):
                    text = render(phi, style)
                    built, written = parse_written(text, cache)
                    assert built is cache.normalize(parse(text))
                    assert cache.normalize(built) is built
                    assert written == props_of(phi)

    def test_written_props_survive_normalizing(self):
        phi, written = parse_written("G (zzz | true) & G !bad", ProgressionCache())
        assert phi == parse("G !bad")
        assert written == {"zzz", "bad"}

    def test_errors_are_the_same(self):
        for text in ("G(", "a &", "a b", "(a", "a)", "%"):
            with pytest.raises(ParseError) as plain:
                parse(text)
            with pytest.raises(ParseError) as built:
                parse(text, ProgressionCache())
            assert (str(built.value), built.value.text) == (str(plain.value), plain.value.text)


class TestParseErrors:
    def test_missing_operand_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse("G(a ->")
        assert err.value.line == 1
        assert err.value.column == 7
        assert err.value.expected

    def test_unbalanced_open(self):
        with pytest.raises(ParseError, match="unbalanced"):
            parse("(a & b")

    def test_unbalanced_close(self):
        with pytest.raises(ParseError, match="unbalanced"):
            parse("a & b)")

    def test_unknown_operator(self):
        with pytest.raises(ParseError, match="unknown operator"):
            parse("a %% b")

    def test_trailing_tokens(self):
        with pytest.raises(ParseError, match="after formula"):
            parse("a b")

    def test_multiline_position(self):
        with pytest.raises(ParseError) as err:
            parse("a &\n  %")
        assert err.value.line == 2
        assert err.value.column == 3

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    ATOM = ("identifier", "'true'", "'false'", "'('", "'!'", "'G'", "'F'", "'X'")
    END = "unexpected end of input"

    @pytest.mark.parametrize(
        "text, message, line, column, expected",
        [
            ("", END, 1, 1, ATOM),
            ("\n\n  ", END, 3, 3, ATOM),
            ("G(a ->", END, 1, 7, ATOM),
            ("p ∧ ¬", END, 1, 6, ATOM),
            ("a U\n", END, 2, 1, ATOM),
            ("()", "unexpected ')'", 1, 2, ATOM),
            ("a ∨ ∨ b", "unexpected '∨'", 1, 5, ATOM),
            ("(a & b", "unbalanced parentheses", 1, 7, ("')'",)),
            ("□(p → ◇ q", "unbalanced parentheses", 1, 10, ("')'",)),
            ("a & b)", "unbalanced parentheses", 1, 6, ()),
            ("a\n\t& (b\n  | c))", "unbalanced parentheses", 3, 7, ()),
            ("a b", "unexpected 'b' after formula", 1, 3, ()),
            ("G p q", "unexpected 'q' after formula", 1, 5, ()),
            ("a %% b", "unknown operator or character '%'", 1, 3, ()),
            ("a &\n  %", "unknown operator or character '%'", 2, 3, ()),
            ("a -", "unknown operator or character '-'", 1, 3, ()),
        ],
    )
    def test_exact_error(self, text, message, line, column, expected):
        with pytest.raises(ParseError) as err:
            parse(text)
        detail = f"{message} at line {line}, column {column}"
        if expected:
            detail += f" (expected one of: {', '.join(expected)})"
        assert str(err.value) == detail
        assert (err.value.line, err.value.column, err.value.expected) == (line, column, expected)

    def test_reserved_prop_name_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            Prop("U")

    def test_bad_prop_charset_rejected(self):
        with pytest.raises(ValueError, match="proposition"):
            Prop("has space")


class TestRender:
    def test_ascii_always_implies(self):
        phi = Always(Implies(Prop("red_light"), Prop("stop")))
        assert render(phi, "ascii") == "G(red_light -> stop)"

    def test_ascii_nested_eventualities(self):
        phi = Eventually(And(Prop("pickup"), Next(Eventually(Prop("putdown")))))
        assert render(phi, "ascii") == "F(pickup & X F putdown)"

    def test_english_eventually(self):
        assert render(Eventually(Prop("putdown")), "english") == "eventually, putdown must hold"

    def test_english_next(self):
        assert render(Next(Prop("p")), "english") == "at the next step, p must hold"

    def test_english_always(self):
        assert render(Always(Prop("safe")), "english") == "always, safe must hold"

    def test_english_is_deterministic_template(self):
        phi = Always(Implies(Prop("red_light"), Prop("stop")))
        assert render(phi, "english") == "always, if (red_light) then (stop) must hold"

    def test_unknown_style(self):
        with pytest.raises(ValueError, match="style"):
            render(TRUE, "latex")

    @pytest.mark.parametrize("style", ["ascii", "symbolic"])
    def test_round_trip_random(self, style):
        rng = random.Random(20240817)
        for _ in range(400):
            phi = random_formula(rng, depth=5, props=DEFAULT_PROPS)
            assert parse(render(phi, style)) == phi


@st.composite
def formulas(draw, max_depth=4):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    return random_formula(random.Random(seed), depth)


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_parse_render_identity(phi):
    assert parse(render(phi, "ascii")) == phi
