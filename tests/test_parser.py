"""Grammar, precedence, rendering, and round-trip behavior."""

import json
import random
import re
import sys
import tracemalloc

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
    evaluate_lasso,
    parse,
    parse_written,
    render,
    verdict_of,
)
from ltlguard.cli import main
from ltlguard.ltl.ast import SYNTAX, same
from ltlguard.monitor import REFERENCE
from helpers import DEFAULT_PROPS, props_of, random_formula


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
                    assert props_of(built) <= cache.props(built)

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


def deep(cls, n):
    """The text of ``n`` nested ``X``s around ``p``, or of an ``n``-operand
    chain of ``cls``, and the plain tree it parses to."""
    if cls is Next:
        phi = Prop("p")
        for _ in range(n):
            phi = Next(phi)
        return "X " * n + "p", phi
    props = [Prop(f"p{i}") for i in range(n)]
    phi = props[-1]
    for prop in reversed(props[:-1]):
        phi = cls(prop, phi)
    return f" {SYNTAX[cls].ascii} ".join(p.name for p in props), phi


def spelled(cls, n, style):
    """``deep(cls, n)``'s tree as ``render`` spells it in ``style``."""
    syntax = SYNTAX[cls]
    if cls is Next:
        if style == "english":
            return syntax.english.format("") * n + "p must hold"
        return f"{getattr(syntax, style)} " * n + "p"
    names = [f"p{i}" for i in range(n)]
    if style == "english":
        opening = "".join(syntax.english.format(name, "\0").split("\0")[0] for name in names[:-1])
        return f"{opening}{names[-1]}{')' * (n - 1)} must hold"
    return f" {getattr(syntax, style)} ".join(names)


def peak_mib(call):
    """The peak of the memory traced while ``call()`` runs, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def operands(phi):
    """The operands of ``phi``'s right-nested ``|`` chain, or ``[phi]``."""
    out = []
    while type(phi) is Or:
        out.append(phi.left)
        phi = phi.right
    return [*out, phi]


def closed_form(cls, n, built, draws):
    """For each of ``draws``, the operands of the residual of ``built``, the
    automaton's node of ``deep(cls, n)``, after that step, worked out from
    the labels alone."""
    if cls is Next:  # X^n p steps to X^(n-k) p
        out = []
        for _ in draws:
            built = built.child
            out.append([built])
        return out
    names, first = [f"p{i}" for i in range(n)], draws[0]
    if cls is And:
        return [[TRUE if all(name in first for name in names) else FALSE]] * len(draws)
    if cls is Or:
        return [[TRUE if any(name in first for name in names) else FALSE]] * len(draws)
    if cls is Implies:
        holds = names[-1] in first or not all(name in first for name in names[:-1])
        return [[TRUE if holds else FALSE]] * len(draws)
    # p0 U (p1 U ...): the residual is the disjunction of the suffix chains
    # ``suffixes[j]`` for j in ``live``, in descending order.  It is true
    # once the last operand holds, and false once no suffix lives on.
    suffixes = [built]
    while type(suffixes[-1]) is Until:
        suffixes.append(suffixes[-1].right)
    out, live = [], [0]
    for labels in draws:
        if live in ([TRUE], [FALSE]):
            pass
        elif names[-1] in labels:
            live = [TRUE]
        else:
            live = [j for j in range(n - 2, live[-1] - 1, -1) if names[j] in labels] or [FALSE]
        out.append(live if live in ([TRUE], [FALSE]) else [suffixes[j] for j in live])
    return out


class TestDeepInput:
    """No depth or length meets Python's recursion limit: the parser keeps
    its own stacks, and every other walk of a formula, ``==`` and ``hash``
    included, outside the reference engine, is ``fold`` or keeps its own
    stack.  The reference engine walks an ``&``/``|`` chain along its
    spine, so only its other nesting meets the limit."""

    N = 10_000
    # Building a binary chain in an automaton walks the spine below each new
    # node, so it costs time quadratic in the chain's length, though memory
    # linear in its nodes; chains meet an automaton at this length until
    # chains are one node (ROADMAP item 2).
    CHAIN = 2_000
    CLASSES = [Next, And, Or, Implies, Until]

    def assert_renders(self, cls, phi):
        for style in ("ascii", "symbolic", "english"):
            assert render(phi, style) == spelled(cls, self.N, style), style

    def test_nested_next(self):
        text, expected = deep(Next, self.N)
        assert same(parse(text), expected)
        assert same(parse(text, ProgressionCache()), expected)
        self.assert_renders(Next, expected)

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_equality_and_hash(self, cls):
        text, phi = deep(cls, self.N)
        copy = deep(cls, self.N)[1]
        assert copy is not phi and copy == phi and hash(copy) == hash(phi)
        other = parse(text.rpartition(" ")[0] + " other")  # another last proposition
        assert other != phi and not other == phi

    def test_nested_parentheses(self):
        text = "(" * self.N + "p" + ")" * self.N
        assert parse(text) == Prop("p")
        cache = ProgressionCache()
        assert parse(text, cache) is cache.build(Prop, "p")

    @pytest.mark.parametrize("cls", [And, Or, Implies, Until], ids=lambda cls: cls.__name__)
    def test_chain_is_right_nested(self, cls):
        text, expected = deep(cls, self.N)
        phi, written = parse_written(text)
        assert same(phi, expected)
        assert written == {f"p{i}" for i in range(self.N)}
        self.assert_renders(cls, phi)

    @pytest.mark.parametrize("n", ["long", 300])
    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_automaton_steps_in_closed_form(self, cls, n):
        n = (self.N if cls is Next else self.CHAIN) if n == "long" else n
        text, phi = deep(cls, n)
        cache = ProgressionCache()
        built = cache.normalize(phi)
        assert same(built, phi)
        start = None
        # The reference engine recurses through ``X``, ``->`` and ``U``, and
        # finds an ``&``/``|`` chain's repeats in time quadratic in its width.
        if n == 300:
            assert parse(text, cache) is built
            start = REFERENCE.normalize(phi)
        rng = random.Random(n)
        names = ["p"] if cls is Next else [f"p{i}" for i in range(n)]
        sparse = names[:3] + names[-2:-1]
        # Each run starts with a dense label set, which decides a boolean
        # chain either way, or with the sparse names; nine seeded sparse sets
        # follow.  A U chain never meets a set of most names but the last,
        # which would make its residual quadratic in its length.
        firsts = [frozenset(names), frozenset(), frozenset(sparse)]
        if cls is not Until:
            firsts.append(frozenset(names[:-1]))
        for first in firsts:
            draws = [first, *(frozenset(p for p in sparse if rng.random() < 0.6) for _ in range(9))]
            residual, reference = built, start
            for labels, expected in zip(draws, closed_form(cls, n, built, draws)):
                residual, verdict = cache.transition(residual, labels)
                assert [id(x) for x in operands(residual)] == [id(x) for x in expected]
                assert verdict is verdict_of(residual)
                if reference is not None:
                    reference, reference_verdict = REFERENCE.transition(reference, labels)
                    assert same(residual, reference) and verdict is reference_verdict

    @pytest.mark.parametrize("cls", [And, Or], ids=lambda cls: cls.__name__)
    def test_reference_steps_wide_chain(self, cls):
        n = 1_000
        text, phi = deep(cls, n)
        cache = ProgressionCache()
        built = parse(text, cache)
        names = [f"p{i}" for i in range(n)]
        for labels in (frozenset(names), frozenset(), frozenset(names[:-1]), frozenset(names[-1:])):
            assert REFERENCE.transition(phi, labels) == cache.transition(built, labels)

    def test_reference_nests_a_chain_as_one_level(self):
        # The reference engine recurses once per node on a path, so
        # ``!(p & !(p & …))`` nested to 2/5 of the recursion limit takes 4/5
        # of it; a chain that took a frame of its own would take 6/5.
        levels = sys.getrecursionlimit() * 2 // 5
        text = "!(p & " * levels + "p" + ")" * levels
        cache = ProgressionCache()
        phi, built = parse(text), parse(text, cache)
        labels = frozenset({"p"})  # ``false`` would decide each ``&`` at its first operand
        assert REFERENCE.transition(phi, labels) == cache.transition(built, labels)

    def test_lasso_evaluates_deep_formulas(self):
        assert evaluate_lasso(deep(Next, self.N)[1], [], [frozenset({"p"})])
        assert evaluate_lasso(deep(Until, self.N)[1], [], [frozenset({f"p{self.N - 1}"})])

    def test_chain_memory_is_linear_in_nodes(self):
        # An automaton keeps names per state, not per node: a node that kept
        # its propositions would make each chain's memory quadratic.  The
        # step of a U chain on every name but the last builds about n²/2
        # nodes.
        text, _ = deep(And, 500)
        assert peak_mib(lambda: parse(text, ProgressionCache())) < 2
        text, _ = deep(Until, 200)
        cache = ProgressionCache()
        phi = parse(text, cache)
        labels = frozenset(f"p{i}" for i in range(199))
        assert peak_mib(lambda: cache.transition(phi, labels)) < 16

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_parse_command(self, cls, capsys):
        # The AST dump is as deep as the formula and about 3.1·d² bytes, so
        # 1,000 deep; the head before it is read alone, as ``json.loads``
        # recurses.
        n = 1_000
        assert main(["parse", deep(cls, n)[0]]) == 0
        out = capsys.readouterr().out
        head, _, dump = out.partition(',\n  "ast": ')
        document = json.loads(head + "}")
        assert document["canonical"] == document["parsed"] == spelled(cls, n, "ascii")
        assert dump.count(f'"kind": "{SYNTAX[cls].kind}"') == (n if cls is Next else n - 1)
        assert dump.count('"kind": "prop"') == (1 if cls is Next else n)


class TestFuzzedParseOutcomes:
    """Random strings over the formula alphabet and its faults, each parsed
    plain and into an automaton."""

    PIECES = (
        "p", "q_1", "G", "F", "X", "U", "true", "false", "Gp", "!", "&", "|", "->",
        "¬", "∧", "∨", "→", "□", "◇", "○", "(", ")", " ", "\n", "\t", "\r", "%", "-",
    )
    GAPS = (" ", " ", "", "\n", "\t", "\r")

    def random_text(self, rng: random.Random) -> str:
        """Random pieces, or a rendered random formula with random gaps and,
        half the time, one random piece spliced in."""
        if rng.random() < 0.5:
            return "".join(rng.choice(self.PIECES) for _ in range(rng.randint(0, 12)))
        text = render(random_formula(rng, rng.randint(0, 4)), rng.choice(("ascii", "symbolic")))
        text = "".join(rng.choice(self.GAPS) if c == " " else c for c in text)
        if rng.random() < 0.5:
            i = rng.randint(0, len(text))
            text = text[:i] + rng.choice(self.PIECES) + text[i + rng.randint(0, 1) :]
        return text

    def test_plain_and_automaton_agree_and_errors_point_at_their_token(self):
        rng = random.Random(30)
        cache = ProgressionCache()
        errors = 0
        for _ in range(20_000):
            text = self.random_text(rng)
            try:
                plain, plain_written = parse_written(text)
            except ParseError as err:
                errors += 1
                with pytest.raises(ParseError) as built:
                    parse_written(text, cache)
                fields = ("args", "line", "column", "expected", "text")
                assert [getattr(built.value, f) for f in fields] == [getattr(err, f) for f in fields]
                assert err.text == text
                # The caret's invariant: the line holds the token at the column.
                lines = text.split("\n")
                line, message = lines[err.line - 1], str(err)
                at = line[err.column - 1 :]
                if at:
                    quoted = re.match(r"(?:unexpected|unknown operator or character) '(.+?)'", message)
                    assert not at[0].isspace() and "end of input" not in message
                    assert at.startswith(quoted[1]) if quoted else message.startswith("unbalanced parentheses")
                else:
                    assert (err.line, err.column) == (len(lines), len(line) + 1)
                    assert message.startswith(("unexpected end of input", "unbalanced parentheses"))
            else:
                built, built_written = parse_written(text, cache)
                assert built is cache.normalize(plain)
                assert built_written == plain_written
        assert 5_000 < errors < 15_000, errors


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
