"""Benchmark generators, event labeling, pattern table, and judge harness."""

import pytest

from ltlguard.ltl import Verdict, parse, render
from ltlguard.monitor import run_monitor
from ltlguard.synthbench import (
    LEVELS,
    AttributeEventLabeler,
    CoinFlipJudge,
    GenerationError,
    MonitorOracleJudge,
    PATTERN_IDS,
    UnknownPatternError,
    eval_judge,
    extract_embedded_path,
    gen_constraint_scaling,
    gen_elasticity,
    gen_proposition_scaling,
    load_cases,
    load_vocabulary,
    pattern_formula,
    prompt_for_case,
    render_constraint,
    save_cases,
)
from ltlguard.synthbench.events import CATEGORIES
from ltlguard.synthbench.generator import _build_case
from ltlguard.synthbench.judge import constraint_text
from ltlguard.synthbench.patterns import _TREE_D4_LABELS
from ltlguard.trace import StepRecord


def monitor_satisfied(case):
    constraints = {c.constraint_id: c.formula for c in case.constraints}
    reports = run_monitor(case.trace, constraints, mode="plain")
    by_id = {r.constraint_id: r for r in reports}
    return [
        any(v is Verdict.SATISFIED for v in by_id[c.constraint_id].verdicts)
        for c in case.constraints
    ]


def monitor_never_violated(case):
    constraints = {c.constraint_id: c.formula for c in case.constraints}
    reports = run_monitor(case.trace, constraints, mode="plain")
    return all(
        all(v is not Verdict.VIOLATED for v in report.verdicts) for report in reports
    )


class TestVocabulary:
    def test_committed_sizes(self):
        vocab = load_vocabulary()
        assert len(vocab["animal"]) == 30
        assert len(vocab["shape"]) == 20
        assert len(vocab["color"]) == 20
        assert vocab["number"] == tuple(range(1, 101))

    def test_disjoint_word_lists(self):
        vocab = load_vocabulary()
        assert not set(vocab["animal"]) & set(vocab["shape"])
        assert not set(vocab["animal"]) & set(vocab["color"])
        assert not set(vocab["shape"]) & set(vocab["color"])

    def test_read_only_mapping_in_category_order(self):
        vocab = load_vocabulary()
        assert tuple(vocab) == CATEGORIES
        with pytest.raises(TypeError):
            vocab["animal"] = ("cat",)


class TestAttributeEventLabeler:
    def test_example_sentence(self):
        labeler = AttributeEventLabeler()
        steps = [StepRecord(1, "", "Observed a red oval (number 19) alongside a deer.")]
        assert labeler(steps) == frozenset(
            {"color_red", "shape_oval", "animal_deer", "number_19"}
        )

    def test_multi_entity_sentence(self):
        labeler = AttributeEventLabeler(entities=2)
        text = (
            "Entity 1: a red heart (number 57) beside a wolf. "
            "Entity 2: observed a silver arrow numbered 4 and a falcon."
        )
        labels = labeler([StepRecord(1, "", text)])
        assert "e1_color_red" in labels
        assert "e1_animal_wolf" in labels
        assert "e2_shape_arrow" in labels
        assert "e2_number_4" in labels
        assert len(labels) == 8

    def test_unknown_words_yield_nothing(self):
        labeler = AttributeEventLabeler()
        assert labeler([StepRecord(1, "", "nothing to see here")]) == frozenset()


class TestElasticity:
    @pytest.mark.parametrize("family", ["simple", "complex"])
    def test_balanced_batch(self, family):
        cases = gen_elasticity(gap=5, family=family, seed=0, count=8)
        assert len(cases) == 8
        assert sum(case.truth[0] for case in cases) == 4

    def test_minimal_gap_satisfies_at_fulfillment_step(self):
        (case,) = gen_elasticity(gap=1, family="simple", seed=3, count=1)
        assert case.truth == (True,)
        (report,) = run_monitor(
            case.trace, {"c1": case.constraints[0].formula}, mode="plain"
        )
        satisfied_at = report.verdicts.index(Verdict.SATISFIED) + 1
        trigger, fulfill = case.constraints[0].path
        label_steps = [s.t for s in case.trace.steps if fulfill in s.labels]
        assert label_steps == [satisfied_at]
        trigger_steps = [s.t for s in case.trace.steps if trigger in s.labels]
        assert trigger_steps == [satisfied_at - 1]

    def test_gap_places_events_exactly(self):
        for gap in (1, 7, 40):
            cases = gen_elasticity(gap=gap, family="simple", seed=1, count=2)
            satisfied = cases[0]
            trigger, fulfill = satisfied.constraints[0].path
            t_trigger = next(s.t for s in satisfied.trace.steps if trigger in s.labels)
            t_fulfill = next(s.t for s in satisfied.trace.steps if fulfill in s.labels)
            assert t_fulfill - t_trigger == gap

    def test_unsatisfied_case_is_inconclusive_to_the_end(self):
        cases = gen_elasticity(gap=10, family="simple", seed=2, count=2)
        unsatisfied = cases[1]
        assert unsatisfied.truth == (False,)
        (report,) = run_monitor(
            unsatisfied.trace, {"c1": unsatisfied.constraints[0].formula}, mode="plain"
        )
        assert all(v is Verdict.INCONCLUSIVE for v in report.verdicts)

    def test_trace_length_grows_with_gap(self):
        short = gen_elasticity(gap=1, family="simple", seed=4, count=1)[0]
        long = gen_elasticity(gap=100, family="simple", seed=4, count=1)[0]
        assert len(long.trace) > len(short.trace)

    def test_monitor_agreement_both_families(self):
        for family in ("simple", "complex"):
            for case in gen_elasticity(gap=4, family=family, seed=5, count=6):
                assert monitor_satisfied(case) == list(case.truth)
                assert monitor_never_violated(case)

    def test_invalid_gap(self):
        with pytest.raises(GenerationError, match="gap"):
            gen_elasticity(gap=0, family="simple", seed=0, count=2)
        with pytest.raises(GenerationError, match="gap"):
            gen_elasticity(gap=1001, family="simple", seed=0, count=2)


class TestConstraintScaling:
    def test_single_constraint(self):
        case = gen_constraint_scaling(1, "simple", seed=0)
        assert len(case.constraints) == 1
        assert len(case.truth) == 1
        assert len(case.trace) == 500

    def test_simple_defaults(self):
        case = gen_constraint_scaling(5, "simple", seed=1)
        assert case.knobs["gap"] == 10
        assert len(case.trace) == 500

    def test_complex_gap_schedule(self):
        assert gen_constraint_scaling(1, "complex", seed=0).knobs["gap"] == 23
        assert gen_constraint_scaling(5, "complex", seed=0).knobs["gap"] == 117
        assert gen_constraint_scaling(10, "complex", seed=0).knobs["gap"] == 91
        assert gen_constraint_scaling(20, "complex", seed=0).knobs["gap"] == 40
        assert gen_constraint_scaling(7, "complex", seed=0).knobs["gap"] == 117
        assert len(gen_constraint_scaling(5, "complex", seed=0).trace) == 1000

    def test_gap_override(self):
        case = gen_constraint_scaling(3, "complex", seed=0, gap=15)
        assert case.knobs["gap"] == 15

    def test_deterministic_truth_vector(self):
        a = gen_constraint_scaling(20, "simple", seed=9)
        b = gen_constraint_scaling(20, "simple", seed=9)
        assert a.truth == b.truth

    def test_empirical_truth_balance(self):
        hits = total = 0
        for seed in range(100):
            case = gen_constraint_scaling(4, "simple", seed=seed)
            hits += sum(case.truth)
            total += len(case.truth)
        assert abs(hits / total - 0.5) <= 0.15

    def test_disjoint_target_propositions(self):
        case = gen_constraint_scaling(20, "simple", seed=3)
        seen = set()
        for constraint in case.constraints:
            overlap = seen & set(constraint.path)
            assert not overlap
            seen |= set(constraint.path)

    def test_monitor_agreement_simple_n20(self):
        case = gen_constraint_scaling(20, "simple", seed=11)
        assert monitor_satisfied(case) == list(case.truth)

    def test_monitor_agreement_complex_n20(self):
        case = gen_constraint_scaling(20, "complex", seed=12)
        assert monitor_satisfied(case) == list(case.truth)
        assert monitor_never_violated(case)

    def test_out_of_range(self):
        with pytest.raises(GenerationError):
            gen_constraint_scaling(0, "simple", seed=0)
        with pytest.raises(GenerationError):
            gen_constraint_scaling(21, "simple", seed=0)


class TestPropositionScaling:
    def test_entities_and_label_counts(self):
        case = gen_proposition_scaling(3, "simple", seed=0)
        assert all(len(s.labels) == 12 for s in case.trace.steps)
        assert len(case.trace) == 100

    def test_single_entity_is_tagged(self):
        case = gen_proposition_scaling(1, "simple", seed=0)
        assert all(len(s.labels) == 4 for s in case.trace.steps)
        assert all(p.startswith("e1_") for s in case.trace.steps for p in s.labels)

    def test_constraint_targets_entities(self):
        case = gen_proposition_scaling(5, "simple", seed=2)
        assert all(p.startswith("e") for p in case.constraints[0].path)

    def test_monitor_agreement(self):
        for family in ("simple", "complex"):
            for seed in range(6):
                case = gen_proposition_scaling(3, family, seed=seed)
                assert monitor_satisfied(case) == list(case.truth)

    def test_event_labeler_reproduces_embedded_labels(self):
        case = gen_proposition_scaling(3, "simple", seed=4)
        labeler = AttributeEventLabeler(entities=3, tagged=True)
        for i, record in enumerate(case.trace.steps):
            assert labeler(case.trace.steps[: i + 1]) == record.labels

    def test_invalid_entities(self):
        with pytest.raises(GenerationError):
            gen_proposition_scaling(0, "simple", seed=0)

    @pytest.mark.parametrize("gap", [0, -3])
    def test_scaling_suites_reject_gap_below_one(self, gap):
        # A gap below 1 stacks the path events on one step, so the
        # construction truth would no longer be what the monitor finds.
        with pytest.raises(GenerationError, match="gap"):
            gen_constraint_scaling(2, "simple", seed=1, gap=gap)
        with pytest.raises(GenerationError, match="gap"):
            gen_proposition_scaling(2, "simple", seed=1, gap=gap)


class TestBuiltFromKnobs:
    """A case is built from its knobs alone; knobs that no case can be built
    from raise ``GenerationError``."""

    def test_unknown_family(self):
        for generate in (
            lambda: gen_elasticity(gap=3, family="medium", seed=0, count=1),
            lambda: gen_constraint_scaling(2, "medium", seed=0),
            lambda: gen_proposition_scaling(2, "medium", seed=0),
        ):
            with pytest.raises(GenerationError, match="unknown formula family 'medium'"):
                generate()

    def test_trace_too_short_for_gap(self):
        with pytest.raises(GenerationError, match="trace length 30 cannot accommodate 6 events 10 steps apart"):
            gen_constraint_scaling(1, "complex", seed=0, gap=10, length=30)
        with pytest.raises(GenerationError, match="trace length 5 cannot accommodate 2 events 10 steps apart"):
            gen_proposition_scaling(1, "simple", seed=0, length=5)

    def test_too_many_targets_for_vocabulary(self):
        # The public generators cap n at 20; 21 complex paths of 6 values
        # need more than the 122 values left once the alternatives are reserved.
        knobs = {"suite": "constraint", "family": "complex", "n": 21, "gap": 40, "length": 1000, "seed": 0}
        with pytest.raises(GenerationError, match="21 complex constraints need 126 target values; vocabulary provides 122"):
            _build_case(knobs)

    def test_knobs_are_the_recorded_parameters(self):
        case = gen_constraint_scaling(3, "complex", seed=4, gap=12, length=400)
        assert case.knobs == case.trace.metadata
        assert _build_case(case.knobs).to_dict() == case.to_dict()


class TestJudgeInputs:
    def test_no_cases_score_no_judgments(self):
        report = eval_judge([], MonitorOracleJudge()).to_dict()
        empty = {"accuracy": 0.0, "half_width": 0.0, "judgments": 0, "parse_failures": 0}
        assert report == {"overall": empty, "by_knob": {}}

    def test_unknown_specification_level(self):
        case = gen_elasticity(gap=3, family="simple", seed=0, count=1)[0]
        with pytest.raises(ValueError, match="unknown specification level 'vague'"):
            constraint_text(case, 0, "vague")


class TestComplexTreeStructure:
    def test_sixteen_paths_share_leaf(self):
        case = gen_constraint_scaling(1, "complex", seed=5)
        constraint = case.constraints[0]
        assert len(constraint.tree_paths) == 16
        leaves = {path[-1] for path in constraint.tree_paths}
        assert leaves == {constraint.path[-1]}
        assert all(len(path) == 6 for path in constraint.tree_paths)

    def test_satisfied_trace_embeds_designated_path(self):
        for seed in range(8):
            case = gen_constraint_scaling(1, "complex", seed=seed)
            constraint = case.constraints[0]
            label_sets = [s.labels for s in case.trace.steps]
            embedded = extract_embedded_path(constraint.tree_paths, label_sets)
            if case.truth[0]:
                assert embedded == constraint.path
            else:
                assert embedded is None

    def test_alternative_branches_never_occur(self):
        case = gen_constraint_scaling(2, "complex", seed=6)
        trace_props = set().union(*(s.labels for s in case.trace.steps))
        for constraint in case.constraints:
            branch_props = {p for path in constraint.tree_paths for p in path}
            off_path = branch_props - set(constraint.path)
            assert not off_path & trace_props

    def test_formula_round_trips_through_parser(self):
        case = gen_constraint_scaling(1, "complex", seed=7)
        formula = case.constraints[0].formula
        assert parse(render(formula, "ascii")) == formula


class TestSerialization:
    def test_case_round_trip(self, tmp_path):
        cases = gen_elasticity(gap=3, family="complex", seed=8, count=2)
        path = tmp_path / "bench.jsonl"
        save_cases(cases, path)
        loaded = load_cases(path)
        assert len(loaded) == 2
        assert loaded[0].truth == cases[0].truth
        assert loaded[0].constraints == cases[0].constraints
        assert loaded[0].trace.steps == cases[0].trace.steps

    def test_byte_identical_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_cases(gen_elasticity(gap=6, family="simple", seed=13, count=4), a)
        save_cases(gen_elasticity(gap=6, family="simple", seed=13, count=4), b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_content(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_cases(gen_elasticity(gap=6, family="simple", seed=1, count=2), a)
        save_cases(gen_elasticity(gap=6, family="simple", seed=2, count=2), b)
        assert a.read_bytes() != b.read_bytes()


D1_INFORMAL = (
    "At some point a toucan should appear, followed by either a crane or a pelican, and "
    "then a deer."
)

D1_PRECISE = (
    "At some time step, a toucan must appear, and then at some strictly later time step, "
    "either: (a crane appears, and then at some strictly later time step, a deer "
    "appears) or (a pelican appears, and then at some strictly later time step, a deer "
    "appears)."
)

D1_LTL = (
    "F(animal_toucan & X F(animal_crane & X F animal_deer | animal_pelican & X F "
    "animal_deer))"
)

D4_INFORMAL = (
    "At some point a toucan should appear, followed by either a pelican or a crane. Each "
    "branch splits again in the same way, four levels deep. Everything ends with a deer."
)

D4_PRECISE = (
    "At some time step, a toucan appears, and then at some strictly later time step, "
    "either: (a pelican appears, and then at some strictly later time step, either: (a "
    "parrot appears, and then at some strictly later time step, either: (a heron "
    "appears, and then at some strictly later time step, either: (an ibis appears, and "
    "then at some strictly later time step, a deer appears) or (a raven appears, and "
    "then at some strictly later time step, a deer appears)) or (a stork appears, and "
    "then at some strictly later time step, either: (a puffin appears, and then at some "
    "strictly later time step, a deer appears) or (a marten appears, and then at some "
    "strictly later time step, a deer appears))) or (a weasel appears, and then at some "
    "strictly later time step, either: (a jackal appears, and then at some strictly "
    "later time step, either: (a lemur appears, and then at some strictly later time "
    "step, a deer appears) or (a salmon appears, and then at some strictly later time "
    "step, a deer appears)) or (an owl appears, and then at some strictly later time "
    "step, either: (a fox appears, and then at some strictly later time step, a deer "
    "appears) or (an otter appears, and then at some strictly later time step, a deer "
    "appears)))) or (a crane appears, and then at some strictly later time step, either: "
    "(a badger appears, and then at some strictly later time step, either: (a lynx "
    "appears, and then at some strictly later time step, either: (a viper appears, and "
    "then at some strictly later time step, a deer appears) or (a gecko appears, and "
    "then at some strictly later time step, a deer appears)) or (a bison appears, and "
    "then at some strictly later time step, either: (a moose appears, and then at some "
    "strictly later time step, a deer appears) or (a gibbon appears, and then at some "
    "strictly later time step, a deer appears))) or (a hawk appears, and then at some "
    "strictly later time step, either: (a falcon appears, and then at some strictly "
    "later time step, either: (a koala appears, and then at some strictly later time "
    "step, a deer appears) or (a wolf appears, and then at some strictly later time "
    "step, a deer appears)) or (a wombat appears, and then at some strictly later time "
    "step, either: (a star appears, and then at some strictly later time step, a deer "
    "appears) or (a circle appears, and then at some strictly later time step, a deer "
    "appears))))."
)

D4_LTL = (
    "F(animal_toucan & X F(animal_pelican & X F(animal_parrot & X F(animal_heron & X "
    "F(animal_ibis & X F animal_deer | animal_raven & X F animal_deer) | animal_stork & "
    "X F(animal_puffin & X F animal_deer | animal_marten & X F animal_deer)) | "
    "animal_weasel & X F(animal_jackal & X F(animal_lemur & X F animal_deer | "
    "animal_salmon & X F animal_deer) | animal_owl & X F(animal_fox & X F animal_deer | "
    "animal_otter & X F animal_deer))) | animal_crane & X F(animal_badger & X "
    "F(animal_lynx & X F(animal_viper & X F animal_deer | animal_gecko & X F "
    "animal_deer) | animal_bison & X F(animal_moose & X F animal_deer | animal_gibbon & "
    "X F animal_deer)) | animal_hawk & X F(animal_falcon & X F(animal_koala & X F "
    "animal_deer | animal_wolf & X F animal_deer) | animal_wombat & X F(shape_star & X F "
    "animal_deer | shape_circle & X F animal_deer)))))"
)

SIMPLE_INFORMAL = (
    "Eventually the color is blue, and then eventually the number is 18."
)

SIMPLE_PRECISE = (
    "At some time step, the color is blue, and then at some strictly later time step, "
    "the number is 18."
)

COMPLEX_INFORMAL = (
    "At some point Entity 2's number is 2, followed by either Entity 2's color is indigo "
    "or Entity 1's number is 72, branching further until finally Entity 1's number is 22."
)

COMPLEX_PRECISE = (
    "At some time step, Entity 2's number is 2, and then at some strictly later time "
    "step, either: (Entity 2's color is indigo, and then at some strictly later time "
    "step, either: (Entity 2's animal is an ibis, and then at some strictly later time "
    "step, either: (Entity 1's number is 7, and then at some strictly later time step, "
    "either: (Entity 1's color is ochre, and then at some strictly later time step, "
    "Entity 1's number is 22) or (Entity 1's number is 95, and then at some strictly "
    "later time step, Entity 1's number is 22)) or (Entity 1's number is 65, and then at "
    "some strictly later time step, either: (Entity 2's number is 71, and then at some "
    "strictly later time step, Entity 1's number is 22) or (Entity 2's number is 90, and "
    "then at some strictly later time step, Entity 1's number is 22))) or (Entity 1's "
    "number is 70, and then at some strictly later time step, either: (Entity 2's number "
    "is 73, and then at some strictly later time step, either: (Entity 1's number is 78, "
    "and then at some strictly later time step, Entity 1's number is 22) or (Entity 1's "
    "number is 64, and then at some strictly later time step, Entity 1's number is 22)) "
    "or (Entity 1's number is 68, and then at some strictly later time step, either: "
    "(Entity 2's number is 91, and then at some strictly later time step, Entity 1's "
    "number is 22) or (Entity 1's number is 96, and then at some strictly later time "
    "step, Entity 1's number is 22)))) or (Entity 1's number is 72, and then at some "
    "strictly later time step, either: (Entity 2's number is 79, and then at some "
    "strictly later time step, either: (Entity 1's number is 76, and then at some "
    "strictly later time step, either: (Entity 1's number is 66, and then at some "
    "strictly later time step, Entity 1's number is 22) or (Entity 2's number is 77, and "
    "then at some strictly later time step, Entity 1's number is 22)) or (Entity 2's "
    "number is 89, and then at some strictly later time step, either: (Entity 2's number "
    "is 81, and then at some strictly later time step, Entity 1's number is 22) or "
    "(Entity 1's number is 94, and then at some strictly later time step, Entity 1's "
    "number is 22))) or (Entity 1's number is 87, and then at some strictly later time "
    "step, either: (Entity 1's number is 67, and then at some strictly later time step, "
    "either: (Entity 2's number is 75, and then at some strictly later time step, Entity "
    "1's number is 22) or (Entity 1's number is 98, and then at some strictly later time "
    "step, Entity 1's number is 22)) or (Entity 2's number is 97, and then at some "
    "strictly later time step, either: (Entity 2's number is 88, and then at some "
    "strictly later time step, Entity 1's number is 22) or (Entity 2's number is 82, and "
    "then at some strictly later time step, Entity 1's number is 22))))."
)


class TestRenderConstraint:
    def test_universality_informal(self):
        assert render_constraint("universality", "informal") == "The color is always red."

    def test_universality_substitution(self):
        text = render_constraint("universality", "informal", {"color": "teal"})
        assert text == "The color is always teal."

    def test_response_precise(self):
        text = render_constraint("response", "precise")
        assert "for every occurrence of a triangle shape" in text
        assert "the color blue must occur at the same time step or at a later time step" in text

    def test_precise_ltl_round_trips(self):
        for pattern_id in PATTERN_IDS:
            text = render_constraint(pattern_id, "precise+ltl")
            formula_line = text.rsplit("LTL: ", 1)[1]
            parse(formula_line)

    def test_unknown_pattern(self):
        with pytest.raises(UnknownPatternError):
            render_constraint("liveness_forever", "informal")

    def test_unknown_level(self):
        with pytest.raises(ValueError, match="level"):
            render_constraint("universality", "casual")


class TestTreeWording:
    """Exact wording of the stock trees and of one constraint per family.

    Texts are those the tree builder and wording produce at the default
    values and at a fixed seed.
    """

    @pytest.mark.parametrize(
        "pattern_id, informal, precise, ltl",
        [
            ("tree_b2_d1", D1_INFORMAL, D1_PRECISE, D1_LTL),
            ("tree_b2_d4", D4_INFORMAL, D4_PRECISE, D4_LTL),
        ],
    )
    def test_stock_tree_every_level(self, pattern_id, informal, precise, ltl):
        assert render_constraint(pattern_id, "informal") == informal
        assert render_constraint(pattern_id, "precise") == precise
        assert render_constraint(pattern_id, "precise+ltl") == f"{precise}\nLTL: {ltl}"

    def test_simple_constraint(self):
        constraint = gen_elasticity(gap=3, family="simple", seed=0, count=1)[0].constraints[0]
        assert constraint.informal == SIMPLE_INFORMAL
        assert constraint.precise == SIMPLE_PRECISE

    def test_complex_constraint(self):
        constraint = gen_proposition_scaling(entities=2, family="complex", seed=0).constraints[0]
        assert constraint.informal == COMPLEX_INFORMAL
        assert constraint.precise == COMPLEX_PRECISE

    @pytest.mark.parametrize("label", _TREE_D4_LABELS)
    def test_d4_root_may_be_any_stock_label(self, label):
        values = {"a": label}
        texts = [render_constraint("tree_b2_d4", level, values) for level in LEVELS]
        assert all(f" {label} " in text for text in texts)
        ltl = texts[2].rsplit("\nLTL: ", 1)[1]
        assert parse(ltl) == pattern_formula("tree_b2_d4", values)


class TestEvalJudge:
    def test_oracle_scores_one_on_every_suite(self):
        cases = (
            gen_elasticity(gap=3, family="simple", seed=0, count=4)
            + [gen_constraint_scaling(3, "simple", seed=1)]
            + [gen_proposition_scaling(2, "simple", seed=2)]
        )
        report = eval_judge(cases, MonitorOracleJudge())
        assert report.overall.accuracy == 1.0
        assert report.overall.parse_failures == 0

    def test_coin_flip_near_half_on_balanced_batch(self):
        cases = gen_elasticity(gap=2, family="simple", seed=3, count=200)
        report = eval_judge(cases, CoinFlipJudge(), seed=17)
        assert 0.38 <= report.overall.accuracy <= 0.62

    def test_multi_constraint_prompt_and_parsing(self):
        case = gen_constraint_scaling(3, "simple", seed=4)
        prompt = prompt_for_case(case)
        assert "Constraint 1:" in prompt and "Constraint 3:" in prompt
        report = eval_judge([case], CoinFlipJudge(), seed=5)
        assert report.overall.judgments == 3

    def test_missing_line_counts_as_failure(self):
        case = gen_constraint_scaling(3, "simple", seed=6)

        class PartialJudge:
            def next_output(self, history, input, params):
                return "Constraint 1: VALID\nConstraint 2: INVALID"

        report = eval_judge([case], PartialJudge())
        assert report.overall.parse_failures == 1
        assert report.overall.judgments == 3

    def test_unparseable_single_reply(self):
        case = gen_elasticity(gap=2, family="simple", seed=7, count=1)[0]

        class Mute:
            def next_output(self, history, input, params):
                return "hard to say"

        report = eval_judge([case], Mute())
        assert report.overall.parse_failures == 1
        assert report.overall.accuracy == 0.0

    def test_entity_prompt_shape(self):
        case = gen_proposition_scaling(3, "simple", seed=8)
        prompt = prompt_for_case(case)
        assert "Entity 1, Entity 2, ..., Entity 3" in prompt

    def test_by_knob_grouping(self):
        cases = gen_elasticity(gap=2, family="simple", seed=9, count=2) + gen_elasticity(
            gap=9, family="simple", seed=9, count=2
        )
        report = eval_judge(cases, MonitorOracleJudge())
        assert set(report.by_knob) == {
            "family=simple,gap=2,suite=elasticity",
            "family=simple,gap=9,suite=elasticity",
        }
