"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single CRITERION line on success; run with ``-v`` (or
``-rA``) to see them.  Tolerances are pinned here and nowhere else.
"""

import itertools
import json
import random
import time

import pytest

from ltlguard.intervention import GuardedSession, InterventionPolicy, run_guarded
from ltlguard.ltl import (
    FALSE,
    TRUE,
    Verdict,
    evaluate_lasso,
    parse,
    progress,
    simplify,
)
from ltlguard.models import (
    EndpointLabeler,
    EndpointModel,
    RuleLabeler,
    ScriptedModel,
    measure_labeler_accuracy,
)
from ltlguard.monitor import ProgressionCache, new_state, run_monitor, score_f1
from ltlguard.predictive import PATTERNS, estimate_risks
from ltlguard.synthbench import (
    CoinFlipJudge,
    MonitorOracleJudge,
    eval_judge,
    gen_constraint_scaling,
    gen_elasticity,
    gen_proposition_scaling,
)
from ltlguard.trace import StepRecord, Trace, VerdictReport, apply_labeler
from helpers import random_formula, random_lasso, run_cli_process, shift_lasso
from mock_endpoint import MockEndpoint

I, S, V = Verdict.INCONCLUSIVE, Verdict.SATISFIED, Verdict.VIOLATED

BAD_LABELER = RuleLabeler(frozenset({"bad"}), {"bad": r"\bbad\b"})


def bernoulli_model(p):
    return ScriptedModel(distributions=((("bad move", p), ("ok move", 1 - p)),))


def monitor_satisfied(case):
    constraints = {c.constraint_id: c.formula for c in case.constraints}
    reports = run_monitor(case.trace, constraints, mode="plain")
    by_id = {r.constraint_id: r for r in reports}
    return [
        any(v is S for v in by_id[c.constraint_id].verdicts) for c in case.constraints
    ]


def test_criterion_1_progression_identity():
    """10,000 random (formula, lasso word) pairs; truth now iff progressed
    truth one step later.  Zero counterexamples, under 60 seconds."""
    rng = random.Random(1202)
    start = time.time()
    for _ in range(10_000):
        phi = random_formula(rng, depth=rng.randint(0, 5))
        prefix, loop = random_lasso(rng, ("p0", "p1", "p2", "p3"), max_prefix=6, max_loop=3)
        first = prefix[0] if prefix else loop[0]
        shifted_prefix, shifted_loop = shift_lasso(prefix, loop)
        assert evaluate_lasso(phi, prefix, loop) == evaluate_lasso(
            progress(phi, first), shifted_prefix, shifted_loop
        )
    elapsed = time.time() - start
    assert elapsed < 60.0, f"progression property suite took {elapsed:.1f}s"
    print(f"CRITERION 1 PASS: progression identity, 10000 pairs, {elapsed:.1f}s")


def test_criterion_2_verdict_soundness_exhaustive():
    """Terminal verdicts are sound: exhaustively, over the template formula
    family, every prefix of length <= 4 over 3 propositions, and every lasso
    continuation with loop <= 2, a Violated (Satisfied) verdict implies no
    (every) extension satisfies the formula."""
    props = ("p", "q", "r")
    assignments = [
        frozenset(c)
        for size in range(len(props) + 1)
        for c in itertools.combinations(props, size)
    ]
    loops = [list(combo) for combo in itertools.product(assignments, repeat=1)] + [
        list(combo) for combo in itertools.product(assignments, repeat=2)
    ]
    formulas = [
        parse("G p"),
        parse("F p"),
        parse("p U q"),
        parse("F(p & X F q)"),
        parse("G(p -> F q)"),
    ]
    cache = ProgressionCache()
    checked_terminals = 0

    def explore(phi, residual, prefix, depth):
        nonlocal checked_terminals
        for sigma in assignments:
            new_prefix = prefix + [sigma]
            new_residual = cache.progress_simplify(residual, sigma)
            if new_residual in (TRUE, FALSE):
                expected = new_residual == TRUE
                for loop in loops:
                    actual = evaluate_lasso(phi, new_prefix, loop)
                    assert actual is expected, (
                        f"soundness violation: {phi} after {new_prefix} is "
                        f"{'Satisfied' if expected else 'Violated'} but a lasso "
                        f"extension evaluates to {actual}"
                    )
                checked_terminals += 1
            elif depth < 4:
                explore(phi, new_residual, new_prefix, depth + 1)

    for phi in formulas:
        explore(phi, simplify(phi), [], 1)
    assert checked_terminals > 0
    print(f"CRITERION 2 PASS: verdict soundness, {checked_terminals} terminal prefixes checked")


@pytest.fixture(scope="module")
def bench_corpus():
    """40 cases per knob (10 seed groups x 4 cases), both formula families."""
    corpus = {}
    for family in ("simple", "complex"):
        for gap in (1, 10, 100, 1000):
            cases = []
            for seed in range(10):
                cases.extend(gen_elasticity(gap=gap, family=family, seed=seed, count=4))
            corpus[("elasticity", family, gap)] = cases
        for n in (1, 5, 10, 20):
            corpus[("constraint", family, n)] = [
                gen_constraint_scaling(n, family, seed=seed * 1000 + variant)
                for seed in range(10)
                for variant in range(4)
            ]
        for entities in (1, 3, 5, 10):
            corpus[("proposition", family, entities)] = [
                gen_proposition_scaling(entities, family, seed=seed * 1000 + variant)
                for seed in range(10)
                for variant in range(4)
            ]
    return corpus


def test_criterion_3_synthetic_ground_truth_agreement(bench_corpus):
    """Monitor verdicts match construction-time truth on 100% of cases in
    every suite, within the 10 minute budget."""
    start = time.time()
    total = 0
    for knob, cases in bench_corpus.items():
        assert len(cases) == 40, f"knob {knob} has {len(cases)} cases"
        for case in cases:
            assert monitor_satisfied(case) == list(case.truth), f"disagreement at {knob}"
            total += len(case.truth)
    elapsed = time.time() - start
    assert elapsed < 600.0, f"ground-truth agreement took {elapsed:.1f}s"
    print(
        f"CRITERION 3 PASS: {total} constraint instances across {len(bench_corpus)} "
        f"knobs agree with construction, {elapsed:.1f}s"
    )


def test_criterion_4_oracle_and_coinflip_judges(bench_corpus):
    """The monitor-backed oracle judge scores 1.000 on every suite; a seeded
    coin flip lands inside [0.42, 0.58] on a balanced 400-case batch."""
    oracle = MonitorOracleJudge()
    for knob, cases in bench_corpus.items():
        report = eval_judge(cases, oracle)
        assert report.overall.accuracy == 1.0, f"oracle below 1.0 on {knob}"
        assert report.overall.parse_failures == 0
    batch = []
    for seed in range(10):
        batch.extend(gen_elasticity(gap=10, family="simple", seed=100 + seed, count=40))
    assert len(batch) == 400
    assert sum(case.truth[0] for case in batch) == 200
    flip = eval_judge(batch, CoinFlipJudge(), seed=2024)
    assert 0.42 <= flip.overall.accuracy <= 0.58, flip.overall.accuracy
    print(
        f"CRITERION 4 PASS: oracle 1.000 on {len(bench_corpus)} suites; "
        f"coin flip {flip.overall.accuracy:.3f} on balanced 400"
    )


def test_criterion_5_estimator_consistency():
    """Sampling estimator matches the analytic per-step violation probability
    within 0.02 at m=10000, k=1, for p in {0.1, 0.5, 0.9}; under 30 s."""
    start = time.time()
    for p_index, p in enumerate((0.1, 0.5, 0.9)):
        state = new_state("c", parse("G !bad"))
        estimate = estimate_risks(
            {"c": state},
            bernoulli_model(p),
            BAD_LABELER,
            PATTERNS["contains_violated"],
            k=1,
            m=10_000,
            next_input="go",
            history=[],
            seed=500 + p_index,
            temperature=0.8,
        )["c"]
        assert abs(estimate.probability - p) <= 0.02, (p, estimate.probability)
    elapsed = time.time() - start
    assert elapsed < 30.0, f"estimator consistency took {elapsed:.1f}s"
    print(f"CRITERION 5 PASS: estimator within 0.02 of p in (0.1, 0.5, 0.9), {elapsed:.1f}s")


def _guard_rate(strategy, seeds, steps_per_run, substitute=None, n=5):
    violations = 0
    steps = 0
    interventions_fired = True
    for seed in seeds:
        policy = InterventionPolicy(strategy=strategy, tau=0.0, n=n, k=1, m=1)
        session = GuardedSession(
            model=bernoulli_model(0.5),
            labeler=BAD_LABELER,
            constraints={"no_bad": parse("G !bad")},
            policy=policy,
            substitute=substitute,
            seed=seed,
        )
        _, outcomes, reports = run_guarded(session, max_steps=steps_per_run, initial_input="go")
        violations += reports[0].violations
        steps += len(reports[0].verdicts)
        if strategy != "none":
            interventions_fired &= all(o.intervened for o in outcomes)
    return violations / steps, steps, interventions_fired


def test_criterion_6_intervention_efficacy():
    """At desk scale with a per-step violation probability of one half:
    best-of-5 resampling drives the rate to 0.5^5 = 0.03125 within +/-0.01
    over 10,000 trials; switching to a compliant script drives it to exactly
    zero; no intervention reproduces the baseline rate within binomial CI."""
    resample_rate, trials, fired = _guard_rate("resample", range(10), 1000)
    assert trials == 10_000 and fired
    assert abs(resample_rate - 0.5**5) <= 0.01, resample_rate

    switch_rate, _, fired = _guard_rate(
        "switch", range(2), 1000, substitute=ScriptedModel(distributions=((("ok move", 1.0),),))
    )
    assert fired and switch_rate == 0.0

    none_rate, trials, _ = _guard_rate("none", range(10), 1000)
    assert trials == 10_000
    assert abs(none_rate - 0.5) <= 0.015, none_rate
    print(
        f"CRITERION 6 PASS: resample {resample_rate:.4f} (target 0.03125), "
        f"switch {switch_rate:.4f}, baseline {none_rate:.4f}"
    )


def test_criterion_7_f1_self_consistency():
    """score_f1(report, report) is exactly 1.0 on monitor-produced fixtures,
    and the precision 0.5 / recall 1.0 case yields F1 = 2/3 exactly."""
    rng = random.Random(8)
    fixtures = []
    for _ in range(5):
        labels = [
            frozenset(p for p in ("p", "q") if rng.random() < 0.4) for _ in range(12)
        ]
        trace = Trace(
            tuple(StepRecord(i, "", f"o{i}", lab) for i, lab in enumerate(labels, 1))
        )
        fixtures.append(
            run_monitor(trace, {"a": parse("F p"), "b": parse("G(p -> F q)")}, mode="reset")
        )
    for reports in fixtures:
        result = score_f1(reports, reports)
        assert result.pooled.f1 == 1.0
        assert all(s.f1 == 1.0 for s in result.per_constraint.values())

    truth = [VerdictReport("c", (I, V, I, I), 1, 0)]
    predicted = [VerdictReport("c", (V, V, I, I), 2, 0)]
    result = score_f1(predicted, truth)
    assert result.pooled.precision == 0.5
    assert result.pooled.recall == 1.0
    assert result.pooled.f1 == pytest.approx(2 / 3, abs=1e-15)
    print("CRITERION 7 PASS: F1 self-consistency and exact 2/3 arithmetic")


def test_criterion_8_cli_determinism(tmp_path):
    """Every CLI command, run twice with identical flags and seeds, produces
    byte-identical machine outputs."""
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "constraints": [
                    {"id": "no_bad", "formula": "G !bad", "gloss": "never act badly"}
                ],
                "labeler": {
                    "type": "rule",
                    "vocabulary": ["bad"],
                    "rules": {"bad": r"\bbad\b"},
                },
                "model": {
                    "type": "scripted",
                    "distributions": [[["bad move", 0.5], ["ok move", 0.5]]],
                },
                "substitute_model": {
                    "type": "scripted",
                    "distributions": [[["ok move", 1.0]]],
                },
                "policy": {"strategy": "resample", "tau": 0.3, "n": 3, "k": 1, "m": 2},
                "seed": 5,
                "initial_input": "begin",
            }
        ),
        encoding="utf-8",
    )
    trace = tmp_path / "trace.jsonl"
    trace.write_text(
        "\n".join(
            json.dumps({"t": t, "input": "", "output": out})
            for t, out in enumerate(["fine", "a bad move", "fine"], 1)
        )
        + "\n",
        encoding="utf-8",
    )
    steps_file = tmp_path / "steps.txt"
    steps_file.write_text("pickup\nputdown\n", encoding="utf-8")

    outputs = []
    for round_name in ("r1", "r2"):
        workdir = tmp_path / round_name
        workdir.mkdir()
        collected = {}
        proc = run_cli_process(["parse", "G(a -> F b)"], cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        collected["parse"] = proc.stdout
        proc = run_cli_process(
            ["progress", "F(pickup & X F putdown)", "--steps-file", str(steps_file)],
            cwd=workdir,
        )
        assert proc.returncode == 0, proc.stderr
        collected["progress"] = proc.stdout
        proc = run_cli_process(
            ["audit", str(trace), "--config", str(config), "--out", "report.json"],
            cwd=workdir,
        )
        assert proc.returncode == 1, proc.stderr
        collected["audit"] = (workdir / "report.json").read_bytes()
        proc = run_cli_process(
            ["guard", "--config", str(config), "--max-steps", "6", "--seed", "9",
             "--out-dir", "guard"],
            cwd=workdir,
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("trace.jsonl", "guard_log.jsonl", "reports.json"):
            collected[f"guard/{name}"] = (workdir / "guard" / name).read_bytes()
        proc = run_cli_process(
            ["bench", "gen", "--suite", "elasticity", "--gap", "7", "--family",
             "complex", "--count", "6", "--seed", "4", "--out", "bench.jsonl"],
            cwd=workdir,
        )
        assert proc.returncode == 0, proc.stderr
        collected["bench_gen"] = (workdir / "bench.jsonl").read_bytes()
        proc = run_cli_process(
            ["bench", "eval", "--bench", "bench.jsonl", "--judge", "coinflip",
             "--seed", "2", "--out", "eval.json"],
            cwd=workdir,
        )
        assert proc.returncode == 0, proc.stderr
        collected["bench_eval"] = (workdir / "eval.json").read_bytes()
        outputs.append(collected)
    assert outputs[0] == outputs[1]
    print(f"CRITERION 8 PASS: {len(outputs[0])} machine outputs byte-identical across runs")


def test_criterion_9_mock_endpoint_harness(tmp_path):
    """The endpoint-dependent measurement harnesses run end-to-end against a
    mock chat-completions service and produce well-formed reports.  (The
    corresponding frontier-model numbers are out of scope by design.)"""

    def labeler_reply(body):
        prompt = body["messages"][-1]["content"]
        last_line = [l for l in prompt.splitlines() if l.startswith("output")][-1]
        answer = "yes" if "bad" in last_line else "no"
        return f"bad: {answer}"

    ground_steps = tuple(
        StepRecord(t, "", out, frozenset({"bad"}) if "bad" in out else frozenset())
        for t, out in enumerate(["fine", "bad idea", "fine", "bad call"], 1)
    )
    ground_trace = Trace(ground_steps)
    constraints = {"no_bad": parse("G !bad")}
    truth_reports = run_monitor(ground_trace, constraints, mode="reset")

    with MockEndpoint(labeler_reply) as mock:
        endpoint = EndpointModel(base_url=mock.base_url, model="mock-labeler")
        labeler = EndpointLabeler(endpoint=endpoint, vocabulary=frozenset({"bad"}))
        relabeled = apply_labeler(ground_trace, labeler, overwrite=True)
        predicted_reports = run_monitor(relabeled, constraints, mode="reset")
        f1 = score_f1(predicted_reports, truth_reports)
        assert 0.0 <= f1.pooled.f1 <= 1.0
        assert set(f1.per_constraint) == {"no_bad"}

        accuracy = measure_labeler_accuracy(labeler, [ground_trace])
        assert 0.0 <= accuracy.accuracy <= 1.0
        assert accuracy.decisions == 4
        assert set(accuracy.per_proposition) == {"bad"}

    bench = tmp_path / "bench.jsonl"
    proc = run_cli_process(
        ["bench", "gen", "--suite", "elasticity", "--gap", "3", "--count", "8",
         "--seed", "0", "--out", str(bench)],
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    with MockEndpoint(lambda body: "VALID") as mock:
        judge_config = tmp_path / "judge.json"
        judge_config.write_text(
            json.dumps({"base_url": mock.base_url, "model": "mock-judge"}),
            encoding="utf-8",
        )
        proc = run_cli_process(
            ["bench", "eval", "--bench", str(bench), "--judge", "endpoint",
             "--judge-config", str(judge_config), "--out", str(tmp_path / "eval.json")],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
    evaluation = json.loads((tmp_path / "eval.json").read_text())
    assert set(evaluation) == {"overall", "by_knob"}
    assert evaluation["overall"]["judgments"] == 8
    assert evaluation["overall"]["parse_failures"] == 0
    assert evaluation["overall"]["accuracy"] == pytest.approx(0.5)
    print("CRITERION 9 PASS: endpoint harness end-to-end against mock service")
