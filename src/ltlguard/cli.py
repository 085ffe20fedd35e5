"""Command-line entry point.

Machine-readable output (JSON/JSONL) goes to stdout or the configured
files; human summaries go to stderr.  Exit codes: 0 success (audit: no
violations), 1 violations found, 2 any error.  All randomness flows from
the seed flag or the config seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Mapping
from pathlib import Path

from .config import EMBEDDED, ConfigError, build_labeler, build_model, endpoint_spec, load_config, read_json
from .intervention import GuardedSession, run_guarded, violation_rate
from .ltl import Formula, ParseError, ProgressionCache, TruthAssignment, parse, render
from .ltl.ast import SYNTAX
from .monitor import CrossCheckError, audit_log, new_state, score_f1, step
from .synthbench import (
    CoinFlipJudge,
    MonitorOracleJudge,
    eval_judge,
    gen_constraint_scaling,
    gen_elasticity,
    gen_proposition_scaling,
    load_cases,
    save_cases,
)
from .trace import (
    LabelingFunction,
    Trace,
    apply_labeler,
    load_reports,
    load_trace,
    save_reports,
    save_trace,
    write_json,
    write_jsonl,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2

# Every error a command can meet on bad input or a failing run: config, trace,
# parse, policy and generation errors are ValueErrors, endpoint and labeler
# failures RuntimeErrors, unreadable inputs and unwritable outputs OSErrors,
# and a monitor that disagrees with its cross-check a CrossCheckError.
ERRORS = (ValueError, RuntimeError, OSError, CrossCheckError)


def _human(message: str) -> None:
    print(message, file=sys.stderr)


def _ast_dict(node: Formula | str) -> dict | str:
    if isinstance(node, str):  # a proposition's name
        return node
    return {
        "kind": SYNTAX[type(node)].kind,
        **{name: _ast_dict(getattr(node, name)) for name in node.__match_args__},
    }


def _print_caret(err: ParseError) -> None:
    lines = err.text.splitlines() or [""]
    if 1 <= err.line <= len(lines):
        _human(f"  {lines[err.line - 1]}")
        _human("  " + " " * (err.column - 1) + "^")


def _parse_labels(text: str) -> TruthAssignment:
    return frozenset(part.strip() for part in text.split(",") if part.strip())


def _check_propositions(
    propositions: Mapping[str, frozenset[str]], labeler: LabelingFunction | str, trace: Trace | None = None
) -> None:
    """Reject constraint propositions, as written, outside the labeler's
    vocabulary, which no step could ever carry; with embedded labels, which
    have no vocabulary, warn about those no step of ``trace`` carries."""
    if labeler is EMBEDDED:
        seen = frozenset().union(*(record.labels or () for record in trace.steps))
        for cid, props in sorted(propositions.items()):
            for prop in sorted(props - seen):
                _human(f"warning: constraint {cid!r}: proposition {prop!r} is in no step's labels")
        return
    for cid, props in sorted(propositions.items()):
        unknown = props - labeler.vocabulary
        if unknown:
            raise ConfigError(
                f"constraint {cid!r}: proposition(s) {', '.join(sorted(unknown))} "
                "outside the labeler's vocabulary"
            )


def cmd_parse(args: argparse.Namespace) -> int:
    phi = parse(args.formula)
    document = {
        "canonical": render(ProgressionCache().normalize(phi), "ascii"),
        "parsed": render(phi, "ascii"),
        "ast": _ast_dict(phi),
    }
    write_json(document)
    return EXIT_OK


def cmd_progress(args: argparse.Namespace) -> int:
    phi = parse(args.formula)
    if args.steps_file:
        lines = Path(args.steps_file).read_text(encoding="utf-8").splitlines()
        assignments = [_parse_labels(line) for line in lines]
    else:
        assignments = [_parse_labels(args.labels or "")]
    state = new_state("", phi)
    for t, labels in enumerate(assignments, 1):
        state = step(state, labels)
        residual, verdict = render(state.residual, "ascii"), state.last_verdict.value
        print(json.dumps({"t": t, "residual": residual, "verdict": verdict}, ensure_ascii=False))
        _human(f"step {t}: {residual} / {verdict}")
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    trace = load_trace(args.trace)
    labeler = build_labeler(config.labeler_spec)
    _check_propositions(config.propositions, labeler, trace)
    if labeler is not EMBEDDED:
        trace = apply_labeler(trace, labeler, overwrite=args.relabel)
    mode = args.mode or config.mode
    reports = audit_log(
        trace, config.constraints, mode=mode, cross_check=args.cross_check, cache=config.automaton
    )
    extra: dict = {"mode": mode, "trace_length": len(trace)}
    if args.f1_against:
        truth = load_reports(args.f1_against)
        result = score_f1(reports, truth)
        extra["f1"] = {
            "pooled": {
                "precision": result.pooled.precision,
                "recall": result.pooled.recall,
                "f1": result.pooled.f1,
            },
            "per_constraint": {
                cid: {"precision": s.precision, "recall": s.recall, "f1": s.f1}
                for cid, s in sorted(result.per_constraint.items())
            },
        }
        _human(
            f"pooled F1 {result.pooled.f1:.4f} "
            f"(precision {result.pooled.precision:.4f}, recall {result.pooled.recall:.4f})"
        )
    save_reports(reports, args.out, extra=extra)
    violations = sum(r.violations for r in reports)
    _human(
        f"audited {len(trace)} steps against {len(reports)} constraints: "
        f"{violations} violation(s)"
    )
    return EXIT_VIOLATIONS if violations else EXIT_OK


def cmd_guard(args: argparse.Namespace) -> int:
    if args.max_steps < 1:
        raise ValueError(f"--max-steps must be at least 1, got {args.max_steps}")
    out_dir = Path(args.out_dir)
    config = load_config(args.config)
    labeler = build_labeler(config.labeler_spec)
    if labeler is EMBEDDED:
        raise ConfigError("guard mode needs a concrete labeler, not embedded labels")
    _check_propositions(config.propositions, labeler)
    model = build_model(config.model_spec)
    substitute = None if config.substitute_spec is None else build_model(config.substitute_spec)
    seed = config.seed if args.seed is None else args.seed
    session = GuardedSession(
        model=model,
        labeler=labeler,
        constraints=config.constraints,
        policy=config.policy,
        substitute=substitute,
        seed=seed,
        glosses=config.glosses,
        stop_token=config.stop_token,
        action_temperature=config.action_temperature,
        sampling_temperature=config.sampling_temperature,
        reset_mode=(config.mode == "reset"),
        cache=config.automaton,
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        trace, outcomes, reports = run_guarded(
            session, max_steps=args.max_steps, initial_input=config.initial_input
        )
    except ERRORS as err:
        _save_guard_log(session, out_dir / "guard_log.jsonl")
        save_trace(Trace(tuple(session.steps)), out_dir / "trace.jsonl")
        raise RuntimeError(f"{err} (partial outputs flushed to {out_dir})") from err
    save_trace(trace, out_dir / "trace.jsonl")
    _save_guard_log(session, out_dir / "guard_log.jsonl")
    save_reports(
        reports,
        out_dir / "reports.json",
        extra={"violation_rate": violation_rate(reports), "steps": len(trace)},
    )
    interventions = sum(o.intervened for o in outcomes)
    _human(
        f"ran {len(trace)} steps, {interventions} intervention(s), "
        f"violation rate {violation_rate(reports):.4f}"
    )
    return EXIT_OK


def _save_guard_log(session: GuardedSession, path: Path) -> None:
    write_jsonl((outcome.to_dict() for outcome in session.outcomes), path)


def cmd_bench_gen(args: argparse.Namespace) -> int:
    if args.suite == "elasticity":
        cases = gen_elasticity(gap=args.gap, family=args.family, seed=args.seed, count=args.count)
    elif args.suite == "constraint":
        cases = [
            gen_constraint_scaling(args.n, args.family, seed=args.seed + i, gap=args.gap)
            for i in range(args.count)
        ]
    else:
        cases = [
            gen_proposition_scaling(args.entities, args.family, seed=args.seed + i, gap=args.gap)
            for i in range(args.count)
        ]
    save_cases(cases, args.out)
    satisfied = sum(sum(case.truth) for case in cases)
    total = sum(len(case.truth) for case in cases)
    _human(
        f"wrote {len(cases)} case(s) to {args.out}: "
        f"{satisfied}/{total} constraint instances satisfied"
    )
    return EXIT_OK


def cmd_bench_eval(args: argparse.Namespace) -> int:
    cases = load_cases(args.bench)
    if args.judge == "oracle":
        judge = MonitorOracleJudge()
    elif args.judge == "coinflip":
        judge = CoinFlipJudge()
    else:
        if not args.judge_config:
            raise ConfigError("--judge endpoint requires --judge-config")
        judge = build_model(endpoint_spec(read_json(args.judge_config, "judge config"), "judge config"))
    report = eval_judge(cases, judge, level=args.level, seed=args.seed)
    write_json(report.to_dict(), args.out)
    _human(
        f"overall accuracy {report.overall.accuracy:.4f} "
        f"± {report.overall.half_width:.4f} over {report.overall.judgments} judgment(s), "
        f"{report.overall.parse_failures} parse failure(s)"
    )
    for key, acc in sorted(report.by_knob.items()):
        _human(f"  {key}: {acc.accuracy:.4f} ± {acc.half_width:.4f} (n={acc.judgments})")
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltlguard",
        description=(
            "Audit, monitor, predict, and intervene on sequential systems "
            "against temporal-logic constraints."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse a formula and print its canonical form")
    p_parse.add_argument("formula")
    p_parse.set_defaults(func=cmd_parse)

    p_progress = sub.add_parser("progress", help="progress a formula through truth assignments")
    p_progress.add_argument("formula")
    p_progress.add_argument("--labels", default=None, help="comma list for a single step")
    p_progress.add_argument(
        "--steps-file", default=None, help="file with one comma list of labels per line"
    )
    p_progress.set_defaults(func=cmd_progress)

    p_audit = sub.add_parser("audit", help="audit a recorded trace against constraints")
    p_audit.add_argument("trace")
    p_audit.add_argument("--config", required=True)
    p_audit.add_argument("--mode", choices=("plain", "reset"), default=None)
    p_audit.add_argument("--cross-check", action="store_true")
    p_audit.add_argument("--relabel", action="store_true", help="overwrite embedded labels")
    p_audit.add_argument("--f1-against", default=None, help="ground-truth report file")
    p_audit.add_argument("--out", default=None, help="report output path (default stdout)")
    p_audit.set_defaults(func=cmd_audit)

    p_guard = sub.add_parser("guard", help="run a guarded model loop")
    p_guard.add_argument("--config", required=True)
    p_guard.add_argument("--max-steps", type=int, required=True)
    p_guard.add_argument("--seed", type=int, default=None)
    p_guard.add_argument("--out-dir", default="guard_out")
    p_guard.set_defaults(func=cmd_guard)

    p_bench = sub.add_parser("bench", help="generate or evaluate synthetic benchmarks")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_gen = bench_sub.add_parser("gen", help="generate benchmark cases")
    p_gen.add_argument("--suite", choices=("elasticity", "constraint", "proposition"), required=True)
    p_gen.add_argument("--family", choices=("simple", "complex"), default="simple")
    p_gen.add_argument("--gap", type=int, default=None, help="steps between target events")
    p_gen.add_argument("--n", type=int, default=1, help="constraints per case (constraint suite)")
    p_gen.add_argument("--entities", type=int, default=1, help="entities per step (proposition suite)")
    p_gen.add_argument("--count", type=int, default=40)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_bench_gen)

    p_eval = bench_sub.add_parser("eval", help="evaluate a judge on benchmark cases")
    p_eval.add_argument("--bench", required=True)
    p_eval.add_argument("--judge", choices=("oracle", "coinflip", "endpoint"), required=True)
    p_eval.add_argument("--judge-config", default=None)
    p_eval.add_argument("--level", choices=("informal", "precise", "precise+ltl"), default="informal")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_bench_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place an error becomes ``error: ...`` and exit 2."""
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except ERRORS as err:
        _human(f"error: {err}")
        if isinstance(err, ParseError):
            _print_caret(err)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
