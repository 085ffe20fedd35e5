"""One benchmark workload, run in a fresh process by run.py.

    worker.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
              [--setup-only]

The worker builds the workload's inputs from the seed and prints
``READY``; the parent times interpreter start up to that line as set-up.
With ``--setup-only`` it stops there.  Otherwise it measures closed-loop
calls into ltlguard for at least ``--seconds``, checks every output,
prints a readable report and, as its last line, ``RESULT <json>``.  A
traced run writes its spans to ``spans-<workload>.tsv`` beside the
workdir.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import ltlguard  # noqa: E402
from ltlguard import cli, intervention, monitor  # noqa: E402
from ltlguard.config import EMBEDDED, load_config  # noqa: E402
from ltlguard.ltl import render  # noqa: E402
from ltlguard.monitor import ProgressionCache, run_monitor  # noqa: E402
from ltlguard.synthbench import gen_constraint_scaling  # noqa: E402
from ltlguard.trace import Trace, load_trace, save_trace  # noqa: E402

from instrument import HostSpeed, LabelerProxy, ModelProxy, NameStats, Patches, Spans, Tally  # noqa: E402

AUDIT_CASES = 20
TAIL_BEYOND = 10  # samples a tail percentile must leave above it

GUARD_CONSTRAINTS = (
    ("no_bad", "G !bad"),
    ("bad_then_ok", "G (bad -> F ok)"),
    ("ok_then_bad", "F (ok & X F bad)"),
)
RULE_LABELER = {"type": "rule", "vocabulary": ["bad", "ok"], "rules": {"bad": r"\bbad\b", "ok": r"\bok\b"}}
SCRIPTED_MODEL = {"type": "scripted", "distributions": [[["bad move", 0.3], ["ok move", 0.7]]]}
SUBSTITUTE_MODEL = {"type": "scripted", "distributions": [[["ok move", 1.0]]]}
GUARD_POLICY = {"tau": 0.5, "n": 5, "k": 3, "m": 5, "pattern": "contains_violated"}

# ltlguard names the package looks up at call time, each rebound to a
# span-recording wrapper during a traced phase: (module, attribute, span).
SPANNED = (
    (cli, "load_config", "config.load_config"),
    (cli, "load_trace", "trace.load_trace"),
    (cli, "apply_labeler", "trace.apply_labeler"),
    (cli, "audit_log", "monitor.audit_log"),
    (cli, "save_reports", "trace.save_reports"),
    (cli, "save_trace", "trace.save_trace"),
    (monitor, "run_monitor", "monitor.run_monitor"),
    (monitor, "progress", "ltl.progress"),
    (monitor, "simplify", "ltl.simplify"),
    (intervention, "estimate_risks", "predictive.estimate_risks"),
)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tail(samples: list[float], p: float) -> float:
    """Nearest-rank ``p``th percentile; the workload's minimum round
    count guarantees ``TAIL_BEYOND`` samples above it."""
    ordered = sorted(samples)
    rank = math.ceil(p / 100 * len(ordered))
    if len(ordered) - rank < TAIL_BEYOND:
        raise RuntimeError(f"p{p:g} of {len(ordered)} samples leaves fewer than {TAIL_BEYOND} above it")
    return ordered[rank - 1]


class Phase:
    """What one measured phase did, as seen from outside the package."""

    def __init__(self, spans: Spans | None) -> None:
        self.spans = spans
        self.tally = Tally()
        # (wall, CPU, start) seconds of each whole ``cli.main`` call, for
        # throughput, and of each call a user waits on (an audit or a
        # ``guard_step``).
        self.call_times: list[tuple[float, float, float]] = []
        self.latencies: list[tuple[float, float, float]] = []
        self.host = HostSpeed()
        self.calls = 0  # cli.main invocations
        self.steps = 0  # audited trace steps or guarded steps
        self.csteps = 0  # constraints x steps
        self.lookups = 0  # ProgressionCache lookups (traced only)
        self.intervened = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.stub = {"requests": 0, "connections": 0, "max_inflight": 0}
        self.seconds = 0.0
        self.rounds = 0
        self.stderr = ""  # tail of the last call's stderr

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)

    def main(self, argv: list[str]) -> int:
        """``ltlguard.cli.main`` with its stderr summary captured, timed
        into ``call_times``."""
        call = cli.main if self.spans is None else self.spans.wrap("cli.main", cli.main)
        self.calls += 1
        if self.spans is not None:
            self.spans.op = self.calls
        err = io.StringIO()
        self.host.maybe_sample()
        start, wall, cpu = self.host.clock()
        try:
            with contextlib.redirect_stderr(err):
                return call(argv)
        except Exception as exc:  # a crash is a counted failure, not a benchmark abort
            print(f"{argv[0]} raised {exc!r}", file=err)
            return -1
        finally:
            _, wall_end, cpu_end = self.host.clock()
            self.call_times.append((wall_end - wall, cpu_end - cpu, start))
            self.stderr = err.getvalue().strip()[-300:]


def instrument(phase: Phase, patches: Patches) -> None:
    """Counting wrappers always; span wrappers when the phase is traced."""
    spans, tally = phase.spans, phase.tally
    build_model = cli.build_model
    patches.set(cli, "build_model", lambda spec: ModelProxy(build_model(spec), tally, spans))
    if spans is None:
        return
    build_labeler = cli.build_labeler

    def traced_labeler(spec):
        labeler = build_labeler(spec)
        return labeler if labeler is EMBEDDED else LabelerProxy(labeler, spans)

    patches.set(cli, "build_labeler", traced_labeler)
    for owner, attr, name in SPANNED:
        patches.set(owner, attr, spans.wrap(name, getattr(owner, attr)))
    lookup = ProgressionCache.progress_simplify

    def counted_lookup(cache, phi, labels):
        phase.lookups += 1
        return lookup(cache, phi, labels)

    patches.set(ProgressionCache, "progress_simplify", counted_lookup)


class Audit:
    """Constraint-suite cases audited through ``ltlguard audit`` in reset
    mode, optionally with ``--cross-check``.

    Embedded labels are stripped so the event labeler recomputes them.
    One call audits one case; a round audits every case once.  Two
    rounds give 40 calls, so p75 leaves ten above it, and the second
    round checks that repeats give the same report bytes.
    """

    tail_percentile = 75.0
    min_rounds = 2

    def __init__(self, name: str, family: str, n: int, length: int | None, cross_check: bool):
        self.name = name
        self.family = family
        self.n = n
        self.length = length
        self.cross_check = cross_check
        self.cases: list[tuple[Path, Path, tuple[bool, ...], int]] = []
        self.digests: dict[int, str] = {}

    def setup(self, workdir: Path, seed: int, spans: Spans | None) -> None:
        self.workdir = workdir
        gen = gen_constraint_scaling if spans is None else spans.wrap("synthbench.gen_case", gen_constraint_scaling)
        for i in range(AUDIT_CASES):
            case = gen(self.n, self.family, seed=seed * AUDIT_CASES + i, length=self.length)
            trace_path = workdir / f"case{i}.jsonl"
            config_path = workdir / f"case{i}.config.json"
            unlabeled = tuple(replace(s, labels=None) for s in case.trace.steps)
            save_trace(Trace(unlabeled, case.trace.metadata), trace_path)
            config = {
                "constraints": [
                    {"id": c.constraint_id, "formula": render(c.formula, "ascii")}
                    for c in case.constraints
                ],
                "labeler": {"type": "event"},
                "mode": "reset",
            }
            config_path.write_text(json.dumps(config), encoding="utf-8")
            self.cases.append((trace_path, config_path, case.truth, len(case.trace)))

    def instrument(self, phase: Phase, patches: Patches) -> None:
        instrument(phase, patches)

    def run_round(self, r: int, phase: Phase) -> None:
        for i in range(len(self.cases)):
            self.audit(i, phase)

    def audit(self, i: int, phase: Phase) -> None:
        trace_path, config_path, truth, steps = self.cases[i]
        out = self.workdir / f"report{i}.json"
        argv = ["audit", str(trace_path), "--config", str(config_path), "--mode", "reset", "--out", str(out)]
        if self.cross_check:
            argv.append("--cross-check")
        code = phase.main(argv)
        phase.latencies.append(phase.call_times[-1])
        phase.attempted += 1
        phase.steps += steps
        phase.csteps += steps * len(truth)
        if code not in (0, 1):
            phase.fail(1, f"case {i}: audit exit {code}: {phase.stderr}")
            return
        digest = sha256_file(out)
        if self.digests.setdefault(i, digest) != digest:
            phase.fail(1, f"case {i}: report bytes differ between repeats")
            return
        reports = json.loads(out.read_text(encoding="utf-8"))["reports"]
        satisfied = {report["constraint_id"]: report["satisfactions"] > 0 for report in reports}
        expected = {f"c{j + 1}": truth[j] for j in range(len(truth))}
        if satisfied != expected:
            phase.fail(1, f"case {i}: satisfied constraints {satisfied} differ from construction truth")

    def verify(self, phase: Phase) -> None:
        pass  # each call is checked as it returns

    def digest_lines(self) -> list[str]:
        combined = hashlib.sha256("".join(self.digests[i] for i in sorted(self.digests)).encode()).hexdigest()
        return [f"digest {self.name} reports ({len(self.digests)} cases) sha256:{combined}"]

    def close(self) -> None:
        pass


class Stub:
    """The chat-completions stub process, controlled over its stdin."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("endpoint stub failed to start")
        self.port = json.loads(line)["port"]

    def stats(self) -> dict:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Guard:
    """Guarded sessions through ``ltlguard guard``, one per strategy per
    round; round r runs every strategy under session seed ``seed*1000+r``.
    Each ``guard_step`` call is timed from outside for the latencies;
    throughput is taken over the whole ``guard`` calls."""

    def __init__(self, name: str, strategies: tuple[str, ...], steps: int, endpoint: bool,
                 tail_percentile: float, min_rounds: int):
        self.name = name
        self.strategies = strategies
        self.steps = steps
        self.endpoint = endpoint
        self.tail_percentile = tail_percentile
        self.min_rounds = min_rounds
        self.stub: Stub | None = None
        self.configs: dict[str, Path] = {}
        self.sessions: list[tuple[Path, str, int]] = []
        self.first_round: dict[str, Path] = {}

    def setup(self, workdir: Path, seed: int, spans: Spans | None) -> None:
        self.workdir = workdir
        self.seed = seed
        if self.endpoint:
            os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
            self.stub = Stub()
            model = {"type": "endpoint", "base_url": f"http://127.0.0.1:{self.stub.port}/v1", "model": "stub", "timeout": 10}
        else:
            model = SCRIPTED_MODEL
        for strategy in self.strategies:
            policy = {"strategy": strategy, **GUARD_POLICY}
            if strategy == "switch":
                policy["substitute_model"] = SUBSTITUTE_MODEL
            config = {
                "constraints": [{"id": cid, "formula": text} for cid, text in GUARD_CONSTRAINTS],
                "labeler": RULE_LABELER,
                "model": model,
                "policy": policy,
                "mode": "reset",
            }
            path = workdir / f"{strategy}.config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            self.configs[strategy] = path

    def instrument(self, phase: Phase, patches: Patches) -> None:
        instrument(phase, patches)
        step = intervention.guard_step
        if phase.spans is not None:
            step = phase.spans.wrap("intervention.guard_step", step)
        latencies, host = phase.latencies, phase.host

        def timed_guard_step(session, next_input):
            host.maybe_sample()
            start, wall, cpu = host.clock()
            try:
                return step(session, next_input)
            finally:
                _, wall_end, cpu_end = host.clock()
                latencies.append((wall_end - wall, cpu_end - cpu, start))

        patches.set(intervention, "guard_step", timed_guard_step)

    def run_round(self, r: int, phase: Phase) -> None:
        for strategy in self.strategies:
            out_dir = self.workdir / f"r{r}-{strategy}"
            before_calls, before_steps = phase.tally.model_calls, len(phase.latencies)
            before_stub = self.stub.stats() if self.stub else None
            code = phase.main([
                "guard", "--config", str(self.configs[strategy]), "--max-steps", str(self.steps),
                "--seed", str(self.seed * 1000 + r), "--out-dir", str(out_dir),
            ])
            steps = len(phase.latencies) - before_steps
            phase.steps += steps
            phase.csteps += steps * len(GUARD_CONSTRAINTS)
            phase.attempted += self.steps
            if code != 0 or steps != self.steps:
                phase.fail(self.steps, f"round {r} {strategy}: exit {code} after {steps} step(s): {phase.stderr}")
                continue
            if self.stub is not None:
                after = self.stub.stats()
                requests = after["requests"] - before_stub["requests"]
                calls = phase.tally.model_calls - before_calls
                phase.stub["requests"] += requests
                phase.stub["connections"] += after["connections"] - before_stub["connections"]
                phase.stub["max_inflight"] = max(phase.stub["max_inflight"], after["max_inflight"])
                if requests != calls:
                    phase.fail(self.steps, f"round {r} {strategy}: stub saw {requests} requests, client made {calls} calls")
                    continue
            self.sessions.append((out_dir, strategy, r))

    def verify(self, phase: Phase) -> None:
        """Live per-step verdicts must equal a reset-mode replay of the
        realized trace; reported counters must match the replay."""
        constraints = load_config(self.configs[self.strategies[0]]).constraints
        for out_dir, strategy, r in self.sessions:
            log = [json.loads(line) for line in (out_dir / "guard_log.jsonl").read_text(encoding="utf-8").splitlines()]
            replay = run_monitor(load_trace(out_dir / "trace.jsonl"), constraints, mode="reset")
            written = json.loads((out_dir / "reports.json").read_text(encoding="utf-8"))["reports"]
            wrong = set()
            for report, saved in zip(replay, written):
                for t, verdict in enumerate(report.verdicts):
                    if log[t]["verdicts"][report.constraint_id] != verdict.value:
                        wrong.add(t)
                if (saved["violations"], saved["satisfactions"]) != (report.violations, report.satisfactions):
                    wrong.update(range(len(log)))
            if len(log) != self.steps or len(replay) != len(written):
                wrong.update(range(self.steps))
            if wrong:
                phase.fail(len(wrong), f"round {r} {strategy}: {len(wrong)} step(s) disagree with the replay")
            phase.intervened += sum(entry["intervened"] for entry in log)
            if r == 0:
                self.first_round[strategy] = out_dir
        self.sessions.clear()

    def digest_lines(self) -> list[str]:
        return [
            f"digest {self.name} {strategy} {name} sha256:{sha256_file(out_dir / name)}"
            for strategy, out_dir in self.first_round.items()
            for name in ("trace.jsonl", "guard_log.jsonl", "reports.json")
        ]

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None


def make_workload(name: str):
    if name == "audit-constraint":
        return Audit(name, "complex", 20, None, cross_check=False)
    if name == "audit-crosscheck":
        return Audit(name, "simple", 5, 200, cross_check=True)
    if name == "guard-scripted":  # 3000 steps a round: p99 leaves 30 above it
        return Guard(name, ("resample", "inject", "switch"), 1000, False, tail_percentile=99.0, min_rounds=1)
    if name == "guard-endpoint":  # 20 steps a round: p75 of three rounds leaves 15
        return Guard(name, ("resample",), 20, True, tail_percentile=75.0, min_rounds=3)
    raise SystemExit(f"unknown workload {name!r}")


def measure(workload, seconds: float, spans: Spans | None, min_rounds: int) -> Phase:
    """Closed loop: whole rounds, back to back, until ``seconds`` pass
    and at least ``min_rounds`` rounds ran."""
    phase = Phase(spans)
    start = time.perf_counter()
    with Patches() as patches:
        workload.instrument(phase, patches)
        while True:
            workload.run_round(phase.rounds, phase)
            phase.rounds += 1
            if phase.rounds >= min_rounds and time.perf_counter() - start >= seconds:
                break
    phase.host.sample()  # brackets the last call
    phase.seconds = time.perf_counter() - start
    workload.verify(phase)
    return phase


def normalized(phase: Phase, times: list[tuple[float, float, float]]) -> list[float]:
    return [phase.host.normalize(wall, cpu, start) for wall, cpu, start in times]


def end_to_end(workload, phase: Phase) -> dict[str, float]:
    """Timings at the nominal host speed; see ``HostSpeed``."""
    latencies = normalized(phase, phase.latencies)
    return {
        "csteps_per_s": phase.csteps / sum(normalized(phase, phase.call_times)),
        "call_p50_ms": statistics.median(latencies) * 1e3,
        "call_tail_ms": tail(latencies, workload.tail_percentile) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, phase: Phase, base: Phase) -> dict[str, float]:
    stats = phase.spans.summary()

    def s(name: str) -> NameStats:
        return stats.get(name, NameStats())

    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    progress, simplify = s("ltl.progress"), s("ltl.simplify")
    audit, guard = s("monitor.audit_log"), s("intervention.guard_step")
    model, labeler, estimate = s("models.next_output"), s("labeler.call"), s("predictive.estimate_risks")
    endpoint = isinstance(workload, Guard) and workload.endpoint
    first_replay = phase.spans.first_child_total("monitor.audit_log", "monitor.run_monitor")
    cost = per(sum(normalized(phase, phase.call_times)), phase.csteps)
    base_cost = per(sum(normalized(base, base.call_times)), base.csteps)
    return {
        "ltl.parse_ms_per_case": per(s("config.load_config").total * 1e3, phase.calls),
        "ltl.progress_calls_per_cstep": per(progress.count, phase.csteps),
        "ltl.progress_us": progress.mean() * 1e6,
        "ltl.simplify_calls_per_cstep": per(simplify.count, phase.csteps),
        "ltl.simplify_us": simplify.mean() * 1e6,
        "monitor.cache_miss_ratio": per(progress.count, phase.lookups),
        "monitor.self_ns_per_cstep": per(
            (audit.self_total + s("monitor.run_monitor").self_total) * 1e9, phase.csteps
        ),
        "monitor.crosscheck_share": per(audit.total - first_replay, audit.total),
        "trace.load_us_per_step": per(s("trace.load_trace").total * 1e6, phase.steps),
        "trace.label_us_per_step": per(s("trace.apply_labeler").total * 1e6, phase.steps),
        "trace.save_us_per_cstep": per(
            (s("trace.save_reports").total + s("trace.save_trace").total) * 1e6, phase.csteps
        ),
        "labeler.calls_per_step": per(labeler.count, phase.steps),
        "labeler.us_per_call": labeler.mean() * 1e6,
        "predictive.estimate_calls_per_step": per(estimate.count, guard.count),
        "predictive.estimate_ms": estimate.mean() * 1e3,
        "intervention.self_ms_per_step": per((guard.total - model.total - labeler.total) * 1e3, guard.count),
        "intervention.intervened_share": per(phase.intervened, guard.count),
        "models.calls_per_step": per(model.count, guard.count),
        "models.us_per_call": model.mean() * 1e6,
        "models.busy_share": per(model.total, guard.total),
        "endpoint.rtt_ms_p50": model.median() * 1e3 if endpoint else 0.0,
        "endpoint.connections_per_call": per(phase.stub["connections"], phase.stub["requests"]),
        "endpoint.max_inflight": float(phase.stub["max_inflight"]),
        "synthbench.gen_ms_per_case": s("synthbench.gen_case").mean() * 1e3,
        "tracing.overhead_share": per(cost, base_cost) - 1.0 if base_cost else 0.0,
    }


def report_lines(workload, phase: Phase) -> list[str]:
    """Per-workload names, raw wall-clock values, for readers of the log."""
    host, p = phase.host, workload.tail_percentile
    call_wall = sum(wall for wall, _, _ in phase.call_times)
    latencies = [wall for wall, _, _ in phase.latencies]
    lines = [
        f"{workload.name}: {phase.rounds} round(s), {phase.calls} ltlguard call(s), {phase.steps} steps, "
        f"{phase.csteps} constraint-steps in {phase.seconds:.2f} s",
        f"  host slowdown factor {host.factor():.4f} (median of {len(host.samples)} calibration loops); "
        f"CPU share of call time {sum(cpu for _, cpu, _ in phase.call_times) / call_wall:.3f}; "
        "values below are raw wall-clock",
    ]
    if isinstance(workload, Audit):
        lines.append(f"  audit_csteps_per_s {phase.csteps / call_wall:.1f} constraint-steps/s")
        lines.append(f"  audit_call_p50_ms {statistics.median(latencies) * 1e3:.2f} ms")
        lines.append(f"  audit_call_tail_ms {tail(latencies, p) * 1e3:.2f} ms (p{p:g} of {len(latencies)} calls)")
    else:
        lines.append(f"  guard_steps_per_s {phase.steps / call_wall:.2f} steps/s")
        lines.append(f"  guard_step_p50_ms {statistics.median(latencies) * 1e3:.3f} ms")
        lines.append(f"  guard_step_tail_ms {tail(latencies, p) * 1e3:.3f} ms (p{p:g} of {len(latencies)} steps)")
        lines.append(f"  model_calls_per_step {phase.tally.model_calls / phase.steps:.4f} calls/step")
        lines.append(f"  intervened_share {phase.intervened / phase.steps:.4f}")
        if workload.endpoint:
            lines.append(
                f"  stub: {phase.stub['requests']} requests, {phase.stub['connections']} connections, "
                f"peak {phase.stub['max_inflight']} in flight"
            )
    lines.append(f"  peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB")
    lines.append(f"  error_rate {phase.failed / phase.attempted:.6f} ({phase.failed}/{phase.attempted})")
    lines.extend(f"  error: {message}" for message in phase.errors)
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one ltlguard benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if Path(ltlguard.__file__).resolve().parent != SRC / "ltlguard":
        raise SystemExit(f"imported ltlguard from {ltlguard.__file__}, not from {SRC}")

    workload = make_workload(args.workload)
    spans = Spans() if args.trace else None
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.setup(args.workdir, args.seed, spans)
        print(f"READY {time.process_time()}", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            # The same rounds untraced, then traced: their cost ratio is the
            # tracing overhead.
            base = measure(workload, args.seconds / 2, None, workload.min_rounds)
            phase = measure(workload, 0.0, spans, base.rounds)
            metrics = per_layer(workload, phase, base)
            phases = (base, phase)
        else:
            phase = measure(workload, args.seconds, None, workload.min_rounds)
            metrics = end_to_end(workload, phase)
            phases = (phase,)
    finally:
        workload.close()

    for line in report_lines(workload, phases[0]) + workload.digest_lines():
        print(line)
    if spans is not None:
        spans_out = args.workdir.parent / f"spans-{args.workload}.tsv"
        spans.write(spans_out)
        print(f"spans: {len(spans.name)} written to {spans_out}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
