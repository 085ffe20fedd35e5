"""ltlguard benchmark: one workload per invocation, from the repository root.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and their bounds are declared in BENCHMARK.json at the
root; benchmarks/README.md explains them.  Each workload runs in fresh
worker processes (worker.py).  With ``--trace 0`` the worker's set-up is
timed in SETUP_SAMPLES fresh processes and the last one then measures the
end-to-end metrics; with ``--trace 1`` a single worker reports per-layer
metrics from spans.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from instrument import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "ltlguard"
WORK = ROOT / ".bench_build" / "ltlguard-bench"
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in PACKAGE.rglob("*.py"))


def run_worker(argv: list[str], deadline: float) -> tuple[float, float, list[str]]:
    """Start a worker; return the wall and worker CPU seconds until it
    printed READY, and the lines it printed after that."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv], stdout=subprocess.PIPE, text=True, cwd=ROOT
    )
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    word, _, cpu = first.partition(" ")
    if word != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(argv[:2])} failed (exit {code}, first line {first.strip()!r})")
    return ready, float(cpu), rest


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Run one ltlguard benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no ltlguard sources at {PACKAGE}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    samples = 1 if args.trace else SETUP_SAMPLES
    setups: list[tuple[float, float, float]] = []
    host = HostSpeed()
    for i in range(samples):
        host.sample()
        workdir = WORK / f"{args.workload}-{os.getpid()}-{i}"
        extra = ["--workdir", str(workdir)]
        if i < samples - 1:
            extra.append("--setup-only")
        start = time.perf_counter()
        try:
            wall, cpu, lines = run_worker(common + extra, deadline)
        except BenchError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        setups.append((wall, cpu, start))

    result = json.loads(lines[-1].removeprefix("RESULT "))
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(host.normalize(wall, cpu, start) for wall, cpu, start in setups)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1
    print(f"ltlguard benchmark, workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(
        f"git {git_sha()}, python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"{source_lines()} source lines under src/ltlguard"
    )
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        print(f"setup_s raw {statistics.median(wall for wall, _, _ in setups):.4f} s, median of {samples} "
              "fresh processes: " + ", ".join(f"{wall:.4f}" for wall, _, _ in setups))
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
