"""Spans, call wrappers and host-speed calibration for the benchmark.

Nothing here edits ltlguard's source.  Layers are timed from outside by
rebinding module attributes (the names the package looks up at call time)
to wrappers for the length of a phase, and by wrapping the model and
labeler objects the benchmark hands to the library.
"""

from __future__ import annotations

import bisect
import statistics
import time
from array import array
from pathlib import Path

# Median duration of calibration_loop() on the 2-vCPU machine the bounds in
# BENCHMARK.json were set on (Python 3.11); timings are rescaled to it.
CALIBRATION_NOMINAL_S = 0.015
CALIBRATE_EVERY_S = 0.5


class Spans:
    """In-memory span log: name, start, end, parent span and op id.

    The benchmark drives ltlguard from one thread, so a plain stack gives
    each span its parent.  ``op`` is set by the benchmark before each
    user-facing call; every span of that call carries it.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op = 0
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        names, parents, ops, starts, ends = self.name, self.parent, self.op_of, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return spanned

    def summary(self) -> dict[str, NameStats]:
        """Count, total and self time per span name.

        Self time is a span's duration minus its direct children's; spans
        of one thread nest without overlap, so the children's sum is the
        part of the interval they cover.
        """
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {name: NameStats() for name in self.names}
        by_id = [stats[name] for name in self.names]
        for i in range(n):
            s = by_id[self.name[i]]
            s.count += 1
            s.total += dur[i]
            s.self_total += dur[i] - child[i]
            s.durations.append(dur[i])
        return stats

    def first_child_total(self, parent_name: str, child_name: str) -> float:
        """Summed duration of the first ``child_name`` span under each
        ``parent_name`` span."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0.0
        pid, cid = self._ids[parent_name], self._ids[child_name]
        seen: set[int] = set()
        total = 0.0
        for i in range(len(self.name)):
            p = self.parent[i]
            if self.name[i] == cid and p >= 0 and self.name[p] == pid and p not in seen:
                seen.add(p)
                total += self.end[i] - self.start[i]
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op_of[i]}\n"
                )


class NameStats:
    __slots__ = ("count", "total", "self_total", "durations")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durations: list[float] = []

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def median(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0


class Patches:
    """Rebinds attributes for the length of a ``with`` block."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


class ModelProxy:
    """Counts model calls; records a span per call when tracing."""

    def __init__(self, inner, tally: "Tally", spans: Spans | None) -> None:
        call = inner.next_output if spans is None else spans.wrap("models.next_output", inner.next_output)

        def next_output(history, input, params):
            tally.model_calls += 1
            return call(history, input, params)

        self.next_output = next_output


class LabelerProxy:
    """Records a span per labeler call; keeps the labeler contract."""

    def __init__(self, inner, spans: Spans) -> None:
        self.vocabulary = inner.vocabulary
        self._call = spans.wrap("labeler.call", inner)

    def __call__(self, steps):
        return self._call(steps)


class Tally:
    """Client-side model-call count, kept in traced and untraced runs."""

    def __init__(self) -> None:
        self.model_calls = 0


def calibration_loop() -> int:
    """Fixed integer arithmetic in an interpreted loop; shares no code
    with ltlguard, so a change to ltlguard cannot change its duration."""
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


class HostSpeed:
    """Tracks how fast the host runs interpreted code during a run.

    Other tenants of the machine slow it by up to about 1.5x, in bursts of
    seconds to minutes, which moves every wall-clock timing by as much.
    The calibration loop, run between measured calls, slows with it.
    ``normalize`` rescales a call's own CPU time by the loop's median
    duration near the call over the nominal one, so a burst that covers
    a quarter of a run's calls is corrected where it happened; time the
    call spent waiting (on the endpoint stub) is kept as measured.
    Calls timed with ``clock`` exclude the loops run inside them.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []  # when each sample ended
        self._last = float("-inf")
        self._spent_wall = 0.0
        self._spent_cpu = 0.0

    def sample(self) -> None:
        start, cpu = time.perf_counter(), time.process_time()
        calibration_loop()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        self.times.append(self._last)
        self._spent_wall += self._last - start
        self._spent_cpu += time.process_time() - cpu

    def clock(self) -> tuple[float, float, float]:
        """Now, and wall and CPU seconds less the time spent calibrating."""
        now = time.perf_counter()
        return now, now - self._spent_wall, time.process_time() - self._spent_cpu

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.sample()

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Slowdown over the whole run, or near the interval [start, end]:
        from the samples taken within CALIBRATE_EVERY_S of it, else the
        nearest one after it."""
        window = self.samples
        if start is not None:
            lo = bisect.bisect_left(self.times, start - CALIBRATE_EVERY_S)
            hi = bisect.bisect_right(self.times, end + CALIBRATE_EVERY_S)
            window = self.samples[lo:hi] or self.samples[min(lo, len(self.samples) - 1):][:1]
        return statistics.median(window) / CALIBRATION_NOMINAL_S

    def normalize(self, wall: float, cpu: float, start: float) -> float:
        return wall - cpu + cpu / self.factor(start, start + wall)
