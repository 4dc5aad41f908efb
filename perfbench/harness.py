"""Timing, tracing and operation accounting shared by every workload.

A Tracer keeps spans in memory: one per call the benchmark makes into a
layer of cactusgrowth, plus one per operation and one per pass.  Each span
is [name, start, end, parent, op, stage, failed]; `parent` is the index of
the enclosing span (-1 at top level) and `op` the id of the operation it
belongs to (-1 outside operations).  An untraced run uses the program's
functions directly, so it pays nothing for tracing.
"""
from __future__ import annotations

import json
import math
import statistics
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import Any, Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stage = "setup"
        self._stack: list[int] = []
        self._op = -1

    def begin(self, name: str, op: Optional[int] = None) -> int:
        if op is not None:
            self._op = op
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op, self.stage, False])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, failed: bool = False) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        span[6] = span[6] or failed
        self._stack.pop()
        if span[0] == "op":
            self._op = -1

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            idx = self.begin(name)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                self.end(idx, failed)
        return traced

    def write(self, path: str) -> None:
        """One JSON array per line, after a header line naming the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op", "stage", "failed"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def plain(name: str, fn: Callable) -> Callable:
    return fn


class Fault(Exception):
    """The program did not do what the request requires (an error, as
    opposed to a wrong answer), e.g. a malformed request that exits 0."""


# the unit of machine speed: timings are scaled to the speed at which the
# calibration loop takes this long
CALIBRATION_S = 0.001


def calibration_loop() -> int:
    """Fixed pure-Python work, independent of cactusgrowth (tuples, a dict,
    integer arithmetic), timed through a run to follow the machine's speed."""
    seen: dict = {}
    acc = 0
    for i in range(2000):
        key = (i & 15, (i >> 4) & 15, i % 7)
        seen[key] = seen.get(key, 0) + 1
        acc += key[0] * key[2] - key[1]
    return acc + len(seen)


class Speed:
    """The machine's speed through a run: the calibration loop, timed
    between operations every `period` seconds."""

    def __init__(self, period: float) -> None:
        self.period = period
        self.times: list[float] = []
        self.durations: list[float] = []
        self._next = 0.0

    def sample(self) -> float:
        """Time the calibration loop once and return the time it took."""
        t0 = perf_counter()
        calibration_loop()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self._next = t1 + self.period
        return t1 - t0

    def due(self) -> bool:
        return perf_counter() >= self._next

    def factors(self, starts, half: float = 0.625) -> list[float]:
        """For each start time, how much slower than the unit speed the
        machine ran then: the median calibration time within `half` seconds
        of it (at least the five nearest samples), over CALIBRATION_S."""
        ts, n = self.times, len(self.times)
        out, memo = [], {}
        for t in starts:
            lo, hi = bisect_left(ts, t - half), bisect_right(ts, t + half)
            if hi - lo < 5:
                mid = bisect_left(ts, t)
                lo = max(0, min(mid - 2, n - 5))
                hi = min(n, lo + 5)
            if (lo, hi) not in memo:
                memo[lo, hi] = statistics.median(self.durations[lo:hi]) / CALIBRATION_S
            out.append(memo[lo, hi])
        return out


class Recorder:
    """Counts operations and times each one.

    An operation is a callable that returns None when every check of its
    output passes and a description otherwise.  An exception out of it, or
    a Fault, counts the operation as failed; a wrong answer counts it as
    failed and also marks the run incorrect.
    """

    def __init__(self, tracer: Optional[Tracer] = None,
                 interlude: Optional[Callable[[], None]] = None, period: float = 0.0,
                 speed: Optional[Speed] = None) -> None:
        self.tracer = tracer
        # unboxed, so that the run's own bookkeeping barely moves peak_rss_mb
        self.latencies = array("d")
        self.starts = array("d")
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: dict[str, int] = {}
        # `interlude` runs between operations every `period` seconds; the
        # time it takes is counted in `paused`, not in any operation
        self.interlude = interlude
        self.period = period
        self.paused = 0.0
        self._next = perf_counter() + period
        # `speed` is sampled between operations when due, also in `paused`
        self.speed = speed

    def op(self, fn: Callable, *args, check: Optional[Callable] = None) -> None:
        """Time fn(*args); with `check`, only fn is timed and check(result)
        runs afterwards to judge it."""
        tr = self.tracer
        idx = tr.begin("op", op=self.attempted) if tr else -1
        self.attempted += 1
        t0 = perf_counter()
        t1 = None
        try:
            bad = fn(*args)
            if check:
                t1 = perf_counter()
                bad = check(bad)
        except Exception as exc:  # a fault of the program under test
            bad = None
            key = f"{type(exc).__name__}: {exc}"[:160]
            self.errors[key] = self.errors.get(key, 0) + 1
            self.failed += 1
            failed = True
        else:
            failed = bad is not None
            if failed:
                self.failed += 1
                self.wrong.append(str(bad))
        self.latencies.append((t1 or perf_counter()) - t0)
        self.starts.append(t0)
        if tr:
            tr.end(idx, failed)
        if self.interlude and perf_counter() >= self._next:
            t0 = perf_counter()
            self.interlude()
            now = perf_counter()
            self.paused += now - t0
            self._next = now + self.period
        if self.speed and self.speed.due():
            self.paused += self.speed.sample()

    def check(self, good: bool, message: str) -> None:
        """A check made by a round outside its operations."""
        if not good:
            self.wrong.append(message)

    @property
    def correct(self) -> bool:
        return not self.wrong


def per_op_medians(values, passes: int) -> list[float]:
    """Each operation's median over the passes.  Every pass runs the same
    operations in the same order, so operation i of pass k is
    values[k * n + i]."""
    n, extra = divmod(len(values), passes)
    if extra or not n:
        raise RuntimeError(f"{len(values)} operations do not split into {passes} equal passes")
    return [statistics.median(values[i::n]) for i in range(n)]


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]
