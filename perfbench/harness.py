"""The closed loop, the answer checks and the metrics.

One client in one process sends the next op only when the last one has
finished.  The loop runs whole rounds of a workload's op list, and stops
before a round that, at the pace of the last one, would end past the time
budget, so every run measures the same op mix; the first round always runs.

Every time is scaled to a reference speed (see speed.py).
"""

from __future__ import annotations

import gc
import math
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter
from typing import Any, Callable

from speed import Speedometer
from tracing import layer_of

@dataclass(eq=False)
class Op:
    """One op: `run(L)` calls modelk through the layer namespace L and
    returns a small comparable answer; `expect()` gives the reference
    answer, computed without modelk.  A wrong answer is blamed on `layer`."""

    name: str
    layer: str
    run: Callable[[Any], Any]
    expect: Callable[[], Any]
    info: dict = field(default_factory=dict)

    @cached_property
    def expected(self):
        return self.expect()


@dataclass
class LoopResult:
    wall: float
    rounds: int
    # (op, answer, error class or None, scaled seconds, blamed span)
    records: list
    scales: list  # per record, reference over local kernel time

    def busy(self):
        """Scaled seconds spent inside ops."""
        return sum(r[3] for r in self.records)


def run_loop(ops, L, seconds, tracer=None) -> LoopResult:
    records = []
    marks = []  # per record, the speed marks at its start and end
    with Speedometer() as speed:
        clock = speed.clock
        if tracer is not None:
            tracer.clock = clock
        start = perf_counter()
        rounds = 0
        while True:
            round_start = perf_counter()
            for op in ops:
                # every op starts with no cyclic garbage and with what
                # exists so far out of the collector's sight, so the
                # collections it meets scan only its own objects
                gc.collect()
                gc.freeze()
                if tracer is not None:
                    tracer.op_id = len(records)
                    tracer.error_span = None
                    tracer.open("bench.op")
                first, t = speed.mark(), clock()
                try:
                    answer, error = op.run(L), None
                except Exception as exc:  # an op that raises is a failed op
                    answer, error = None, type(exc).__name__
                dt = clock() - t
                marks.append((first, speed.mark() + 1))
                blamed = None
                if tracer is not None:
                    tracer.close()
                    blamed = tracer.error_span
                records.append((op, answer, error, dt, blamed))
            rounds += 1
            now = perf_counter()
            if (now - start) + (now - round_start) > seconds:
                break
        wall = perf_counter() - start
        gc.unfreeze()
    scales = [speed.scale(a, b) for a, b in marks]
    records = [(op, answer, error, dt * scale, blamed)
               for (op, answer, error, dt, blamed), scale
               in zip(records, scales)]
    return LoopResult(wall, rounds, records, scales)


def check(result: LoopResult):
    """Failed ops as (op, error class, blamed layer), and each op's
    latencies, one per round, with a failed op counted as slower than every
    successful one."""
    failures, latencies = [], defaultdict(list)
    for op, answer, error, dt, blamed in result.records:
        if error is None and answer != op.expected:
            error, blamed = "WrongAnswer", None
        if error is None:
            latencies[op].append(dt)
            continue
        layer = layer_of(blamed) if blamed else op.layer
        failures.append((op, error, layer))
        latencies[op].append(math.inf)
    return failures, latencies


def op_latencies(latencies):
    """Each op's median latency over the rounds, ascending.  An op that
    failed in any round is slower than every other."""
    return sorted(math.inf if math.inf in times else statistics.median(times)
                  for times in latencies.values())


def quantile(sorted_values, q, steps=16):
    """Harrell-Davis estimate of the q-quantile of an ascending list: the
    mean of all order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
    density, integrated here by the midpoint rule.  It varies less from run
    to run than any single order statistic when the ops near the quantile
    are few or unevenly spaced.  Order statistics of weight below 1e-9 are
    left out, so an infinite latency counts only near the quantile."""
    n = len(sorted_values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        xs = ((i * steps + j + 0.5) * h for j in range(steps))
        weights.append(h * sum(math.exp((a - 1) * math.log(x)
                                        + (b - 1) * math.log1p(-x) - log_beta)
                               for x in xs))
    return (sum(w * v for w, v in zip(weights, sorted_values) if w > 1e-9)
            / sum(weights))


def failure_lines(failures):
    counts = Counter((op.name, error) for op, error, _ in failures)
    return [f"failed: {name}: {error} x{n}"
            for (name, error), n in sorted(counts.items())]
