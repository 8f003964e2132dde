"""Run one workload of the modelk benchmark and print its metrics.

    python3 perfbench/run.py --workload groups --seed 1 --seconds 35 --trace 0

Run it from the root of a modelk checkout; it imports modelk from ./src.
Workloads: groups, sets, maps (see BENCHMARK.json and perfbench/README.md).

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
untraced and half traced, and prints the per-layer metrics plus the tracing
overhead; it also writes the spans to perfbench/out/.  The last line of
standard output is always one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

from harness import (LoopResult, check, failure_lines, op_latencies,
                     quantile, run_loop)
from speed import Speedometer
from tracing import Tracer, bind

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = {"groups": "wl_groups", "sets": "wl_sets", "maps": "wl_maps"}
SETUP_REPEATS = 11
HASH_SEED = "0"

LAYERS = ("matrix_groups", "groups", "constructions", "symbolic", "formulas",
          "defsets", "counting", "automorphisms")
# timed span names per layer, as `<span>_s` metrics
SPANS = ("matrix_groups.build", "matrix_groups.check_gl_ab",
         "groups.abelianization", "constructions.build",
         "constructions.check_semidirect_ab", "constructions.check_wreath_ab",
         "symbolic.truncation_consistency", "formulas.parse",
         "defsets.normalize", "defsets.class", "counting.count",
         "automorphisms.validate", "automorphisms.invert",
         "automorphisms.compose", "automorphisms.support",
         "automorphisms.decompose", "automorphisms.same_map",
         "automorphisms.conjugate")


def fresh_import():
    """Import modelk from this checkout, dropping any earlier import."""
    for name in [m for m in sys.modules
                 if m == "modelk" or m.startswith("modelk.")]:
        del sys.modules[name]
    modelk = importlib.import_module("modelk")
    if not os.path.abspath(modelk.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"modelk was imported from {modelk.__file__}, "
                         f"not from {SRC}")


def setup(workload, seed):
    """Median of several set-ups: fresh import, input generation, decoding.
    Each is scaled to the reference speed."""
    spans = []
    with Speedometer() as speed:
        for _ in range(SETUP_REPEATS):
            gc.collect()  # the modules the last set-up dropped
            first, t = speed.mark(), speed.clock()
            fresh_import()
            ops, probe = workload.make_ops(seed)
            spans.append((speed.clock() - t, first, speed.mark() + 1))
    times = [dt * speed.scale(a, b) for dt, a, b in spans]
    return ops, probe, statistics.median(times)


def throughput(result, failures):
    """Correct ops per scaled second spent in ops."""
    return (len(result.records) - len(failures)) / result.busy()


def run_probe(probe, L, tracer=None):
    """Run the known-defect ops once, untimed; returns their failures."""
    if not probe:
        return []
    return check(run_loop(probe, L, 0.0, tracer))[0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "modelk", "__init__.py")):
        print(f"no modelk sources under {SRC}; run from a modelk checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # str hashes are salted per process unless this is set.  The salt
        # reorders sets and dicts inside modelk and moves op_p50_ms by up to
        # 12% between runs of the same code, so every run uses one salt.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.path.insert(0, SRC)
    workload = importlib.import_module(WORKLOADS[args.workload])
    ops, probe, setup_s = setup(workload, args.seed)
    table = workload.layer_table()

    if args.trace:
        result, failures, probe_failures, metrics = traced_run(
            workload, ops, probe, table, args)
    else:
        result = run_loop(ops, bind(table), args.seconds)
        failures, by_op = check(result)
        latencies = op_latencies(by_op)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (throughput(result, failures), "1/s"),
            "op_p50_ms": (1000 * quantile(latencies, 0.5), "ms"),
            "op_p90_ms": (1000 * quantile(latencies, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        print(f"latency samples {len(latencies)} (one per op: its median "
              f"over {result.rounds} rounds), beyond p90 "
              f"{len(latencies) - math.ceil(0.9 * len(latencies))}")
        probe_failures = run_probe(probe, bind(table))

    attempted = len(result.records)
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops in "
          f"{result.rounds} rounds of {len(ops)}, {result.wall:.3f} s")
    scales = sorted(result.scales)
    print(f"speed scale (reference over local kernel time): median "
          f"{statistics.median(scales):.4f}, min {scales[0]:.4f}, "
          f"max {scales[-1]:.4f}")
    print(workload.describe_inputs(ops, probe))
    for line in failure_lines(failures):
        print(line)
    for line in failure_lines(probe_failures):
        print("known defect " + line)
    print(f"known-defect probe: {len(probe_failures)} of {len(probe)} ops fail")
    total = attempted + len(probe)
    print(f"fail_share {(len(failures) + len(probe_failures)) / total:.6f} "
          f"share ({len(failures)} timed and {len(probe_failures)} probe "
          f"failures of {total} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_run(workload, ops, probe, table, args):
    """Half the budget untraced, then half traced.  Returns both halves'
    records and failures, the probe's failures and the per-layer metrics,
    which come from the traced half."""
    plain = run_loop(ops, bind(table), args.seconds / 2)
    t = perf_counter()
    plain_failures, _ = check(plain)  # computes and keeps the references
    check_s = perf_counter() - t
    tracer = Tracer()
    L = bind(table, tracer)
    result = run_loop(ops, L, args.seconds / 2, tracer)
    t = perf_counter()
    failures, _ = check(result)
    check_s += perf_counter() - t
    times = tracer.self_times(result.scales)
    timed_counts = Counter(tracer.counts)
    # the probe is traced too, so the input shares cover the known defects
    probe_failures = run_probe(probe, L, tracer)
    rounds = result.rounds

    metrics = {}
    for span in SPANS:
        metrics[f"{span}_s"] = (times.get(span, (0, 0.0, 0.0))[2] / rounds, "s")
    failed = Counter(layer for _, _, layer in failures)
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = (failed[layer] / rounds, "count")
    for name in WORKLOADS:  # every per-layer metric, zero where unused
        other = importlib.import_module(WORKLOADS[name])
        for metric, (_, unit) in other.layer_metrics(Counter(), 1,
                                                     Counter()).items():
            metrics[metric] = (0.0, unit)
    metrics.update(workload.layer_metrics(timed_counts, rounds, tracer.counts))
    glue = times.get("bench.op", (0, 0.0, 0.0))[2]
    metrics["bench.self_s"] = ((glue + check_s) / rounds, "s")
    metrics["bench.trace_overhead"] = (
        1 - throughput(result, failures) / throughput(plain, plain_failures),
        "share")
    both = LoopResult(plain.wall + result.wall, plain.rounds + result.rounds,
                      plain.records + result.records,
                      plain.scales + result.scales)

    print(f"{'span':40s} {'calls':>8s} {'total s':>10s} {'self s':>10s}")
    for name, (calls, total, self_s) in sorted(times.items()):
        print(f"{name:40s} {calls:8d} {total:10.4f} {self_s:10.4f}")
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out, exist_ok=True)
    tracer.write(os.path.join(out, f"spans-{args.workload}-{args.seed}.jsonl"))
    return both, plain_failures + failures, probe_failures, metrics


if __name__ == "__main__":
    sys.exit(main())
