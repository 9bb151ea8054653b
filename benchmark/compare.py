#!/usr/bin/env python3
"""Compare two sets of rfbench result files (Python stdlib only).

Each set is a directory of result-<workload>-seed<N>-trace<T>.json files,
optionally restricted to a seed range with a suffix: build-bench/out:1-5.
Rows of traced runs are marked T. A bound applies to the end-to-end metrics
BENCHMARK.json lists, on the workloads it lists, in untraced runs.

  compare.py SET_A SET_B            repeatability: per (metric, workload),
                                    each set's median and quartiles, and
                                    whether the medians, and each set's
                                    quartile spread, stay within the bound
  compare.py PARENT CHANGE --paired a parent/change claim on any metric
                                    with a direction: runs are paired by
                                    seed, and the change must win at least
                                    9 of 10 pairs with medians further apart
                                    than the parent's quartile spread; a
                                    bounded metric worse by more than its
                                    bound is a regression
  --baseline FILE                   also write both sets' medians and
                                    quartile spreads of every untraced
                                    metric to FILE (JSON)

Exits 1 when a repeatability check finds a pair that does not agree.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Directions of the end-to-end metrics rfbench reports beyond BENCHMARK.json
# (README "End-to-end metrics"); they have no bound.
UNGATED = {"latency_ms_p99": "lower", "throughput_ops": "higher", "goodput_ops": "higher",
           "fused_share": "higher", "failed_share": "lower"}
NAME = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")


def parse_set(spec):
    """'DIR' or 'DIR:LO-HI' -> (directory, seed filter or None)."""
    directory, _, seeds = spec.partition(":")
    if not seeds:
        return directory, None
    lo, _, hi = seeds.partition("-")
    return directory, range(int(lo), int(hi or lo) + 1)


def load_set(spec):
    """{(workload, trace, metric): {seed: value}} over every run in the set."""
    directory, seeds = parse_set(spec)
    values = {}
    units = {}
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        match = NAME.search(os.path.basename(path))
        if not match or (seeds is not None and int(match["seed"]) not in seeds):
            continue
        with open(path) as f:
            result = json.load(f)
        if not result.get("correct", False):
            print(f"warning: {path} failed its output checks; skipped", file=sys.stderr)
            continue
        for metric, entry in result["metrics"].items():
            key = (match["workload"], match["trace"], metric)
            values.setdefault(key, {})[int(match["seed"])] = entry["value"]
            units[metric] = entry["unit"]
    return values, units


def summary(values):
    """(median, q1, q3) as statistics.quantiles(values, n=4) gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values):
    """Quartile spread as a share of the median."""
    median, q1, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="first set (the parent, with --paired)")
    parser.add_argument("b", help="second set (the change, with --paired)")
    parser.add_argument("--paired", action="store_true")
    parser.add_argument("--baseline", help="write medians and spreads here")
    parser.add_argument("--bench", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    gated = {w["name"] for w in bench["workloads"]}
    better = dict(UNGATED)
    better.update({m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]})
    a, units = load_set(args.a)
    b, units_b = load_set(args.b)
    units.update(units_b)
    if not a or not b:
        sys.exit("compare.py: a set holds no result files")

    disagreements = 0
    baseline = {}
    header = (f"{'workload':<15} {'run':<3} {'metric':<28} {'unit':<6} "
              f"{'A median [q1, q3]':<34} {'B median [q1, q3]':<34} verdict")
    print(header)
    print("-" * len(header))
    for key in sorted(set(a) & set(b)):
        workload, trace, metric = key
        va, vb = a[key], b[key]
        ma, qa1, qa3 = summary(list(va.values()))
        mb, qb1, qb3 = summary(list(vb.values()))
        cell_a = f"{ma:.6g} [{qa1:.6g}, {qa3:.6g}]"
        cell_b = f"{mb:.6g} [{qb1:.6g}, {qb3:.6g}]"
        bound = bounds.get(metric) if workload in gated and trace == "0" else None
        verdict = ""
        if args.paired and metric in better:
            lower = better[metric] == "lower"
            seeds = sorted(set(va) & set(vb))
            wins = sum(1 for s in seeds if (vb[s] < va[s] if lower else vb[s] > va[s]))
            apart = abs(mb - ma) > (qa3 - qa1)
            improved = mb < ma if lower else mb > ma
            worse_by = ((mb - ma) if lower else (ma - mb)) / abs(ma) if ma else 0.0
            if seeds and wins >= 0.9 * len(seeds) and apart and improved:
                verdict = f"GAIN ({wins}/{len(seeds)} pairs)"
            elif bound is not None and worse_by > bound:
                verdict = f"REGRESSION ({worse_by:+.1%} > {bound:.0%})"
            else:
                verdict = f"no claim ({wins}/{len(seeds)} pairs)"
        elif not args.paired and bound is not None:
            # Each set's quartile spread must also stay within the bound;
            # set-up time is exempt, as its spread is not a repeatability
            # measure but the cost being tracked.
            apart = abs(mb - ma) / abs(ma) if ma else 0.0
            sa, sb = spread(list(va.values())), spread(list(vb.values()))
            ok = apart <= bound and (metric == "setup_s" or max(sa, sb) <= bound)
            disagreements += 0 if ok else 1
            verdict = (f"{'agree' if ok else 'DISAGREE'} "
                       f"(medians {apart:.1%} apart, spreads "
                       f"{sa:.1%}/{sb:.1%}, bound {bound:.0%})")
        if trace == "0":
            baseline.setdefault(workload, {})[metric] = {
                "unit": units[metric],
                "bound": bound,
                "a": {"median": ma, "iqr": qa3 - qa1, "runs": len(va)},
                "b": {"median": mb, "iqr": qb3 - qb1, "runs": len(vb)},
            }
        run = "T" if trace == "1" else "-"
        print(f"{workload:<15} {run:<3} {metric:<28} {units[metric]:<6} {cell_a:<34} {cell_b:<34} {verdict}")

    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump({"sets": [args.a, args.b], "baseline": baseline}, f, indent=1)
            f.write("\n")
    if not args.paired and disagreements:
        print(f"\n{disagreements} (metric, workload) pairs do not agree within their bound")
        sys.exit(1)


if __name__ == "__main__":
    main()
