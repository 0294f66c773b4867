#!/usr/bin/env python3
"""Compare two sets of benchmark runs: python3 benchmark/compare.py BASE NEW

BASE and NEW are results directories written by run.py
(benchmark/results/<label>/). Each holds one <workload>.<seed>.json per
untraced run. For every workload and end-to-end metric in BENCHMARK.json
this prints each side's median and quartiles and one verdict:

  improved    at least 10 pairs (runs with the same seed on both sides),
              NEW better in at least 9/10 of them, and the medians apart by
              more than BASE's interquartile range;
  regressed   NEW's median worse than BASE's by more than the bound;
  unchanged   neither;
  unresolved  a side's interquartile range, as a share of its median, is
              wider than the bound, and not every NEW run beats every BASE
              run.

Failures are compared as a share of attempted ops: any rise regresses.
Exits 1 on any regression, so two sets of runs of the same code must come
out unchanged. Standard library only.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            r = json.load(f)
        runs.setdefault(r["workload"], {})[r["seed"]] = r
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, new, pairs, better, bound):
    """base/new: per-run values; pairs: (base, new) values of equal seeds."""
    sign = 1 if better == "lower" else -1  # sign * (a - b) < 0: a is better
    mb, mn = statistics.median(base), statistics.median(new)
    (b1, b3), (n1, n3) = quartiles(base), quartiles(new)
    spread = max((b3 - b1) / abs(mb), (n3 - n1) / abs(mn))
    every_run_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound and not every_run_better:
        return "unresolved"
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (mb - mn) > b3 - b1):
        return "improved"
    if sign * (mn - mb) / abs(mb) > bound:
        return "regressed"
    return "unchanged"


def summary(values):
    q1, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g]" % (statistics.median(values), q1, q3)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    rows = [["workload", "metric", "bound", "base median [q1, q3]",
             "new median [q1, q3]", "runs", "pairs", "verdict"]]
    regressed = False
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            rows.append([workload, "-", "-", "-", "-", "-", "-",
                         "missing in " + ("BASE" if workload not in base
                                          else "NEW")])
            regressed = True
            continue
        b_runs, n_runs = base[workload], new[workload]
        seeds = sorted(set(b_runs) & set(n_runs))
        counts = "%d/%d" % (len(b_runs), len(n_runs))
        for m in metrics:
            name = m["name"]
            b = [r["end_to_end"][name] for r in b_runs.values()]
            n = [r["end_to_end"][name] for r in n_runs.values()]
            pairs = [(b_runs[s]["end_to_end"][name],
                      n_runs[s]["end_to_end"][name]) for s in seeds]
            v = verdict(b, n, pairs, m["better"], m["bound"])
            regressed = regressed or v == "regressed"
            rows.append([workload, name, "%g" % m["bound"], summary(b),
                         summary(n), counts, str(len(pairs)), v])
        fail = [sum(r["failed"] for r in runs.values())
                / sum(r["attempted"] for r in runs.values())
                for runs in (b_runs, n_runs)]
        v = "regressed" if fail[1] > fail[0] else "unchanged"
        regressed = regressed or v == "regressed"
        rows.append([workload, "fail_rate", "0", "%.6g" % fail[0],
                     "%.6g" % fail[1], counts, str(len(seeds)), v])
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
