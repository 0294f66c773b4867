#!/usr/bin/env python3
"""Build and run the end-to-end CP-ALS benchmark.

One workload, as a benchmark harness calls it:

    python3 benchmark/run.py --workload hub4d --seed 3 --seconds 15 --trace 0

prints a table of the workload's end-to-end metrics (--trace 0) or per-layer
metrics (--trace 1) and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. A --trace 1 run first repeats
the untraced run, so it can report trace.overhead_share.

Every workload, as a person calls it:

    python3 benchmark/run.py [--runs K] [--seed S] [--label L]

runs each workload K times untraced (seeds S..S+K-1) and once traced (seed S)
and prints every metric with its unit. Either way the results land in
benchmark/results/<label>/<workload>.<seed>[.trace].json, which compare.py
reads. Exits 1 if any op failed or any output check failed.

Standard library only. Builds benchmark/ (Release) into benchmark/build first.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "mdcp_benchmark")
# Every run of one invocation must end within 180 s.
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("run.py: no library sources at " + ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "mdcp_benchmark",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace, label, deadline):
    out_dir = os.path.join(HERE, "results", label)
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "%s.%d%s.json"
                       % (workload, seed, ".trace" if trace else ""))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", out]
    if trace:
        cmd.append("--trace")
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("run.py: %s printed no result (exit %d)"
                 % (workload, proc.returncode))
    return json.loads(lines[-1])


def fmt(v):
    if isinstance(v, bool):
        return str(v).lower()
    return "%.6g" % v if isinstance(v, (int, float)) else str(v)


def print_table(header, rows):
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())


def with_overhead(traced, untraced_iter_s):
    layer = dict(traced["per_layer"])
    layer["trace.overhead_share"] = (
        traced["end_to_end"]["iter_s"] / untraced_iter_s - 1)
    return layer


def one_workload(spec, args):
    """One workload, untraced or traced; ends with the result line."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # A traced run splits its time between the untraced and the traced half.
    seconds = args.seconds / 2 if args.trace else args.seconds
    results = [run_binary(args.workload, args.seed, seconds, False,
                          args.label, deadline)]
    if args.trace:
        results.append(run_binary(args.workload, args.seed, seconds, True,
                                  args.label, deadline))
        values = with_overhead(results[1],
                               results[0]["end_to_end"]["iter_s"])
        wanted = spec["per_layer"]
    else:
        values = results[0]["end_to_end"]
        wanted = spec["end_to_end"]
    for r in results:
        for e in r["errors"]:
            print("error:", e, file=sys.stderr)
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            sys.exit("run.py: %s reported no %s" % (args.workload, m["name"]))
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print_table(["metric", "unit", args.workload],
                [[n, v["unit"], fmt(v["value"])] for n, v in metrics.items()])
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def all_workloads(spec, args):
    """Every workload: --runs untraced runs and one traced run each."""
    names = [w["name"] for w in spec["workloads"]]
    e2e, layer, ok = {}, {}, True
    for name in names:
        runs = []
        for k in range(args.runs):
            deadline = time.monotonic() + RUN_TIMEOUT_S
            runs.append(run_binary(name, args.seed + k, args.seconds, False,
                                   args.label, deadline))
        traced = run_binary(name, args.seed, args.seconds, True, args.label,
                            time.monotonic() + RUN_TIMEOUT_S)
        for r in runs + [traced]:
            ok = ok and r["correct"]
            for e in r["errors"]:
                print("error: %s: %s" % (name, e), file=sys.stderr)
        e2e[name] = {m: statistics.median(r["end_to_end"][m] for r in runs)
                     for m in runs[0]["end_to_end"]
                     if all(m in r["end_to_end"] for r in runs)}
        e2e[name]["ops"] = statistics.median(r["attempted"] for r in runs)
        e2e[name]["fail_rate"] = (sum(r["failed"] for r in runs)
                                  / sum(r["attempted"] for r in runs))
        layer[name] = with_overhead(traced, e2e[name]["iter_s"])
        layer[name]["replay_bitwise"] = traced["replay_bitwise"]
        layer[name]["engines"] = " ".join(traced["engines"])

    print("\nEnd to end (median of %d untraced run(s), per workload)"
          % args.runs)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    # Reported beside the bounded metrics: the final fit, decompose_s.p90
    # where a run has >= 100 ops, the op count and the failure share.
    units.update({"final_fit": "fraction", "decompose_s.p90": "s",
                  "ops": "count", "fail_rate": "ratio"})
    print_table(["metric", "unit"] + names,
                [[m, u] + [fmt(e2e[n].get(m, "-")) for n in names]
                 for m, u in units.items()])
    print("\nPer layer (traced run, seed %d)" % args.seed)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    units.update({"replay_bitwise": "bool", "engines": "name"})
    print_table(["metric", "unit"] + names,
                [[m, u] + [fmt(layer[n].get(m, "-")) for n in names]
                 for m, u in units.items()])
    return 0 if ok else 1


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                   help="run one workload (default: all of them)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"],
                   help="length of each run's timed loop")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="with --workload: report per-layer metrics")
    p.add_argument("--runs", type=int, default=1,
                   help="without --workload: untraced runs per workload")
    p.add_argument("--label", default="latest",
                   help="results directory name under benchmark/results")
    args = p.parse_args()
    build()
    if args.workload:
        return one_workload(spec, args)
    return all_workloads(spec, args)


if __name__ == "__main__":
    sys.exit(main())
