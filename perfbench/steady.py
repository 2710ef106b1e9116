#!/usr/bin/env python3
"""Steadiness tool: run a workload K times and report the spread.

    python3 perfbench/steady.py --workload verify --runs 10 [--seed0 1]
                                [--seconds 45] [--sets 1] [--json-out FILE]

Run k uses seed seed0 + k. For each end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4), the quartile spread as
a share of the median next to the metric's bound from BENCHMARK.json, and
the max/min ratio. It also sums every run's latency histogram (in
multiples of that run's median), so a second latency mode shows up as
mass away from the 0.95-1.05 bin. With --sets 2 the K runs are repeated
and the shift between the two sets' medians is printed too.
"""
import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def load_bounds():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def one_set(binary, args, workload):
    runs, hist = [], None
    for k in range(args.runs):
        seed = args.seed0 + k
        rc, lines = bench.run_bench(binary, workload, seed, args.seconds, 0, echo=False)
        res = bench.result_of(lines)
        if rc != 0 or res is None:
            bench.fail(f"{workload} seed {seed} exited {rc} without a result")
        for line in lines:
            if line.startswith("hist_vs_p50 "):
                h = json.loads(line[len("hist_vs_p50 "):])
                if hist is None:
                    hist = h
                else:
                    hist["counts"] = [a + b for a, b in zip(hist["counts"], h["counts"])]
        vals = {n: m["value"] for n, m in res["metrics"].items()}
        print(f"  seed {seed:3d}: " + "  ".join(f"{n}={v:.6g}" for n, v in vals.items())
              + f"  failed={res['failed']}/{res['attempted']}", flush=True)
        runs.append({"seed": seed, "result": res})
    return runs, hist


def report(workload, runs, hist, bounds):
    print(f"\n{workload}: {len(runs)} runs")
    print(f"  {'metric':18s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>8s} {'bound/3':>8s} {'max/min':>8s}")
    medians = {}
    for name in runs[0]["result"]["metrics"]:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        medians[name] = med
        spread = (q3 - q1) / med
        third = bounds[name]["bound"] / 3 if name in bounds else float("nan")
        flag = "" if name == "setup_s" or spread < third else "  <- above bound/3"
        print(f"  {name:18s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{third:8.4f} {max(vals) / min(vals):8.4f}{flag}")
    if hist:
        total = sum(hist["counts"]) or 1
        edges = hist["edges"]
        labels = ([f"< {edges[0]:g}"] + [f"{a:g}-{b:g}" for a, b in zip(edges, edges[1:])]
                  + [f">= {edges[-1]:g}"])
        print("  latency histogram, multiples of each run's p50 (all runs):")
        for label, c in zip(labels, hist["counts"]):
            print(f"    {label:>10s} {c:8d} {'#' * round(60 * c / total)}")
    return medians


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=bench.WORKLOADS + bench.BY_HAND + ["all"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--json-out", help="write every run's result here")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    binary = bench.ensure_built()
    bounds = load_bounds()
    workloads = bench.WORKLOADS if args.workload == "all" else [args.workload]
    raw = {}
    for w in workloads:
        sets = []
        for s in range(args.sets):
            print(f"{w}: set {s + 1} of {args.sets}", flush=True)
            runs, hist = one_set(binary, args, w)
            sets.append(report(w, runs, hist, bounds))
            raw.setdefault(w, []).append(runs)
        for s in range(1, len(sets)):
            print(f"  median shift, set {s + 1} vs set 1 (bound):")
            for name, med in sets[s].items():
                shift = med / sets[0][name] - 1
                print(f"    {name:18s} {shift:+8.4f} ({bounds[name]['bound']:.2f})")
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(raw, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
