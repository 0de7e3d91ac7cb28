#!/usr/bin/env python3
"""Compare sets of benchmark runs saved by perfbench/run.py.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py --spread DIR

Two sets: per workload and end-to-end metric, each side's median
and quartiles, how much worse the change's median is than the
parent's (as a share of the parent's median) against the bound in
BENCHMARK.json, the share of seed-paired runs the change wins, and a
verdict: regressed, improved (wins >= 9/10 of pairs and the medians
differ by more than the parent's own spread), unresolved (the
parent's spread exceeds the bound) or unchanged. Traced runs of the
same workload and seed must report identical exact simulated counts
and stats digests on both sides. Exit status 1 when anything
regressed or a count differs.

One set (--spread): per workload and end-to-end metric, the median
and the quartile spread as a share of the median, against the
metric's bound. Exit status 1 when a spread exceeds its bound.
"""

import argparse
import collections
import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, HERE)
import metrics  # noqa: E402


def load_bench():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}


def load_runs(directory):
    """Saved records of @p directory: untraced runs by workload, in
    seed order, and traced runs by (workload, seed)."""
    untraced = collections.defaultdict(list)
    traced = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".spans.json"):
            continue
        with open(path) as f:
            rec = json.load(f)
        if rec["trace"]:
            traced[(rec["workload"], rec["seed"])] = rec
        else:
            untraced[rec["workload"]].append(rec)
    for runs in untraced.values():
        runs.sort(key=lambda r: r["seed"])
    return untraced, traced


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def fmt(vals):
    q1, q3 = metrics.quartiles(vals)
    return "%.5g [%.5g, %.5g]" % (metrics.median(vals), q1, q3)


def spread_report(directory, bench):
    untraced, _ = load_runs(directory)
    bad = 0
    print("%-17s %-12s %4s %28s %8s %6s" % (
        "workload", "metric", "runs", "median [q1, q3]", "spread",
        "bound"))
    for workload in sorted(untraced):
        runs = untraced[workload]
        incorrect = sum(1 for r in runs if not r["correct"])
        for name, spec in bench.items():
            vals = values(runs, name)
            s = metrics.spread(vals)
            flag = "" if s <= spec["bound"] else "  OVER"
            bad += 1 if flag else 0
            print("%-17s %-12s %4d %28s %8.4f %6.2f%s" % (
                workload, name, len(vals), fmt(vals), s, spec["bound"],
                flag))
        if incorrect:
            bad += 1
            print("%-17s %d run(s) not correct" % (workload, incorrect))
    return 1 if bad else 0


def compare_report(parent_dir, change_dir, bench):
    p_untraced, p_traced = load_runs(parent_dir)
    c_untraced, c_traced = load_runs(change_dir)
    bad = 0
    print("%-17s %-12s %28s %28s %8s %6s %5s  %s" % (
        "workload", "metric", "parent", "change", "worse", "bound", "wins",
        "verdict"))
    for workload in sorted(set(p_untraced) & set(c_untraced)):
        parent, change = p_untraced[workload], c_untraced[workload]
        seeds = sorted({r["seed"] for r in parent} &
                       {r["seed"] for r in change})
        by_seed_p = {r["seed"]: r for r in parent}
        by_seed_c = {r["seed"]: r for r in change}
        for name, spec in bench.items():
            pv, cv = values(parent, name), values(change, name)
            paired_p = [by_seed_p[s]["metrics"][name]["value"] for s in seeds]
            paired_c = [by_seed_c[s]["metrics"][name]["value"] for s in seeds]
            worse = metrics.worse_by(pv, cv, spec["better"])
            wins = metrics.win_rate(paired_p, paired_c, spec["better"])
            v = metrics.verdict(pv, cv, spec["better"], spec["bound"],
                                wins)
            bad += 1 if v == "regressed" else 0
            print("%-17s %-12s %28s %28s %+8.4f %6.2f %5.2f  %s" % (
                workload, name, fmt(pv), fmt(cv), worse, spec["bound"],
                wins, v))
        failed = sum(1 for r in change if not r["correct"])
        if failed:
            bad += 1
            print("%-17s %d change run(s) not correct" % (workload, failed))
    for key in sorted(set(p_traced) & set(c_traced)):
        p, c = p_traced[key], c_traced[key]
        diff = [n for n in metrics.COUNTS
                if p["metrics"][n]["value"] != c["metrics"][n]["value"]]
        if p["stats_digest"] != c["stats_digest"]:
            diff.append("stats_digest")
        print("%-17s seed %-6d exact counts %s" % (
            key[0], key[1], "identical" if not diff else
            "DIFFER: " + ", ".join(diff)))
        bad += 1 if diff else 0
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--spread", metavar="DIR")
    ap.add_argument("dirs", nargs="*")
    args = ap.parse_args()
    bench = load_bench()
    if args.spread:
        return spread_report(args.spread, bench)
    if len(args.dirs) != 2:
        ap.error("give PARENT_DIR CHANGE_DIR, or --spread DIR")
    return compare_report(args.dirs[0], args.dirs[1], bench)


if __name__ == "__main__":
    sys.exit(main())
