#!/usr/bin/env python3
"""Run the benchmark over several workloads and seeds into one
directory, one run at a time, for perfbench/compare.py.

    python3 perfbench/sweep.py --out-dir DIR [--workloads a,b]
                               [--seeds 1-10] [--seconds S] [--trace 0|1]

Seeds are a comma list of numbers and ranges (e.g. 1-5,9). Exit
status 1 when any run fails or reports incorrect output.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, HERE)
import run  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def default_seconds():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    seconds = args.seconds or default_seconds()
    status = 0
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace),
                   "--out-dir", args.out_dir]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            ok = proc.returncode == 0 and json.loads(last[0])["correct"]
            print("%-17s seed %-4d %s" % (workload, seed,
                                          "ok" if ok else "FAILED"),
                  flush=True)
            status |= 0 if ok else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
