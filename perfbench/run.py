#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S]
                             [--trace 0|1] [--out-dir DIR]

Builds the ssmt library, ssmt_server and the benchmark driver from
this checkout's sources (CMake, Release) under $CARGO_TARGET_DIR
(default .bench_build), runs the driver in a fresh private directory
that is removed afterwards, checks every output, and prints as its
last line one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (a separate run of the same workload and seed
that also records spans). Each result is also saved, with the host
fingerprint, under --out-dir (default <build>/perfbench-results) for
perfbench/compare.py.

Workloads: sim-baseline, sim-microthread, serve-mixed (see
perfbench/README.md). Exit status: 0 with a
result printed; non-zero, and no result, when the build or the run
fails.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, HERE)
import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ["sim-baseline", "sim-microthread", "serve-mixed"]
# The driver's budget: with the (incremental) build check, a run ends
# well within three minutes.
RUN_BUDGET_S = 170


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(build_dir):
    """Configure (once, Release) and build; output goes to stderr.
    The driver itself refuses to time an unoptimised build."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target",
           "perfbench_driver", "ssmt_server"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def declared_units():
    """Metric name -> unit, end-to-end and per-layer, as BENCHMARK.json
    declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def die_with_parent():
    """In the child before exec: SIGKILL it if this script dies."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG,
                                            signal.SIGKILL)


def stop_group(proc):
    """Stop the driver's whole process group (driver, its servers and
    their children) and wait for the driver."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        try:
            proc.wait(timeout=5)
            break
        except subprocess.TimeoutExpired:
            continue
    proc.wait()


def run_driver(cmd, budget_s):
    """Run the driver in its own process group; stop the group on
    overrun or when this script is told to stop."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True,
                            preexec_fn=die_with_parent)

    def on_signal(signum, _frame):
        stop_group(proc)
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)
    try:
        return proc.wait(timeout=budget_s)
    except subprocess.TimeoutExpired:
        log("run exceeded %ds; stopping it" % budget_s)
        stop_group(proc)
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    broot = build_root()
    build_dir = os.path.join(broot, "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1

    out_dir = args.out_dir or os.path.join(broot, "perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    work_dir = os.path.join(broot, "perfbench-work",
                            "%s-p%d" % (tag, os.getpid()))
    raw_path = work_dir + ".raw.json"
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--repo-root", ROOT,
           "--server-bin", os.path.join(build_dir, "ssmt-tools",
                                        "ssmt_server"),
           "--work-dir", work_dir, "--out", raw_path]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out_dir, tag + ".spans.json")]
    try:
        rc = run_driver(cmd, RUN_BUDGET_S)
        if rc != 0:
            log("driver failed (exit %s)" % rc)
            return 1
        with open(raw_path) as f:
            raw = json.load(f)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.exists(raw_path):
            os.remove(raw_path)

    loop = raw["loop"]
    attempted = len(loop["ok"])
    failed = metrics.failure_count(loop["ok"])
    if metrics.beyond(attempted, 90) < 10:
        log("only %d operations: fewer than ten lie beyond p90" % attempted)
    e2e_units, layer_units = declared_units()
    if args.trace:
        values, units = metrics.per_layer(raw), layer_units
    else:
        values, units = metrics.end_to_end(raw), e2e_units
    correct = raw["failed_checks"] == 0 and failed == 0
    fingerprint = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "python": platform.python_version(),
    }
    record = {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "host": fingerprint, "stats_digest": raw["digest"],
        "checks": raw["checks"], "failed_checks": raw["failed_checks"],
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    with open(os.path.join(out_dir, "%s-%d.json" % (tag, time.time_ns())),
              "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("host: %s" % json.dumps(fingerprint, sort_keys=True))
    print("stats digest %s seed %d: %s" % (args.workload, args.seed,
                                           raw["digest"]))
    print("checks: %d made, %d failed; operations: %d attempted, %d "
          "failed" % (raw["checks"], raw["failed_checks"], attempted,
                      failed))
    for name in units:
        print("  %-34s %14.6g %s" % (name, values[name], units[name]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
