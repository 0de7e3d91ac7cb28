"""Metric arithmetic of the benchmark: the single place where raw
driver samples become reported numbers, and where two sets of runs
are compared. Standard library only.

Raw records (schema perfbench-raw-v1) come from perfbench_driver;
see perfbench/README.md for what each metric means.
"""

import math
import statistics

# The driver's op kind of one sim-* cell (OpKind::Cell); requests of
# the service workloads have other kinds.
CELL = 0

# The exact simulated counts a traced run reports.
COUNTS = [
    "cpu.cycles", "cpu.fetch_bubble_cycles", "bpred.cond_mispredicts",
    "bpred.used_mispredicts", "memory.l1d_misses", "memory.l2_misses",
    "core.spawn_attempts", "core.spawns", "core.aborts_post_spawn",
    "core.micro_ops", "core.promotions", "core.pcache_hits",
]

def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, p):
    """How many of n samples lie beyond the nearest-rank p-th
    percentile; a reported percentile needs at least ten."""
    return n - max(1, math.ceil(p / 100.0 * n))


def geomean(values):
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(num, den):
    return num / den if den else 0.0


def failure_count(ok_flags):
    """Failed operations: every op whose ok flag is not 1."""
    return sum(1 for ok in ok_flags if ok != 1)


def _ops(loop):
    return [
        dict(kind=k, ns=ns, insts=i, fresh=f, cached=c, key=key, ok=ok)
        for k, ns, i, f, c, key, ok in zip(
            loop["kind"], loop["ns"], loop["insts"], loop["fresh"],
            loop["cached"], loop["key"], loop["ok"])
    ]


def proxy_medians(ops):
    """Cell ops (sim-* workloads, where every pass repeats the same
    cells): proxy index -> (retired instructions, median host time
    over the run's passes)."""
    runs = {}
    for op in ops:
        runs.setdefault(op["key"], []).append(op)
    return {key: (mine[0]["insts"], median([op["ns"] for op in mine]))
            for key, mine in sorted(runs.items())}


def sim_mips(ops):
    """Geomean of simulated MIPS. Cell ops: per proxy, its retired
    instructions over its median run. Other workloads: per request
    that simulated, the instructions it simulated over its latency.
    0 when no operation qualifies (every one failed)."""
    cells = [op for op in ops if op["kind"] == CELL and op["ok"] == 1]
    if cells:
        per = [insts * 1e3 / ns
               for insts, ns in proxy_medians(cells).values()]
    else:
        per = [op["insts"] * 1e3 / op["ns"] for op in ops
               if op["fresh"] > 0 and op["insts"] > 0 and op["ok"] == 1]
    return geomean(per) if per else 0.0


def loop_metrics(loop):
    """The latency and throughput metrics of one timed loop.

    Every pass of a sim-* workload repeats the same cells, so its
    timings are medians over the run: suite_s is the sum of each
    proxy's median run, the rates are cells over that pass, the
    latency median is the median of the proxies' median runs, and
    p90 is over every cell run. On a shared host, contention from
    other tenants comes and goes within seconds; a median over the
    whole run sits in its usual level, where a minimum would depend
    on the run's single quietest moment. (Each proxy runs equally
    often, so the median of every run would fall between two
    proxies' runs and read one's slowest run against the other's
    fastest.) Service passes differ in work (each covers part of a
    fixed rotation), so suite_s there is the mean pass."""
    ops = _ops(loop)
    ns = [op["ns"] for op in ops]
    if ops and all(op["kind"] == CELL for op in ops):
        medians = proxy_medians(ops)
        suite_ns = sum(mid for _, mid in medians.values())
        mid_ns = median([mid for _, mid in medians.values()])
        cold_ns = mid_ns
        req_per_s = cells_per_s = len(medians) / (suite_ns / 1e9)
    else:
        suite_ns = statistics.fmean(loop["pass_ns"])
        mid_ns = median(ns)
        cold_ns = median([op["ns"] for op in ops if op["fresh"] > 0])
        seconds = loop["loop_ns"] / 1e9
        req_per_s = len(ops) / seconds
        cells_per_s = sum(op["fresh"] for op in ops) / seconds
    return {
        "sim_mips": sim_mips(ops),
        "suite_s": suite_ns / 1e9,
        "req_ms_p50": mid_ns / 1e6,
        "req_ms_p90": percentile(ns, 90) / 1e6,
        "cold_ms_p50": cold_ns / 1e6,
        "req_per_s": req_per_s,
        "cells_per_s": cells_per_s,
    }


def end_to_end(raw):
    """Every end-to-end metric of an untraced run, by name."""
    loop = raw["loop"]
    attempted = len(loop["ok"])
    failed = failure_count(loop["ok"])
    values = loop_metrics(loop)
    values["setup_s"] = median(raw["setup_ns"]) / 1e9
    values["peak_rss_mb"] = raw["peak_rss_kb"] / 1024.0
    values["ok_frac"] = 1.0 - ratio(failed, attempted)
    return values


def per_layer(raw):
    """Every per-layer metric of a traced run, by name."""
    v = raw["layer_values"]
    s = raw["layer_samples"]
    cells = v["wholerun.cells"]
    insts = v["cpu.retired_insts"]
    isa = ratio(v["isa.ns"], v["isa.insts"])
    bp = ratio(v["bpred.ns"], v["bpred.branches"])
    mem = ratio(v["memory.ns"], v["memory.accesses"])
    vp = ratio(v["vpred.ns"], v["vpred.trains"])
    path = ratio(v["core.ns"], v["core.updates"])
    cpu_per_inst = ratio(v["wholerun.run_ns"], insts)
    replay_per_inst = isa + ratio(
        bp * v["weights.cond"] + mem * v["weights.mem"] +
        vp * v["weights.trains"] + path * v["weights.updates"],
        v["weights.insts"])
    ops = _ops(raw["loop"])
    traced = loop_metrics(raw["traced_loop"])
    untraced = loop_metrics(raw["loop"])
    delivered = (v["core.pred_early"] + v["core.pred_late"] +
                 v["core.pred_useless"] + v["core.pred_never_reached"])
    out = {
        "isa.ns_per_inst": isa,
        "bpred.ns_per_branch": bp,
        "bpred.replay_miss_rate": ratio(v["bpred.misses"],
                                        v["bpred.branches"]),
        "memory.ns_per_access": mem,
        "vpred.ns_per_train": vp,
        "core.ns_per_path_update": path,
        "workloads.make_ms": ratio(v["workloads.make_ns"],
                                   v["workloads.makes"]) / 1e6,
        "cpu.construct_ms": ratio(v["wholerun.construct_ns"], cells) / 1e6,
        "cpu.run_ms": ratio(v["wholerun.run_ns"], cells) / 1e6,
        "cpu.ns_per_inst": cpu_per_inst,
        "cpu.ns_per_cycle": ratio(v["wholerun.run_ns"], v["cpu.cycles"]),
        "cpu.ns_per_event": ratio(v["wholerun.run_ns"],
                                  insts + v["core.micro_ops"]),
        "cpu.residual_ns_per_inst": cpu_per_inst - replay_per_inst,
        "sim.check_ms": ratio(v["wholerun.checked_ns"] -
                              v["wholerun.construct_ns"] -
                              v["wholerun.run_ns"], cells) / 1e6,
        "sim.store_load_ms": ratio(v["store.load_ns"],
                                   v["store.cells"]) / 1e6,
        "sim.store_save_ms": ratio(v["store.save_ns"],
                                   v["store.cells"]) / 1e6,
        "sim.journal_append_ms": ratio(v["journal.append_ns"],
                                       v["store.cells"]) / 1e6,
        "sim.manifest_ms": v["manifest.ns"] / 1e6,
        "sim.codec_encode_us": ratio(v["codec.encode_ns"],
                                     v["codec.docs"]) / 1e3,
        "sim.codec_decode_us": ratio(v["codec.decode_ns"],
                                     v["codec.docs"]) / 1e3,
        "sim.codec_doc_kb": ratio(v["codec.bytes"], v["codec.docs"]) / 1024,
        "sim.taskrt_dispatch_us": ratio(v["taskrt.ns"],
                                        v["taskrt.tasks"]) / 1e3,
        "sim.proc_overhead_ms": ratio(v["proc.isolated_ns"] -
                                      v["proc.inprocess_ns"],
                                      v["proc.cells"]) / 1e6,
        "sim.hit_ratio": ratio(sum(op["cached"] for op in ops),
                               sum(op["cached"] + op["fresh"]
                                   for op in ops)),
        "tools.connect_us": median(s["tools.connect_ns"]) / 1e3,
        "tools.ping_us": median(s["tools.ping_ns"]) / 1e3,
        "tools.first_event_ms": median(s["tools.first_event_ns"]) / 1e6,
        "tools.stream_ms": median(s["tools.stream_ns"]) / 1e6,
        "tools.kb_per_req": median(s["tools.reply_bytes"]) / 1024,
        "tools.server_rss_mb": v["tools.server_hwm_kb"] / 1024,
        "tools.server_vm_mb_per_100_conn":
            (v["tools.vm_kb_after"] - v["tools.vm_kb_before"]) / 1024 *
            100 / v["tools.vm_connections"],
        "core.spawn_ratio": ratio(v["core.spawns"],
                                  v["core.spawn_attempts"]),
        "core.timely_pred_ratio": ratio(v["core.pred_early"] +
                                        v["core.pred_late"], delivered),
        "trace.req_ms_p50_delta": traced["req_ms_p50"] -
                                  untraced["req_ms_p50"],
    }
    for name in COUNTS:
        out[name] = v[name]
    return out


# ---- comparing two sets of runs --------------------------------------

def quartiles(values):
    """First and third quartile (statistics.quantiles, n=4)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Distance between the first and third quartile, as a share of
    the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def worse_by(parent, change, better):
    """How much worse the change's median is than the parent's, as a
    share of the parent's median (negative when it is better)."""
    p, c = median(parent), median(change)
    if p == 0:
        return 0.0 if c == p else math.inf
    delta = (c - p) / abs(p)
    return delta if better == "lower" else -delta


def win_rate(parent, change, better):
    """Share of pairs (i-th parent run with i-th change run) the
    change wins; ties count for neither side."""
    pairs = list(zip(parent, change))
    if not pairs:
        return 0.0
    wins = sum(1 for p, c in pairs
               if (c < p if better == "lower" else c > p))
    return wins / len(pairs)


def verdict(parent, change, better, bound, wins):
    """One metric's comparison, following the benchmark's rules, given
    the share of seed-paired runs the change wins (win_rate of the
    runs whose seeds both sides ran):
    - 'regressed' when the change's median is worse than the
      parent's by more than the bound;
    - 'improved' when the change wins at least nine tenths of the
      pairs and the medians differ by more than the parent's spread;
    - 'unresolved' when neither holds and the parent's own spread
      exceeds the bound, unless every change run beats every parent
      run;
    - 'unchanged' otherwise."""
    worse = worse_by(parent, change, better)
    own = spread(parent)
    if better == "lower":
        dominates = max(change) < min(parent)
    else:
        dominates = min(change) > max(parent)
    if bound is not None and worse > bound:
        return "regressed"
    if wins >= 0.9 and -worse > own:
        return "improved"
    if bound is not None and own > bound and not dominates:
        return "unresolved"
    return "unchanged"
