/**
 * @file
 * perfbench_driver: runs one benchmark workload and writes its raw
 * record (integer samples and counts, schema perfbench-raw-v1).
 * perfbench/run.py builds this, runs it and turns the record into
 * the reported metrics.
 *
 * Usage:
 *   perfbench_driver --workload W --seed N --seconds S --trace 0|1
 *                    --repo-root DIR --server-bin PATH
 *                    --work-dir DIR --out FILE [--trace-out FILE]
 *
 * The driver runs inside --work-dir (created; every file it writes
 * lands there, and every server it starts uses a socket and root
 * there). Exit status: 0 with the record written; 1 on an error that
 * leaves no record; 2 bad usage; 3 refused to time an unoptimised
 * build.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "cli_common.hh"
#include "server_client.hh"
#include "sim/fsio.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "workloads.hh"

namespace perfbench
{

void
RunRecord::fail(const std::string &what)
{
    failed++;
    // Keep the record bounded however many checks fail.
    if (failures.size() < 50)
        failures.push_back(what);
    else if (failures.size() == 50)
        failures.push_back("... further failures omitted");
}

void
RunRecord::value(const std::string &name, uint64_t v)
{
    layerValues.emplace_back(name, v);
}

void
RunRecord::samples(const std::string &name, std::vector<uint64_t> v)
{
    layerSamples.emplace_back(name, std::move(v));
}

uint64_t
peakRssKb()
{
    struct rusage usage;
    if (::getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return static_cast<uint64_t>(usage.ru_maxrss);
}

uint64_t
procStatusKb(long pid, const char *field)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    const std::string prefix = std::string(field) + ":";
    while (std::getline(in, line))
        if (line.compare(0, prefix.size(), prefix) == 0)
            return std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
    return 0;
}

namespace
{

void
onSignal(int sig)
{
    killAllServers();
    ::_exit(128 + sig);
}

void
writeLoop(ssmt::sim::SnapshotWriter &w, const char *key,
          const LoopRecord &loop)
{
    std::vector<uint64_t> kind, ns, insts, fresh, cached, opkey, ok;
    for (const Op &op : loop.ops) {
        kind.push_back(static_cast<uint64_t>(op.kind));
        ns.push_back(op.ns);
        insts.push_back(op.insts);
        fresh.push_back(op.freshCells);
        cached.push_back(op.cachedCells);
        opkey.push_back(op.key);
        ok.push_back(op.ok ? 1 : 0);
    }
    w.beginObject(key);
    w.u64Array("kind", kind);
    w.u64Array("ns", ns);
    w.u64Array("insts", insts);
    w.u64Array("fresh", fresh);
    w.u64Array("cached", cached);
    w.u64Array("key", opkey);
    w.u64Array("ok", ok);
    w.u64Array("pass_ns", loop.passNs);
    w.u64("loop_ns", loop.loopNs);
    w.endObject();
}

std::string
recordJson(const Options &opts, const RunRecord &rec)
{
    ssmt::sim::SnapshotWriter w;
    w.beginObject();
    w.str("schema", "perfbench-raw-v1");
    w.str("workload", opts.workload);
    w.u64("seed", opts.seed);
    w.u64("trace", opts.trace ? 1 : 0);
    w.str("build_type", PERFBENCH_BUILD_TYPE);
    w.str("compiler", PERFBENCH_COMPILER);
    w.u64Array("setup_ns", rec.setupNs);
    writeLoop(w, "loop", rec.loop);
    if (opts.trace)
        writeLoop(w, "traced_loop", rec.tracedLoop);
    w.u64("peak_rss_kb", rec.peakRssKb);
    w.u64("checks", rec.checks);
    w.u64("failed_checks", rec.failed);
    w.str("digest", rec.digest);
    w.beginObject("layer_values");
    for (const auto &[name, v] : rec.layerValues)
        w.u64(name.c_str(), v);
    w.endObject();
    w.beginObject("layer_samples");
    for (const auto &[name, v] : rec.layerSamples)
        w.u64Array(name.c_str(), v);
    w.endObject();
    w.endObject();
    return w.text();
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const char usage[] =
        "usage: perfbench_driver --workload W --seed N --seconds S\n"
        "           --trace 0|1 --repo-root DIR --server-bin PATH\n"
        "           --work-dir DIR --out FILE [--trace-out FILE]\n";
    ssmt::cli::ArgParser args(argc, argv, usage,
                              {{"--workload", nullptr, true},
                               {"--seed", nullptr, true},
                               {"--seconds", nullptr, true},
                               {"--trace", nullptr, true},
                               {"--repo-root", nullptr, true},
                               {"--server-bin", nullptr, true},
                               {"--work-dir", nullptr, true},
                               {"--out", nullptr, true},
                               {"--trace-out", nullptr, true}});
    Options opts;
    opts.workload = args.str("--workload");
    opts.seed = std::strtoull(args.str("--seed", "0").c_str(), nullptr, 10);
    opts.seconds = std::strtod(args.str("--seconds", "10").c_str(), nullptr);
    opts.trace = args.str("--trace", "0") == "1";
    opts.repoRoot = args.str("--repo-root");
    opts.serverBin = args.str("--server-bin");
    opts.workDir = args.str("--work-dir");
    opts.out = args.str("--out");
    opts.traceOut = args.str("--trace-out");
    if (opts.repoRoot.empty() || opts.serverBin.empty() ||
        opts.workDir.empty() || opts.out.empty() || !(opts.seconds > 0))
        args.fail("--repo-root, --server-bin, --work-dir, --out and a "
                  "positive --seconds are required");

#ifndef __OPTIMIZE__
    std::fprintf(stderr,
                 "perfbench_driver: built without optimisation (%s); "
                 "refusing to time anything\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
#endif

    ssmt::detail::setFatalThrows(true);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGHUP, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::string err;
    std::unique_ptr<BenchWorkload> workload = makeBenchWorkload(opts, &err);
    if (!workload)
        args.fail(err);
    if (!ssmt::sim::ensureDir(opts.workDir) ||
        ::chdir(opts.workDir.c_str()) != 0) {
        std::fprintf(stderr, "perfbench_driver: cannot enter %s\n",
                     opts.workDir.c_str());
        return 1;
    }

    RunRecord rec;
    uint64_t phase = nowNs();
    // How long each phase took, on stderr: the run's time budget.
    auto lap = [&phase](const char *name) {
        const uint64_t now = nowNs();
        std::fprintf(stderr, "perfbench_driver: %s %.2f s\n", name,
                     (now - phase) / 1e9);
        phase = now;
    };
    try {
        workload->setup(rec);
        lap("setup");
        Spans spans;
        if (opts.trace) {
            // Same workload and seed, half the time untraced and half
            // traced: the difference is the tracing overhead.
            workload->loop(opts.seconds / 2, nullptr, rec.loop);
            workload->loop(opts.seconds / 2, &spans, rec.tracedLoop);
        } else {
            workload->loop(opts.seconds, nullptr, rec.loop);
        }
        // Taken before the checks: their allocations land wherever
        // the loop left the heap, which would make the peak depend on
        // how many passes ran.
        rec.peakRssKb = workload->memoryPeakKb();
        lap("loop");
        workload->check(rec, opts.trace ? &spans : nullptr);
        lap("check");
        if (opts.trace) {
            workload->probes(rec, spans);
            lap("probes");
            if (!opts.traceOut.empty() && !spans.write(opts.traceOut))
                rec.fail("could not write spans to " + opts.traceOut);
        }
    } catch (const std::exception &e) {
        killAllServers();
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }

    for (const std::string &f : rec.failures)
        std::fprintf(stderr, "perfbench_driver: FAILED %s\n", f.c_str());
    if (!ssmt::sim::writeFileAtomic(opts.out, recordJson(opts, rec))) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                     opts.out.c_str());
        return 1;
    }
    return 0;
}
