/**
 * @file
 * ssmt_trace: run registered workloads with the observability layer
 * switched on and write the captured artifacts —
 *
 *   <out-dir>/<workload>.series.json   interval time-series +
 *                                      occupancy histograms
 *                                      (schema ssmt-series-v1)
 *   <out-dir>/<workload>.trace.json    Chrome trace-event JSON;
 *                                      load via Perfetto
 *                                      (ui.perfetto.dev) or
 *                                      chrome://tracing
 *   <out-dir>/<workload>.trace.jsonl   with --jsonl: every pipeline
 *                                      event streamed as one JSON
 *                                      line (unbounded capture)
 *
 * Both artifacts are deterministic: identical (workload, config,
 * scale, seed) runs produce byte-identical files regardless of
 * --jobs, because each simulation is an isolated single-threaded
 * core and sampling happens at fixed cycle multiples.
 *
 * Usage:
 *   ssmt_trace --workload a[,b,...]|all [--mode M]
 *              [--sample-interval N] [--trace-capacity N]
 *              [--scale N] [--seed S] [--jobs N] [--out-dir D]
 *              [--jsonl]
 *
 * Exit status: 0 clean, 1 simulation or I/O failure, 2 bad usage.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cli_common.hh"
#include "cpu/trace.hh"
#include "sim/batch_runner.hh"
#include "sim/fsio.hh"
#include "sim/golden.hh"
#include "sim/metrics.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

struct Options
{
    std::vector<std::string> workloads;
    sim::Mode mode = sim::Mode::Microthread;
    bpred::PredictorKind predictor = bpred::PredictorKind::Hybrid;
    uint64_t sampleInterval = 1000;
    size_t traceCapacity = 65536;
    uint64_t scale = 1;
    uint64_t seed = 0x5eed;
    unsigned jobs = 0;
    std::string outDir = ".";
    bool jsonl = false;
};

const char kUsage[] =
    "usage: ssmt_trace --workload a[,b,...]|all [--mode M]\n"
    "          [--predictor hybrid|tage|perceptron]\n"
    "          [--sample-interval N] [--trace-capacity N]\n"
    "          [--scale N] [--seed S] [--jobs N] [--out-dir D]\n"
    "          [--jsonl] [--list-workloads]\n"
    "modes: baseline, oracle-difficult-path, microthread,\n"
    "       microthread-no-predictions, oracle-all-branches\n";

Options
parseOptions(int argc, char **argv)
{
    cli::ArgParser args(argc, argv, kUsage,
                        {{"--workload", "--workloads", true},
                         {"--mode", nullptr, true},
                         {"--predictor", nullptr, true},
                         {"--sample-interval", nullptr, true},
                         {"--trace-capacity", nullptr, true},
                         {"--scale", nullptr, true},
                         {"--seed", nullptr, true},
                         {"--jobs", nullptr, true},
                         {"--out-dir", nullptr, true},
                         {"--jsonl"}});
    if (!args.positionals().empty())
        args.fail("unexpected argument '" + args.positionals()[0] +
                  "'");
    Options opt;
    if (args.has("--mode")) {
        std::string name = args.str("--mode");
        if (!sim::parseMode(name, &opt.mode))
            args.fail("unknown mode '" + name + "'");
    }
    opt.predictor = cli::predictorFlag(args);
    opt.sampleInterval =
        args.u64("--sample-interval", opt.sampleInterval);
    opt.traceCapacity = static_cast<size_t>(
        args.u64("--trace-capacity", opt.traceCapacity));
    opt.scale = args.u64("--scale", opt.scale);
    if (opt.scale == 0)
        args.fail("--scale must be >= 1");
    opt.seed = args.u64("--seed", opt.seed);
    opt.jobs = cli::jobsFlag(args);
    opt.outDir = args.str("--out-dir", opt.outDir);
    opt.jsonl = args.has("--jsonl");
    if (!args.has("--workload"))
        args.fail("--workload is required");
    opt.workloads =
        cli::expandWorkloadList(args.str("--workload"));
    if (opt.workloads.empty())
        args.fail("--workload is required");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);

    // The golden machine config keeps these artifacts comparable with
    // the committed snapshots; only the observability knobs (and any
    // explicit --mode) differ.
    sim::MachineConfig cfg = sim::goldenMachineConfig();
    cfg.mode = opt.mode;
    cfg.predictor = opt.predictor;
    cfg.sampleInterval = opt.sampleInterval;
    cfg.traceCapacity = opt.traceCapacity;

    workloads::WorkloadParams params;
    params.scale = opt.scale;
    params.seed = opt.seed;

    std::vector<sim::BatchJob> batch;
    batch.reserve(opt.workloads.size());
    for (const std::string &name : opt.workloads) {
        const workloads::WorkloadInfo *info =
            workloads::findWorkload(name);
        if (!info) {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         name.c_str());
            return 2;
        }
        sim::MachineConfig job_cfg = cfg;
        if (opt.jsonl)
            job_cfg.tracePath = opt.outDir + "/" + name + ".trace.jsonl";
        batch.push_back({name, info->make(params), job_cfg});
    }

    sim::BatchRunner runner(opt.jobs);
    std::vector<sim::BatchResult> results = runner.run(batch);

    int failures = 0;
    for (size_t i = 0; i < results.size(); i++) {
        const std::string &name = batch[i].name;
        const sim::BatchResult &result = results[i];
        if (!result.ok()) {
            std::fprintf(stderr, "%s: simulation failed: %s\n",
                         name.c_str(), result.error.c_str());
            failures++;
            continue;
        }

        std::string config_name = sim::modeName(batch[i].config.mode);
        if (opt.sampleInterval > 0) {
            std::string path =
                opt.outDir + "/" + name + ".series.json";
            if (!sim::writeSeriesFile(path, result.artifacts.series,
                                      name, config_name)) {
                std::fprintf(stderr, "%s: cannot write %s\n",
                             name.c_str(), path.c_str());
                failures++;
                continue;
            }
            std::printf("%s: %zu samples (interval %llu) -> %s\n",
                        name.c_str(),
                        result.artifacts.series.samples.size(),
                        static_cast<unsigned long long>(
                            result.artifacts.series.interval),
                        path.c_str());
        }
        if (opt.traceCapacity > 0) {
            std::string path =
                opt.outDir + "/" + name + ".trace.json";
            if (!sim::writeFileAtomic(
                    path, cpu::chromeTraceJson(result.artifacts.trace))) {
                std::fprintf(stderr, "%s: cannot write %s\n",
                             name.c_str(), path.c_str());
                failures++;
                continue;
            }
            std::printf("%s: %zu trace records -> %s\n", name.c_str(),
                        result.artifacts.trace.size(), path.c_str());
        }
        if (opt.jsonl) {
            std::printf("%s: JSONL stream -> %s\n", name.c_str(),
                        batch[i].config.tracePath.c_str());
        }
    }

    if (failures) {
        std::fputs(sim::BatchRunner::failureSummary(batch, results)
                       .c_str(),
                   stderr);
        return 1;
    }
    return 0;
}
