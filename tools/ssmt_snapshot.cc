/**
 * @file
 * ssmt_snapshot: save, fan out and verify ssmt-snapshot-v1 machine
 * checkpoints.
 *
 * Subcommands (first positional argument):
 *
 *   save    Run workloads under one mode, checkpoint each machine at
 *           --cycle N and write <out-dir>/<workload>.snapshot.json.
 *           The default mode is baseline: a warmup snapshot taken
 *           before any mechanism state exists restores into *any*
 *           mode, because the mechanism mode is deliberately excluded
 *           from the config fingerprint.
 *
 *   fanout  Restore one warmup snapshot into every non-baseline
 *           mechanism mode and run each to completion — the paper's
 *           mode comparison without re-simulating the warmup four
 *           times. Prints one result line per mode.
 *
 *   verify  The keystone property, end to end: for every workload,
 *           run straight through (checkpointing at --cycle N), then
 *           restore that checkpoint into a fresh machine and resume
 *           to completion. The two runs must agree byte-for-byte in
 *           their canonical golden serialization and their
 *           ssmt-series-v1 metrics series; with --golden-dir the
 *           straight run is additionally required to be byte-identical
 *           to the committed golden/<workload>.json snapshot. A
 *           workload that halts before cycle N is re-checkpointed at
 *           half its actual run length so short workloads still
 *           exercise the resume path.
 *
 * Usage:
 *   ssmt_snapshot save   --cycle N [--workloads a,b,...|all]
 *                        [--mode M] [--sample-interval N]
 *                        [--out-dir D] [--jobs N]
 *   ssmt_snapshot fanout --snapshot FILE --workload NAME
 *                        [--sample-interval N] [--jobs N]
 *   ssmt_snapshot verify --cycle N [--workloads a,b,...|all]
 *                        [--golden-dir D] [--sample-interval N]
 *                        [--jobs N]
 *
 * Exit status: 0 clean, 1 verification failure or failed run, 2 bad
 * usage or unreadable input.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cli_common.hh"
#include "sim/batch_runner.hh"
#include "sim/fsio.hh"
#include "sim/golden.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/sim_error.hh"
#include "sim/snapshot.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

const char kUsage[] =
    "usage: ssmt_snapshot save   --cycle N"
    " [--workloads a,b,...|all]\n"
    "                            [--mode M] [--sample-interval N]\n"
    "                            [--predictor hybrid|tage|perceptron]\n"
    "                            [--out-dir D] [--jobs N]\n"
    "       ssmt_snapshot fanout --snapshot FILE --workload NAME\n"
    "                            [--sample-interval N] [--jobs N]\n"
    "       ssmt_snapshot verify --cycle N"
    " [--workloads a,b,...|all]\n"
    "                            [--golden-dir D]"
    " [--sample-interval N]\n"
    "                            [--jobs N]\n"
    "modes: baseline, oracle-difficult-path, microthread,\n"
    "       microthread-no-predictions, oracle-all-branches\n";

struct Options
{
    std::string command;
    std::vector<std::string> workloads;
    sim::Mode mode = sim::Mode::Baseline;
    bpred::PredictorKind predictor = bpred::PredictorKind::Hybrid;
    uint64_t cycle = 0;
    uint64_t sampleInterval = 0;
    unsigned jobs = 0;
    std::string outDir = ".";
    std::string goldenDir;
    std::string snapshotPath;
};

Options
parseOptions(int argc, char **argv)
{
    cli::ArgParser args(argc, argv, kUsage,
                        {{"--workloads", "--workload", true},
                         {"--mode", nullptr, true},
                         {"--predictor", nullptr, true},
                         {"--cycle", nullptr, true},
                         {"--sample-interval", nullptr, true},
                         {"--jobs", nullptr, true},
                         {"--out-dir", nullptr, true},
                         {"--golden-dir", nullptr, true},
                         {"--snapshot", nullptr, true}});
    if (args.positionals().size() != 1)
        args.fail("expected exactly one subcommand "
                  "(save, fanout or verify)");
    Options opt;
    opt.command = args.positionals()[0];
    if (opt.command != "save" && opt.command != "fanout" &&
        opt.command != "verify")
        args.fail("unknown subcommand '" + opt.command + "'");
    if (args.has("--workloads"))
        opt.workloads =
            cli::expandWorkloadList(args.str("--workloads"));
    if (args.has("--mode")) {
        std::string name = args.str("--mode");
        if (!sim::parseMode(name, &opt.mode))
            args.fail("unknown mode '" + name + "'");
    }
    opt.predictor = cli::predictorFlag(args);
    opt.cycle = args.u64("--cycle");
    opt.sampleInterval =
        args.u64("--sample-interval", opt.sampleInterval);
    opt.jobs = cli::jobsFlag(args);
    opt.outDir = args.str("--out-dir", opt.outDir);
    opt.goldenDir = args.str("--golden-dir");
    opt.snapshotPath = args.str("--snapshot");

    if (opt.command == "fanout") {
        if (opt.snapshotPath.empty())
            args.fail("fanout needs --snapshot FILE");
        if (opt.workloads.size() != 1)
            args.fail("fanout needs --workload NAME (exactly one)");
    } else {
        if (opt.cycle == 0)
            args.fail(opt.command + " needs --cycle N (N >= 1)");
        if (opt.workloads.empty())
            opt.workloads = workloads::workloadNames();
    }
    return opt;
}

/** The structural config every subcommand simulates under: the
 *  pinned golden machine, with only the mode / observability knobs
 *  (fingerprint-relevant sampleInterval included) varied. */
sim::MachineConfig
makeConfig(const Options &opt, sim::Mode mode)
{
    sim::MachineConfig cfg = sim::goldenMachineConfig();
    cfg.mode = mode;
    cfg.predictor = opt.predictor;
    cfg.sampleInterval = opt.sampleInterval;
    return cfg;
}

/**
 * Print the failed slots of @p results (one line each) and count
 * them.
 */
int
reportFailures(const std::vector<sim::BatchJob> &batch,
               const std::vector<sim::BatchResult> &results)
{
    std::fputs(sim::BatchRunner::failureSummary(batch, results).c_str(),
               stderr);
    int failures = 0;
    for (const sim::BatchResult &result : results)
        failures += result.ok() ? 0 : 1;
    return failures;
}

/**
 * Run every workload of @p suite straight through under @p cfg,
 * checkpointing at --cycle; @p batch receives the jobs. Jobs that
 * halt before their checkpoint fires (short workloads) run again in
 * a second batch, checkpointing at half their observed run length.
 * A successful result with an empty snapshot means even that
 * fallback could not produce one.
 */
std::vector<sim::BatchResult>
runWithSnapshots(const Options &opt,
                 const std::vector<workloads::WorkloadInfo> &suite,
                 const sim::MachineConfig &cfg,
                 std::vector<sim::BatchJob> &batch)
{
    for (const workloads::WorkloadInfo &info : suite) {
        batch.push_back({info.name, info.make({}), cfg});
        batch.back().snapshotAtCycle = opt.cycle;
    }
    sim::BatchRunner runner(opt.jobs);
    std::vector<sim::BatchResult> results = runner.run(batch);
    std::vector<size_t> short_runs;
    std::vector<sim::BatchJob> retry;
    for (size_t i = 0; i < batch.size(); i++) {
        uint64_t fallback = results[i].stats.cycles / 2;
        if (results[i].ok() && results[i].artifacts.snapshot.empty() &&
            fallback > 0) {
            batch[i].snapshotAtCycle = fallback;
            short_runs.push_back(i);
            retry.push_back(batch[i]);
        }
    }
    std::vector<sim::BatchResult> rerun = runner.run(retry);
    for (size_t k = 0; k < short_runs.size(); k++)
        results[short_runs[k]] = std::move(rerun[k]);
    return results;
}

int
runSave(const Options &opt)
{
    std::vector<workloads::WorkloadInfo> suite =
        cli::resolveWorkloads(opt.workloads, "ssmt_snapshot");
    sim::MachineConfig cfg = makeConfig(opt, opt.mode);
    std::vector<sim::BatchJob> batch;
    std::vector<sim::BatchResult> results =
        runWithSnapshots(opt, suite, cfg, batch);

    int failures = reportFailures(batch, results);
    for (size_t i = 0; i < batch.size(); i++) {
        if (!results[i].ok())
            continue;
        const std::string &name = batch[i].name;
        const sim::RunArtifacts &artifacts = results[i].artifacts;
        std::string path = opt.outDir + "/" + name + ".snapshot.json";
        std::string error;
        if (artifacts.snapshot.empty())
            error = "run too short to checkpoint";
        else if (!sim::writeFileAtomic(path, artifacts.snapshot))
            error = "cannot write " + path;
        if (!error.empty()) {
            std::fprintf(stderr, "%s: %s\n", name.c_str(),
                         error.c_str());
            failures++;
            continue;
        }
        std::printf("%s: snapshot at cycle %llu (%zu bytes, "
                    "mode %s) -> %s\n",
                    name.c_str(),
                    static_cast<unsigned long long>(
                        artifacts.snapshotCycle),
                    artifacts.snapshot.size(), sim::modeName(cfg.mode),
                    path.c_str());
    }
    return failures ? 1 : 0;
}

int
runFanout(const Options &opt)
{
    std::string snapshot = sim::readFileOrEmpty(opt.snapshotPath);
    if (snapshot.empty()) {
        std::fprintf(stderr, "cannot read %s\n",
                     opt.snapshotPath.c_str());
        return 2;
    }
    std::vector<workloads::WorkloadInfo> suite =
        cli::resolveWorkloads(opt.workloads, "ssmt_snapshot");
    isa::Program prog = suite[0].make({});

    std::vector<sim::BatchJob> batch;
    for (sim::Mode mode : {sim::Mode::OracleDifficultPath,
                           sim::Mode::Microthread,
                           sim::Mode::MicrothreadNoPredictions,
                           sim::Mode::OracleAllBranches}) {
        batch.push_back({suite[0].name + "/" + sim::modeName(mode),
                         prog, makeConfig(opt, mode)});
        batch.back().resumeFrom = snapshot;
    }
    std::vector<sim::BatchResult> results =
        sim::BatchRunner(opt.jobs).run(batch);

    std::printf("fanout %s from %s (captured at cycle %llu)\n",
                suite[0].name.c_str(), opt.snapshotPath.c_str(),
                static_cast<unsigned long long>(
                    sim::snapshotCycle(snapshot)));
    int failures = reportFailures(batch, results);
    for (size_t i = 0; i < batch.size(); i++) {
        if (!results[i].ok())
            continue;
        const sim::Stats &stats = results[i].stats;
        std::printf("  %-28s cycles %-10llu retired %-10llu "
                    "usedMispredicts %llu\n",
                    sim::modeName(batch[i].config.mode),
                    static_cast<unsigned long long>(stats.cycles),
                    static_cast<unsigned long long>(stats.retiredInsts),
                    static_cast<unsigned long long>(
                        stats.usedMispredicts));
    }
    return failures ? 1 : 0;
}

/** Why @p straight and its @p resumed continuation of workload
 *  @p name fail verification ("" = they pass). */
std::string
verifyPair(const Options &opt, const std::string &name,
           const sim::BatchResult &straight,
           const sim::BatchResult &resumed)
{
    std::string straight_golden = sim::goldenJson(
        {name, sim::kGoldenConfigName, straight.stats});
    if (sim::goldenJson({name, sim::kGoldenConfigName, resumed.stats}) !=
        straight_golden)
        return "resumed golden stats differ from straight-through run";
    if (sim::seriesJson(straight.artifacts.series) !=
        sim::seriesJson(resumed.artifacts.series))
        return "resumed metrics series differs from straight-through "
               "run";
    if (opt.goldenDir.empty())
        return "";
    std::string path = opt.goldenDir + "/" + sim::goldenFileName(name);
    std::string want = sim::readFileOrEmpty(path);
    if (want.empty())
        return "cannot read " + path;
    if (straight_golden != want)
        return "straight-through golden stats differ from committed " +
               path;
    return "";
}

int
runVerify(const Options &opt)
{
    std::vector<workloads::WorkloadInfo> suite =
        cli::resolveWorkloads(opt.workloads, "ssmt_snapshot");
    // Verification runs under the pinned golden config so the
    // straight-through run can be held against the committed
    // golden/ snapshots too.
    sim::MachineConfig cfg =
        makeConfig(opt, sim::goldenMachineConfig().mode);
    std::vector<sim::BatchJob> straight;
    std::vector<sim::BatchResult> straight_results =
        runWithSnapshots(opt, suite, cfg, straight);

    // Resume every checkpoint in a fresh machine.
    int failures = reportFailures(straight, straight_results);
    std::vector<size_t> resumed_of;
    std::vector<sim::BatchJob> resumed;
    for (size_t i = 0; i < suite.size(); i++) {
        const sim::BatchResult &result = straight_results[i];
        if (!result.ok())
            continue;
        if (result.artifacts.snapshot.empty()) {
            std::fprintf(stderr,
                         "VERIFY FAIL %s: run too short to checkpoint\n",
                         suite[i].name.c_str());
            failures++;
            continue;
        }
        resumed_of.push_back(i);
        resumed.push_back({suite[i].name + "/resumed",
                           std::move(straight[i].program), cfg});
        resumed.back().resumeFrom = result.artifacts.snapshot;
    }
    std::vector<sim::BatchResult> resumed_results =
        sim::BatchRunner(opt.jobs).run(resumed);
    failures += reportFailures(resumed, resumed_results);

    for (size_t k = 0; k < resumed.size(); k++) {
        if (!resumed_results[k].ok())
            continue;
        const std::string &name = suite[resumed_of[k]].name;
        const sim::BatchResult &result = straight_results[resumed_of[k]];
        std::string error =
            verifyPair(opt, name, result, resumed_results[k]);
        if (!error.empty()) {
            std::fprintf(stderr, "VERIFY FAIL %s: %s\n", name.c_str(),
                         error.c_str());
            failures++;
            continue;
        }
        std::printf("%s: verified at cycle %llu (%zu-byte snapshot, "
                    "golden + series byte-identical%s)\n",
                    name.c_str(),
                    static_cast<unsigned long long>(
                        result.artifacts.snapshotCycle),
                    result.artifacts.snapshot.size(),
                    opt.goldenDir.empty() ? ""
                                          : ", matches committed");
    }
    std::printf("[snapshot-verify] %zu workloads, %d failure%s\n",
                suite.size(), failures, failures == 1 ? "" : "s");
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Library panics must surface as catchable exceptions so one bad
    // cell reports cleanly instead of aborting the whole sweep.
    ssmt::detail::setFatalThrows(true);
    Options opt = parseOptions(argc, argv);
    try {
        if (opt.command == "save")
            return runSave(opt);
        if (opt.command == "fanout")
            return runFanout(opt);
        return runVerify(opt);
    } catch (const sim::SimError &err) {
        std::fprintf(stderr, "ssmt_snapshot: %s\n", err.what());
        return 2;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "ssmt_snapshot: %s\n", err.what());
        return 2;
    }
}
