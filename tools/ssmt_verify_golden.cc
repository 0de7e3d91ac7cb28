/**
 * @file
 * verify-golden driver: replay every workload under the pinned
 * golden MachineConfig through sim::BatchRunner and fail on any
 * counter drift against the committed golden/<workload>.json
 * snapshots that is not covered by the allowlist.
 *
 * Invariant checking rides along for free: BatchRunner fails any
 * inconsistent run with an InvariantViolation naming the relation,
 * so a passing verify-golden certifies both "same numbers as the
 * committed snapshots" and "zero invariant violations".
 *
 * --differential additionally runs each workload under the baseline
 * and the two oracle configurations and asserts the cross-config
 * relations the paper implies: the instruction stream (and therefore
 * branch and hardware-misprediction counts) is mode-invariant, a
 * full oracle leaves zero used mispredictions, and used-prediction
 * accuracy is monotone — oracle >= realistic >= baseline.
 *
 * --server SOCK executes the batches on a running ssmt_server
 * instead of in-process: the suite travels as a ssmt-server-v1 batch
 * request, results come back as ssmt-job-result-v1 documents and
 * decode against the locally-built golden geometry, and the
 * comparison logic below never learns which side simulated. Since
 * both paths are bit-deterministic, --server passing certifies the
 * daemon's results are byte-faithful to local execution.
 *
 * Usage:
 *   ssmt_verify_golden [--golden-dir D] [--jobs N] [--update]
 *                      [--allowlist F] [--workloads a,b,...]
 *                      [--differential] [--server SOCK]
 *
 * Exit status: 0 clean, 1 drift/relation failure or any errored
 * batch job (all failures are reported, not just the first), 2 bad
 * usage or missing snapshots.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cli_common.hh"
#include "sim/batch_runner.hh"
#include "sim/fsio.hh"
#include "sim/golden.hh"
#include "sim/invariants.hh"
#include "sim/job_codec.hh"
#include "sim/json_text.hh"
#include "sim/sim_error.hh"
#include "sim/snapshot.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

struct Options
{
    std::string goldenDir = "golden";
    std::string allowlistPath;      // default: <goldenDir>/ALLOWLIST
    std::vector<std::string> workloads;
    std::string server;     // non-empty: run batches on a daemon
    unsigned jobs = 0;
    bool update = false;
    bool differential = false;
};

const char kUsage[] =
    "usage: ssmt_verify_golden [--golden-dir D] [--jobs N]"
    " [--update]\n"
    "          [--allowlist F] [--workloads a,b,...]"
    " [--differential]\n"
    "          [--server SOCK] [--list-workloads]\n";

Options
parseOptions(int argc, char **argv)
{
    cli::ArgParser args(
        argc, argv, kUsage,
        {{"--golden-dir", nullptr, true},
         {"--allowlist", nullptr, true},
         {"--workloads", nullptr, true},
         {"--jobs", nullptr, true},
         {"--server", nullptr, true},
         {"--update"},
         {"--differential"}});
    if (!args.positionals().empty())
        args.fail("unexpected argument '" + args.positionals()[0] +
                  "'");
    Options opt;
    opt.goldenDir = args.str("--golden-dir", opt.goldenDir);
    opt.allowlistPath = args.str("--allowlist");
    if (args.has("--workloads"))
        opt.workloads = cli::splitCommas(args.str("--workloads"));
    opt.jobs = cli::jobsFlag(args);
    opt.server = args.str("--server");
    opt.update = args.has("--update");
    opt.differential = args.has("--differential");
    if (!opt.server.empty() && opt.update)
        args.fail("--update runs locally; drop --server");
    if (opt.allowlistPath.empty())
        opt.allowlistPath = opt.goldenDir + "/ALLOWLIST";
    return opt;
}

/**
 * Execute @p batch on the ssmt_server at @p socket_path. Every job
 * here is the pinned golden config plus a mode, so each cell travels
 * as {workload, mode, config:"golden"} and the returned
 * ssmt-job-result-v1 doc decodes against the job's own config (the
 * geometry never travels — both sides derive it from "golden").
 * @return false (after reporting) on any transport/protocol failure;
 * decoded results land in @p results in batch order.
 */
bool
runServerBatch(const std::string &socket_path,
               const std::vector<sim::BatchJob> &batch,
               std::vector<sim::BatchResult> *results)
{
    cli::LineSocket sock;
    if (!sock.connectTo(socket_path)) {
        std::fprintf(stderr,
                     "[verify-golden] cannot connect to server at "
                     "'%s'\n",
                     socket_path.c_str());
        return false;
    }
    sim::SnapshotWriter req;
    req.beginObject();
    req.str("schema", "ssmt-server-v1");
    req.str("cmd", "batch");
    req.beginArray("cells");
    for (const sim::BatchJob &job : batch) {
        // job.name is "<workload>" or "<workload>/<suffix>"; the
        // server rebuilds the program from the workload registry.
        std::string workload = job.name.substr(0, job.name.find('/'));
        req.beginObject();
        req.str("workload", workload);
        req.str("mode", sim::modeName(job.config.mode));
        req.str("config", "golden");
        req.str("name", job.name);
        req.endObject();
    }
    req.endArray();
    req.endObject();
    if (!sock.sendLine(req.text())) {
        std::fprintf(stderr,
                     "[verify-golden] server send failed\n");
        return false;
    }

    results->assign(batch.size(), sim::BatchResult{});
    std::vector<char> got(batch.size(), 0);
    std::string line;
    while (sock.recvLine(&line)) {
        sim::JsonValue event;
        if (!sim::parseJson(line, event)) {
            std::fprintf(stderr,
                         "[verify-golden] unparsable server event\n");
            return false;
        }
        std::string kind = event.str("event");
        if (kind == "error") {
            std::fprintf(stderr, "[verify-golden] server: %s\n",
                         event.str("message").c_str());
            return false;
        }
        if (kind == "job") {
            size_t index =
                static_cast<size_t>(event.u64("index", batch.size()));
            if (index >= batch.size()) {
                std::fprintf(stderr,
                             "[verify-golden] job index out of "
                             "range\n");
                return false;
            }
            std::string checkpoint;
            bool final_attempt = false;
            try {
                sim::decodeJobResult(event.str("doc"),
                                     batch[index].config,
                                     &(*results)[index], &checkpoint,
                                     &final_attempt);
            } catch (const sim::SimError &e) {
                std::fprintf(stderr,
                             "[verify-golden] cell %s: undecodable "
                             "result doc: %s\n",
                             batch[index].name.c_str(), e.what());
                return false;
            }
            got[index] = 1;
            continue;
        }
        if (kind == "done") {
            for (size_t i = 0; i < batch.size(); i++) {
                if (!got[i]) {
                    std::fprintf(stderr,
                                 "[verify-golden] server never "
                                 "returned cell %zu (%s)\n",
                                 i, batch[i].name.c_str());
                    return false;
                }
            }
            return true;
        }
    }
    std::fprintf(stderr,
                 "[verify-golden] server closed the connection "
                 "mid-batch\n");
    return false;
}

/**
 * Cross-config relations checked by --differential. Each failure is
 * reported as "<workload>: <relation>".
 */
int
checkDifferential(const std::string &name, const sim::Stats &base,
                  const sim::Stats &oracle, const sim::Stats &micro,
                  const sim::Stats &oracleAll)
{
    int failures = 0;
    auto fail = [&](const std::string &what) {
        std::fprintf(stderr, "DIFFERENTIAL FAIL %s: %s\n",
                     name.c_str(), what.c_str());
        failures++;
    };

    // The machine fetches only correct-path instructions, so the
    // instruction stream — and everything the hardware predictor
    // sees — is identical in every mode.
    const sim::Stats *all[] = {&oracle, &micro, &oracleAll};
    for (const sim::Stats *s : all) {
        if (s->retiredInsts != base.retiredInsts)
            fail("retiredInsts differs from baseline across modes");
        if (s->condBranches != base.condBranches ||
            s->indirectBranches != base.indirectBranches)
            fail("branch counts differ from baseline across modes");
        if (s->condHwMispredicts != base.condHwMispredicts ||
            s->indirectHwMispredicts != base.indirectHwMispredicts)
            fail("hw mispredict counts differ from baseline "
                 "across modes");
    }

    // A full oracle never uses a wrong prediction.
    if (oracleAll.usedMispredicts != 0)
        fail("OracleAllBranches left usedMispredicts = " +
             std::to_string(oracleAll.usedMispredicts));

    // Used-prediction accuracy is monotone: oracle >= realistic >=
    // baseline (fewer used mispredictions over the same branches).
    if (oracle.usedMispredicts > base.usedMispredicts)
        fail("OracleDifficultPath used more mispredictions than "
             "baseline (" + std::to_string(oracle.usedMispredicts) +
             " > " + std::to_string(base.usedMispredicts) + ")");
    if (micro.usedMispredicts > base.usedMispredicts)
        fail("Microthread used more mispredictions than baseline (" +
             std::to_string(micro.usedMispredicts) + " > " +
             std::to_string(base.usedMispredicts) + ")");
    if (oracleAll.usedMispredicts > oracle.usedMispredicts)
        fail("full oracle worse than difficult-path oracle");

    // In baseline mode the used prediction *is* the hardware
    // prediction, so the counters must agree exactly.
    if (base.usedMispredicts !=
        base.condHwMispredicts + base.indirectHwMispredicts)
        fail("baseline usedMispredicts != hw mispredicts (" +
             std::to_string(base.usedMispredicts) + " != " +
             std::to_string(base.condHwMispredicts +
                            base.indirectHwMispredicts) + ")");
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);

    std::vector<workloads::WorkloadInfo> suite;
    if (opt.workloads.empty())
        suite = workloads::allWorkloads();
    else
        suite = cli::resolveWorkloads(opt.workloads, argv[0]);

    bool allowlistExisted = false;
    sim::DriftAllowlist allowlist = sim::DriftAllowlist::load(
        opt.allowlistPath, &allowlistExisted);

    // ---- Replay the suite under the pinned golden config ----
    // BatchRunner fails a run with the violated relation on any
    // invariant inconsistency, so results coming back clean means
    // every run passed the StatsChecker and structural checks.
    sim::MachineConfig golden_cfg = sim::goldenMachineConfig();
    std::vector<sim::BatchJob> batch;
    batch.reserve(suite.size());
    for (const auto &info : suite)
        batch.push_back({info.name, info.make({}), golden_cfg});

    sim::BatchRunner runner(opt.jobs);
    std::vector<sim::BatchResult> results;
    if (opt.server.empty())
        results = runner.run(batch);
    else if (!runServerBatch(opt.server, batch, &results))
        return 2;
    // Collect every failed job before bailing so one bad workload
    // does not mask the rest of the report.
    std::string failed_jobs =
        sim::BatchRunner::failureSummary(batch, results);
    if (!failed_jobs.empty()) {
        std::fputs(failed_jobs.c_str(), stderr);
        std::fprintf(stderr,
                     "[verify-golden] FAILED: batch jobs errored "
                     "before any counter could be compared\n");
        return 1;
    }

    if (opt.update) {
        for (size_t i = 0; i < suite.size(); i++) {
            sim::GoldenRun run{suite[i].name, sim::kGoldenConfigName,
                               results[i].stats};
            std::string path =
                sim::writeGoldenFile(opt.goldenDir, run);
            if (path.empty()) {
                std::fprintf(stderr,
                             "cannot write golden snapshot for %s "
                             "under %s\n",
                             suite[i].name.c_str(),
                             opt.goldenDir.c_str());
                return 2;
            }
            std::printf("updated %s\n", path.c_str());
        }
        std::printf("regenerated %zu golden snapshots (config %s)\n",
                    suite.size(), sim::kGoldenConfigName);
        return 0;
    }

    // ---- Diff against the committed snapshots ----
    int drifted_counters = 0;
    int allowed_counters = 0;
    int missing = 0;
    for (size_t i = 0; i < suite.size(); i++) {
        const std::string &name = suite[i].name;
        std::string path =
            opt.goldenDir + "/" + sim::goldenFileName(name);
        std::string text = sim::readFileOrEmpty(path);
        if (text.empty()) {
            std::fprintf(stderr,
                         "missing golden snapshot %s (run "
                         "ssmt_verify_golden --update)\n",
                         path.c_str());
            missing++;
            continue;
        }
        sim::GoldenRun want;
        std::string err;
        if (!sim::parseGolden(text, want, &err)) {
            std::fprintf(stderr, "cannot parse %s: %s\n",
                         path.c_str(), err.c_str());
            missing++;
            continue;
        }
        if (want.config != sim::kGoldenConfigName) {
            std::fprintf(stderr,
                         "%s pinned to config '%s' but this binary "
                         "verifies '%s' — regenerate\n",
                         path.c_str(), want.config.c_str(),
                         sim::kGoldenConfigName);
            missing++;
            continue;
        }
        std::vector<sim::CounterDrift> drifts =
            sim::diffStats(want.stats, results[i].stats);
        for (const sim::CounterDrift &d : drifts) {
            bool allowed = allowlist.allows(name, d.counter);
            std::fprintf(
                stderr,
                "%s %s: %s %llu -> %llu (%+.2f%%)\n",
                allowed ? "allowed drift" : "DRIFT", name.c_str(),
                d.counter.c_str(),
                static_cast<unsigned long long>(d.golden),
                static_cast<unsigned long long>(d.candidate),
                100.0 * d.relative());
            if (allowed)
                allowed_counters++;
            else
                drifted_counters++;
        }
        if (drifts.empty()) {
            // Counters agree; the canonical serialization must too.
            sim::GoldenRun now{name, sim::kGoldenConfigName,
                               results[i].stats};
            if (sim::goldenJson(now) != text) {
                std::fprintf(stderr,
                             "DRIFT %s: snapshot is not the "
                             "canonical serialization — regenerate\n",
                             name.c_str());
                drifted_counters++;
            }
        }
    }

    // ---- Cross-config differential checks ----
    int differential_failures = 0;
    if (opt.differential) {
        sim::MachineConfig base_cfg = golden_cfg;
        base_cfg.mode = sim::Mode::Baseline;
        sim::MachineConfig oracle_cfg = golden_cfg;
        oracle_cfg.mode = sim::Mode::OracleDifficultPath;
        sim::MachineConfig oracle_all_cfg = golden_cfg;
        oracle_all_cfg.mode = sim::Mode::OracleAllBranches;

        std::vector<sim::BatchJob> diff_batch;
        diff_batch.reserve(suite.size() * 3);
        for (const auto &info : suite) {
            isa::Program prog = info.make({});
            diff_batch.push_back({info.name + "/baseline", prog,
                                  base_cfg});
            diff_batch.push_back({info.name + "/oracle", prog,
                                  oracle_cfg});
            diff_batch.push_back({info.name + "/oracle-all", prog,
                                  oracle_all_cfg});
        }
        std::vector<sim::BatchResult> diff_results;
        if (opt.server.empty())
            diff_results = runner.run(diff_batch);
        else if (!runServerBatch(opt.server, diff_batch,
                                 &diff_results))
            return 2;
        std::string failed_diff = sim::BatchRunner::failureSummary(
            diff_batch, diff_results);
        if (!failed_diff.empty()) {
            std::fputs(failed_diff.c_str(), stderr);
            std::fprintf(stderr,
                         "[verify-golden] FAILED: differential batch "
                         "jobs errored\n");
            return 1;
        }
        for (size_t i = 0; i < suite.size(); i++) {
            differential_failures += checkDifferential(
                suite[i].name, diff_results[3 * i].stats,
                diff_results[3 * i + 1].stats, results[i].stats,
                diff_results[3 * i + 2].stats);
        }
    }

    std::printf(
        "[verify-golden] %zu workloads, config %s: %d drifted "
        "counter%s (%d allowlisted), %d missing snapshot%s%s\n",
        suite.size(), sim::kGoldenConfigName, drifted_counters,
        drifted_counters == 1 ? "" : "s", allowed_counters, missing,
        missing == 1 ? "" : "s",
        opt.differential
            ? (", differential " +
               std::string(differential_failures ? "FAILED" : "ok"))
                  .c_str()
            : "");
    if (!allowlistExisted && !allowlist.entries.empty())
        std::fprintf(stderr, "note: allowlist %s unreadable\n",
                     opt.allowlistPath.c_str());
    if (missing)
        return 2;
    return drifted_counters || differential_failures ? 1 : 0;
}

