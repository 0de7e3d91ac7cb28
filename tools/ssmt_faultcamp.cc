/**
 * @file
 * ssmt_faultcamp: seeded fault-injection campaigns against the
 * speculative helper state.
 *
 * For every (workload, fault site) cell the tool runs the workload
 * under the golden microthread configuration with a seeded FaultPlan
 * and asserts the central robustness property of the mechanism: the
 * architectural counters (retired instructions, branch and
 * hardware-misprediction counts) are byte-identical to the fault-free
 * run of the same workload — corrupting the Prediction Cache, Path
 * Cache, MicroRAM or the spawn machinery may cost cycles but must
 * never steer the committed stream. With --golden-dir the clean runs
 * are additionally pinned against the committed golden/ snapshots.
 *
 * Usage:
 *   ssmt_faultcamp [--workloads a,b,...|all] [--site S|all]
 *                  [--count N] [--seed S] [--period P] [--jobs N]
 *                  [--budget CYCLES] [--golden-dir D] [--out FILE]
 *
 * Output: an `ssmt-faultcamp-v1` JSON report (stdout or --out) with
 * one record per cell: faults armed/injected, architectural match,
 * cycle delta, and any per-job error captured by the BatchRunner.
 *
 * Exit status: 0 all cells architecturally identical and error-free,
 * 1 any mismatch/failed cell, 2 bad usage or unreadable snapshots.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cli_common.hh"
#include "sim/batch_runner.hh"
#include "sim/faultinject.hh"
#include "sim/fsio.hh"
#include "sim/golden.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

struct Options
{
    std::vector<std::string> workloads = {"comp", "go", "li",
                                          "mcf_2k", "parser_2k"};
    std::vector<sim::FaultSite> sites;  // empty = all
    uint64_t count = 10;
    uint64_t seed = 12345;
    uint64_t period = 200;
    uint64_t budget = 0;
    unsigned jobs = 0;
    std::string goldenDir;
    std::string outPath;
};

std::string
usageText()
{
    std::string text =
        "usage: ssmt_faultcamp [--workloads a,b,...|all]"
        " [--site S|all]\n"
        "          [--count N] [--seed S] [--period P] [--jobs N]\n"
        "          [--budget CYCLES] [--golden-dir D] [--out FILE]\n"
        "          [--list-workloads]\n"
        "fault sites:";
    for (sim::FaultSite site : sim::allFaultSites())
        text += std::string(" ") + sim::faultSiteName(site);
    text += "\n";
    return text;
}

Options
parseOptions(int argc, char **argv)
{
    cli::ArgParser args(argc, argv, usageText(),
                        {{"--workloads", nullptr, true},
                         {"--site", nullptr, true},
                         {"--count", nullptr, true},
                         {"--seed", nullptr, true},
                         {"--period", nullptr, true},
                         {"--budget", nullptr, true},
                         {"--jobs", nullptr, true},
                         {"--golden-dir", nullptr, true},
                         {"--out", nullptr, true}});
    if (!args.positionals().empty())
        args.fail("unexpected argument '" + args.positionals()[0] +
                  "'");
    Options opt;
    if (args.has("--workloads"))
        opt.workloads =
            cli::expandWorkloadList(args.str("--workloads"));
    if (args.has("--site")) {
        std::string text = args.str("--site");
        if (text == "all") {
            opt.sites.clear();
        } else {
            for (const std::string &name : cli::splitCommas(text)) {
                sim::FaultSite site;
                if (!sim::parseFaultSite(name, &site) ||
                    site == sim::FaultSite::None)
                    args.fail("unknown fault site '" + name + "'");
                opt.sites.push_back(site);
            }
        }
    }
    opt.count = args.u64("--count", opt.count);
    opt.seed = args.u64("--seed", opt.seed);
    opt.period = args.u64("--period", opt.period);
    opt.budget = args.u64("--budget", opt.budget);
    opt.jobs = cli::jobsFlag(args);
    opt.goldenDir = args.str("--golden-dir");
    opt.outPath = args.str("--out");
    if (opt.sites.empty())
        opt.sites = sim::allFaultSites();
    if (opt.seed == 0)
        opt.seed = 1;
    return opt;
}

/** splitmix64-style mix for per-cell fault seeds. */
uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x ? x : 1;
}

struct Cell
{
    std::string workload;
    sim::FaultSite site;    // None = the clean reference run
    uint64_t seed = 0;
};

int
runCampaign(const Options &opt)
{
    std::vector<workloads::WorkloadInfo> suite;
    for (const std::string &name : opt.workloads) {
        const workloads::WorkloadInfo *info =
            workloads::findWorkload(name);
        if (!info) {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         name.c_str());
            return 2;
        }
        suite.push_back(*info);
    }

    // One clean reference cell per workload, then one faulted cell
    // per (workload, site).
    sim::MachineConfig clean_cfg = sim::goldenMachineConfig();
    std::vector<Cell> cells;
    std::vector<sim::BatchJob> batch;
    for (size_t w = 0; w < suite.size(); w++) {
        isa::Program prog = suite[w].make({});
        cells.push_back({suite[w].name, sim::FaultSite::None, 0});
        batch.push_back({suite[w].name + "/clean", prog, clean_cfg});
        for (size_t s = 0; s < opt.sites.size(); s++) {
            sim::MachineConfig cfg = clean_cfg;
            cfg.faults.site = opt.sites[s];
            cfg.faults.count = opt.count;
            cfg.faults.period = opt.period;
            cfg.faults.seed =
                mix64(opt.seed ^ (w * 1000003ull + s * 7919ull + 1));
            cells.push_back(
                {suite[w].name, opt.sites[s], cfg.faults.seed});
            batch.push_back({suite[w].name + "/" +
                                 sim::faultSiteName(opt.sites[s]),
                             prog, cfg});
        }
    }

    sim::BatchPolicy policy;
    policy.cycleBudget = opt.budget;
    std::vector<sim::BatchResult> results =
        sim::BatchRunner(opt.jobs).run(batch, policy);

    // Index the clean runs and check them against golden/ if asked.
    size_t stride = 1 + opt.sites.size();
    int failures = 0;
    std::vector<sim::ArchSignature> reference(suite.size());
    for (size_t w = 0; w < suite.size(); w++) {
        const sim::BatchResult &clean = results[w * stride];
        if (!clean.ok()) {
            std::fprintf(stderr, "clean run %s failed: %s\n",
                         suite[w].name.c_str(), clean.error.c_str());
            failures++;
            continue;
        }
        reference[w] = sim::ArchSignature::of(clean.stats);
        if (opt.goldenDir.empty())
            continue;
        std::string path = opt.goldenDir + "/" +
                           sim::goldenFileName(suite[w].name);
        std::string text = sim::readFileOrEmpty(path);
        sim::GoldenRun want;
        std::string err;
        if (text.empty() || !sim::parseGolden(text, want, &err)) {
            std::fprintf(stderr, "cannot read golden snapshot %s%s%s\n",
                         path.c_str(), err.empty() ? "" : ": ",
                         err.c_str());
            return 2;
        }
        sim::ArchSignature golden_sig =
            sim::ArchSignature::of(want.stats);
        std::string diff = reference[w].diff(golden_sig);
        if (!diff.empty()) {
            std::fprintf(stderr,
                         "GOLDEN MISMATCH %s: clean run vs %s: %s\n",
                         suite[w].name.c_str(), path.c_str(),
                         diff.c_str());
            failures++;
        }
    }

    // ---- Per-cell verdicts + report ----
    std::string json;
    json += "{\n  \"schema\": \"ssmt-faultcamp-v1\",\n";
    json += "  \"seed\": " + std::to_string(opt.seed) + ",\n";
    json += "  \"count_per_cell\": " + std::to_string(opt.count) +
            ",\n  \"cells\": [\n";

    uint64_t total_injected = 0;
    uint64_t total_armed = 0;
    size_t faulted_cells = 0;
    size_t arch_mismatches = 0;
    size_t errored_cells = 0;
    bool first = true;
    for (size_t i = 0; i < cells.size(); i++) {
        const Cell &cell = cells[i];
        if (cell.site == sim::FaultSite::None)
            continue;
        const sim::BatchResult &result = results[i];
        const sim::BatchResult &clean =
            results[(i / stride) * stride];
        faulted_cells++;

        bool arch_match = false;
        if (result.ok() && clean.ok()) {
            sim::ArchSignature sig =
                sim::ArchSignature::of(result.stats);
            std::string diff =
                sig.diff(reference[i / stride]);
            arch_match = diff.empty();
            if (!arch_match) {
                std::fprintf(stderr, "ARCH MISMATCH %s: %s\n",
                             batch[i].name.c_str(), diff.c_str());
                arch_mismatches++;
                failures++;
            }
        } else if (!result.ok()) {
            std::fprintf(stderr, "cell %s failed: %s\n",
                         batch[i].name.c_str(), result.error.c_str());
            errored_cells++;
            failures++;
        }
        total_injected += result.faults.injected;
        total_armed += result.faults.armed;

        int64_t cycle_delta =
            result.ok() && clean.ok()
                ? static_cast<int64_t>(result.stats.cycles) -
                      static_cast<int64_t>(clean.stats.cycles)
                : 0;
        json += first ? "" : ",\n";
        first = false;
        json += "    {\"workload\": \"" + cell.workload +
                "\", \"site\": \"" + sim::faultSiteName(cell.site) +
                "\", \"seed\": " + std::to_string(cell.seed) +
                ", \"armed\": " +
                std::to_string(result.faults.armed) +
                ", \"injected\": " +
                std::to_string(result.faults.injected) +
                ", \"no_target\": " +
                std::to_string(result.faults.noTarget) +
                ", \"arch_match\": " +
                (arch_match ? "true" : "false") +
                ", \"cycle_delta\": " + std::to_string(cycle_delta) +
                ", \"attempts\": " + std::to_string(result.attempts) +
                ", \"error\": \"" +
                (result.ok() ? "" : sim::errorCodeName(
                                        result.errorCode)) +
                "\"}";
    }
    json += "\n  ],\n";
    json += "  \"summary\": {\"workloads\": " +
            std::to_string(suite.size()) +
            ", \"faulted_cells\": " + std::to_string(faulted_cells) +
            ", \"faults_injected\": " +
            std::to_string(total_injected) +
            ", \"faults_armed\": " + std::to_string(total_armed) +
            ", \"arch_mismatches\": " +
            std::to_string(arch_mismatches) +
            ", \"errored_cells\": " + std::to_string(errored_cells) +
            ", \"golden_checked\": " +
            (opt.goldenDir.empty() ? "false" : "true") + "}\n}\n";

    if (!opt.outPath.empty()) {
        // Atomic: a report half-written when the campaign host dies
        // must not masquerade as a finished one.
        if (!sim::writeFileAtomic(opt.outPath, json)) {
            std::fprintf(stderr, "cannot write %s\n",
                         opt.outPath.c_str());
            return 2;
        }
    } else {
        std::fputs(json.c_str(), stdout);
    }

    std::fprintf(stderr,
                 "[faultcamp] %zu workloads x %zu sites: %llu faults "
                 "injected, %zu arch mismatches, %zu errored cells\n",
                 suite.size(), opt.sites.size(),
                 static_cast<unsigned long long>(total_injected),
                 arch_mismatches, errored_cells);
    // One machine-greppable verdict line; the exit status mirrors it.
    if (failures)
        std::fprintf(stderr,
                     "[faultcamp] FAILED: %d cell(s) mismatched or "
                     "errored\n",
                     failures);
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Library errors must surface as catchable exceptions here, so a
    // bad flag combination reports cleanly instead of exiting from
    // the middle of the batch.
    ssmt::detail::setFatalThrows(true);
    Options opt = parseOptions(argc, argv);
    try {
        return runCampaign(opt);
    } catch (const ssmt::sim::SimError &err) {
        std::fprintf(stderr, "faultcamp: %s\n", err.what());
        return 2;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "faultcamp: %s\n", err.what());
        return 2;
    }
}
