/**
 * @file
 * ssmt_statsdiff: compare two golden-stats snapshots counter by
 * counter and report absolute and relative drift.
 *
 * Usage:
 *   ssmt_statsdiff [--allow c1,c2,...] [--allow-file F]
 *                  [--rel-tol R] golden.json candidate.json
 *
 * A counter is reported when its values differ; it fails the diff
 * unless it is allowlisted (via --allow / --allow-file, same syntax
 * as golden/ALLOWLIST) or its relative drift is within --rel-tol
 * (default 0: exact match required, the right default for a
 * deterministic simulator).
 *
 * Exit status: 0 identical-or-allowed, 1 non-allowlisted drift,
 * 2 bad usage or unreadable input.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_common.hh"
#include "sim/fsio.hh"
#include "sim/golden.hh"

namespace
{

using namespace ssmt;

const char kUsage[] =
    "usage: ssmt_statsdiff [--allow c1,c2,...] [--allow-file F]"
    " [--rel-tol R]\n"
    "                      golden.json candidate.json\n";

} // namespace

int
main(int argc, char **argv)
{
    cli::ArgParser args(argc, argv, kUsage,
                        {{"--allow", nullptr, true, true},
                         {"--allow-file", nullptr, true},
                         {"--rel-tol", nullptr, true}});

    sim::DriftAllowlist allowlist;
    for (const std::string &list : args.all("--allow")) {
        for (const std::string &entry : cli::splitCommas(list))
            allowlist.entries.push_back(entry);
    }
    if (args.has("--allow-file")) {
        std::string path = args.str("--allow-file");
        bool existed = false;
        sim::DriftAllowlist extra =
            sim::DriftAllowlist::load(path, &existed);
        if (!existed) {
            std::fprintf(stderr, "%s: cannot read %s\n", argv[0],
                         path.c_str());
            return 2;
        }
        allowlist.entries.insert(allowlist.entries.end(),
                                 extra.entries.begin(),
                                 extra.entries.end());
    }
    double rel_tol = args.dbl("--rel-tol", 0.0);
    if (rel_tol < 0.0)
        args.fail("--rel-tol must be >= 0");

    const std::vector<std::string> &files = args.positionals();
    if (files.size() != 2)
        args.usage(2);

    sim::GoldenRun golden, candidate;
    for (int side = 0; side < 2; side++) {
        std::string text = sim::readFileOrEmpty(files[side]);
        if (text.empty()) {
            std::fprintf(stderr, "%s: cannot read %s\n", argv[0],
                         files[side].c_str());
            return 2;
        }
        std::string err;
        sim::GoldenRun &run = side == 0 ? golden : candidate;
        if (!sim::parseGolden(text, run, &err)) {
            std::fprintf(stderr, "%s: %s: %s\n", argv[0],
                         files[side].c_str(), err.c_str());
            return 2;
        }
    }

    if (golden.workload != candidate.workload) {
        std::fprintf(stderr,
                     "note: comparing different workloads"
                     " ('%s' vs '%s')\n",
                     golden.workload.c_str(),
                     candidate.workload.c_str());
    }

    std::vector<sim::CounterDrift> drifts =
        sim::diffStats(golden.stats, candidate.stats);
    int failures = 0;
    for (const sim::CounterDrift &d : drifts) {
        bool allowed = allowlist.allows(golden.workload, d.counter) ||
                       std::fabs(d.relative()) <= rel_tol;
        long long delta =
            static_cast<long long>(d.candidate) -
            static_cast<long long>(d.golden);
        std::printf("%-9s %-28s %12llu -> %12llu  %+lld (%+.3f%%)\n",
                    allowed ? "allowed" : "DRIFT", d.counter.c_str(),
                    static_cast<unsigned long long>(d.golden),
                    static_cast<unsigned long long>(d.candidate),
                    delta, 100.0 * d.relative());
        if (!allowed)
            failures++;
    }
    if (drifts.empty()) {
        std::printf("identical: every counter matches (%s)\n",
                    golden.workload.c_str());
    } else {
        std::printf("%zu counter%s drifted, %d not allowlisted\n",
                    drifts.size(), drifts.size() == 1 ? "" : "s",
                    failures);
    }
    return failures ? 1 : 0;
}
