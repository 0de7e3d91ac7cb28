/**
 * @file
 * Ablation: the compile-time variant (profile-guided difficult-path
 * hints) and the Section 5.3 usefulness throttle.
 *
 * Hints sidestep the Path Cache training interval, which is the
 * dominant ramp cost in short runs — the paper notes compile-time
 * identification as the complementary approach (Section 4 intro and
 * future work). The throttle suppresses routines whose spawns never
 * deliver a timely prediction.
 */

#include <chrono>
#include <cstdio>

#include "bench_util.hh"
#include "sim/path_profiler.hh"

using namespace ssmt;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    auto suite = bench::suiteFromNames(
        args.quick ? std::vector<std::string>{"comp", "go"}
                   : std::vector<std::string>{"comp", "go", "perl",
                                              "crafty_2k",
                                              "parser_2k", "twolf_2k",
                                              "li"});
    bench::SuiteRun suite_run("ablation_hints", args);
    sim::BatchRunner runner(args.jobs);

    // Phase 1: profile every workload concurrently for its
    // difficult-path set.
    std::vector<std::vector<core::PathId>> hints(suite.size());
    std::vector<double> profile_seconds(suite.size());
    runner.forEach(suite.size(), [&](size_t w) {
        auto start = std::chrono::steady_clock::now();
        sim::PathProfiler profiler({10});
        profiler.profile(suite[w].make({}), 20'000'000);
        hints[w] = profiler.difficultPathIds(10, 0.10);
        profile_seconds[w] = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() -
                                 start)
                                 .count();
    });
    for (size_t w = 0; w < suite.size(); w++)
        suite_run.json().addTiming(suite[w].name, "profile",
                                   profile_seconds[w]);

    // Phase 2: four runs per workload (baseline / dynamic / hinted /
    // hinted+throttle); the hinted variants take each workload's own
    // difficult set from phase 1.
    std::vector<bench::ConfigVariant> variants;
    {
        sim::MachineConfig cfg;
        variants.push_back({"baseline", cfg});
        cfg.mode = sim::Mode::Microthread;
        variants.push_back({"dynamic", cfg});
        variants.push_back({"hinted", cfg});
        cfg.throttleEnabled = true;
        variants.push_back({"hinted+throttle", cfg});
    }
    auto results = bench::runMatrix(
        suite, variants, args, suite_run.json(),
        [&](size_t w, size_t v, sim::MachineConfig &cfg) {
            if (v >= 2)
                cfg.staticDifficultHints = hints[w];
        });

    std::printf("Ablation: dynamic vs profile-hinted promotion, and "
                "the usefulness throttle\n(n = 10, T = .10)\n\n");
    std::printf("%-12s | %8s %8s %8s | %9s %9s\n", "bench", "dynamic",
                "hinted", "hint+thr", "routines", "routines(h)");
    bench::hr(76);

    for (size_t w = 0; w < suite.size(); w++) {
        const sim::Stats &base = results[w][0].stats;
        const sim::Stats &dynamic = results[w][1].stats;
        const sim::Stats &hinted = results[w][2].stats;
        const sim::Stats &both = results[w][3].stats;
        std::printf("%-12s | %8.3f %8.3f %8.3f | %9llu %9llu\n",
                    suite[w].name.c_str(), sim::speedup(dynamic, base),
                    sim::speedup(hinted, base),
                    sim::speedup(both, base),
                    static_cast<unsigned long long>(
                        dynamic.promotionsCompleted),
                    static_cast<unsigned long long>(
                        hinted.promotionsCompleted));
    }
    std::printf("\nExpected shape: hints ramp more routines in short "
                "runs and usually match or\nbeat dynamic "
                "identification; the throttle trims spawn traffic "
                "without giving\nup the delivered predictions.\n");
    suite_run.finish();
    return 0;
}
