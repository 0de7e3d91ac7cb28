/**
 * @file
 * Characterization tests: each SPECint proxy exists to imitate a
 * specific behaviour (DESIGN.md Section 1). These tests pin those
 * characters down so workload edits cannot silently destroy the
 * properties the reproduction depends on.
 */

#include <gtest/gtest.h>

#include "sim/path_profiler.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

sim::Stats
baselineOf(const char *name)
{
    sim::MachineConfig cfg;
    return sim::runProgramChecked(workloads::makeWorkload(name), cfg, name);
}

TEST(WorkloadCharacterTest, EonAndM88ksimAreWellBehaved)
{
    // The paper's eon barely tolerates microthread overhead because
    // its branches are already predictable; our eon and m88ksim
    // proxies carry that role.
    for (const char *name : {"eon_2k", "m88ksim"}) {
        sim::Stats stats = baselineOf(name);
        EXPECT_LT(stats.hwMispredictRate(), 0.01) << name;
        EXPECT_GT(stats.ipc(), 4.0) << name;
    }
}

TEST(WorkloadCharacterTest, GccFamilyIsBranchHostile)
{
    // gcc is the classic hard-to-predict SPECint member.
    for (const char *name : {"gcc", "gcc_2k"}) {
        sim::Stats stats = baselineOf(name);
        EXPECT_GT(stats.hwMispredictRate(), 0.15) << name;
        EXPECT_GT(stats.indirectBranches, 1000u)
            << name << " needs dispatch jr traffic";
    }
}

TEST(WorkloadCharacterTest, McfIsMemoryBound)
{
    sim::Stats stats = baselineOf("mcf_2k");
    // Large pointer-chasing footprint: plenty of L2 misses and a
    // crawling IPC, exactly the profile that makes microthread
    // prefetching matter (Section 5.3).
    EXPECT_GT(stats.l2Misses, 10'000u);
    EXPECT_LT(stats.ipc(), 0.6);
}

TEST(WorkloadCharacterTest, InterpretersUseIndirectDispatch)
{
    for (const char *name : {"li", "gcc", "gcc_2k"}) {
        sim::Stats stats = baselineOf(name);
        double indirect_frac =
            static_cast<double>(stats.indirectBranches) /
            (stats.condBranches + stats.indirectBranches);
        EXPECT_GT(indirect_frac, 0.05) << name;
    }
}

TEST(WorkloadCharacterTest, CompressHasMediumDifficulty)
{
    sim::Stats stats = baselineOf("comp");
    EXPECT_GT(stats.hwMispredictRate(), 0.03);
    EXPECT_LT(stats.hwMispredictRate(), 0.15);
}

TEST(WorkloadCharacterTest, AnnealingIsCoinFlipHeavy)
{
    // twolf's accept/reject branch starts as a coin flip.
    sim::Stats stats = baselineOf("twolf_2k");
    EXPECT_GT(stats.hwMispredictRate(), 0.20);
}

TEST(WorkloadCharacterTest, SuiteSpansAnIpcRange)
{
    // The suite must cover compute-bound and stall-bound behaviour;
    // a collapsed range would make suite averages meaningless.
    double min_ipc = 1e9, max_ipc = 0;
    for (const char *name : {"eon_2k", "mcf_2k", "ijpeg", "gap_2k"}) {
        double ipc = baselineOf(name).ipc();
        min_ipc = std::min(min_ipc, ipc);
        max_ipc = std::max(max_ipc, ipc);
    }
    EXPECT_GT(max_ipc / min_ipc, 5.0);
}

TEST(WorkloadCharacterTest, VortexMispredictsConcentrateInColdKeys)
{
    // vortex's paper profile: high misprediction coverage at very
    // low execution coverage. The skewed-key design should keep the
    // difficult-path execution share small.
    sim::PathProfiler profiler({10});
    profiler.profile(workloads::makeWorkload("vortex"), 20'000'000);
    double exe = profiler.pathExeCoverage(10, 0.10);
    double mis = profiler.pathMisCoverage(10, 0.10);
    EXPECT_GT(mis, 0.5);
    EXPECT_LT(exe, 0.75);
    EXPECT_GT(mis, exe);
}

TEST(WorkloadCharacterTest, GapCarriesAreHardButComputable)
{
    // Carry-out of random 64-bit adds: ~50% taken, hardware-hostile.
    sim::Stats base = baselineOf("gap_2k");
    EXPECT_GT(base.hwMispredictRate(), 0.15);
    // And pre-computable: microthread predictions, when delivered,
    // are essentially always right.
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    sim::Stats mt =
        sim::runProgramChecked(workloads::makeWorkload("gap_2k"), cfg,
                               "gap_2k");
    if (mt.microPredCorrect + mt.microPredWrong > 50) {
        EXPECT_GT(mt.microPredCorrect,
                  9 * (mt.microPredWrong + 1));
    }
}

TEST(WorkloadCharacterTest, ScopeAveragesScaleWithWorkloadShape)
{
    // bzip2-style run-length behaviour produces longer scopes than
    // tight interpreter loops at the same n (cf. Table 1's spread).
    sim::PathProfiler bzip({10});
    bzip.profile(workloads::makeWorkload("bzip2_2k"), 5'000'000);
    sim::PathProfiler li({10});
    li.profile(workloads::makeWorkload("li"), 5'000'000);
    EXPECT_GT(bzip.avgScope(10), 0.0);
    EXPECT_GT(li.avgScope(10), 0.0);
    EXPECT_NE(bzip.avgScope(10), li.avgScope(10));
}

} // namespace
