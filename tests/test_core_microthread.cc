/**
 * @file
 * End-to-end tests of the difficult-path microthreading mechanism on
 * the synthetic kernel with known path difficulty.
 */

#include <gtest/gtest.h>

#include "cpu/ssmt_core.hh"
#include "isa/executor.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

workloads::SyntheticSpec
hardSpec()
{
    workloads::SyntheticSpec spec;
    spec.numSites = 4;
    spec.elemsPerSite = 64;
    spec.takenPercent = {0, 100, 50, 50};   // two hard sites
    spec.iters = 120;
    return spec;
}

sim::MachineConfig
mtConfig()
{
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    return cfg;
}

TEST(MicrothreadE2E, MechanismEngages)
{
    isa::Program prog = workloads::makeSynthetic(hardSpec());
    cpu::SsmtCore core(prog, mtConfig());
    const sim::Stats &stats = core.run();
    EXPECT_GT(stats.promotionsRequested, 0u);
    EXPECT_GT(stats.promotionsCompleted, 0u);
    EXPECT_GT(stats.spawnAttempts, 0u);
    EXPECT_GT(stats.spawns, 0u);
    EXPECT_GT(stats.microthreadsCompleted, 0u);
    EXPECT_GT(stats.microOpsExecuted, 0u);
}

TEST(MicrothreadE2E, PredictionsMostlyCorrect)
{
    // The hard branch is pre-computable from the loaded element, so
    // microthread predictions should be overwhelmingly correct even
    // though the hardware predictor flounders.
    isa::Program prog = workloads::makeSynthetic(hardSpec());
    sim::Stats stats = sim::runProgramChecked(prog, mtConfig(), "prog");
    uint64_t total = stats.microPredCorrect + stats.microPredWrong;
    ASSERT_GT(total, 0u);
    EXPECT_GT(stats.microPredCorrect, total * 9 / 10);
}

TEST(MicrothreadE2E, SpeedsUpDifficultKernel)
{
    isa::Program prog = workloads::makeSynthetic(hardSpec());
    sim::MachineConfig cfg;
    sim::Stats base = sim::runProgramChecked(prog, cfg, "prog");
    sim::Stats mt = sim::runProgramChecked(prog, mtConfig(), "prog");
    EXPECT_GT(base.hwMispredictRate(), 0.03);
    EXPECT_GT(sim::speedup(mt, base), 1.0);
    EXPECT_LT(mt.usedMispredictRate(), base.hwMispredictRate());
}

TEST(MicrothreadE2E, EasyKernelSeesLittleActivity)
{
    workloads::SyntheticSpec spec = hardSpec();
    spec.takenPercent = {0, 100, 0, 100};   // fully biased
    isa::Program prog = workloads::makeSynthetic(spec);
    sim::Stats stats = sim::runProgramChecked(prog, mtConfig(), "prog");
    // Nothing is difficult, so (almost) nothing is promoted; allow
    // warm-up noise.
    EXPECT_LT(stats.promotionsRequested, 4u);
}

TEST(MicrothreadE2E, ArchStateUnaffectedByMicrothreads)
{
    // Subordinate threads are speculative helpers: they must never
    // change the primary thread's architectural results.
    isa::Program prog = workloads::makeSynthetic(hardSpec());
    sim::MachineConfig base_cfg;
    cpu::SsmtCore base_core(prog, base_cfg);
    base_core.run();
    cpu::SsmtCore mt_core(prog, mtConfig());
    mt_core.run();
    for (int r = 0; r < isa::kNumRegs; r++) {
        EXPECT_EQ(
            mt_core.archRegs().read(static_cast<isa::RegIndex>(r)),
            base_core.archRegs().read(static_cast<isa::RegIndex>(r)))
            << "r" << r;
    }
    EXPECT_EQ(mt_core.stats().retiredInsts,
              base_core.stats().retiredInsts);
}

TEST(MicrothreadE2E, AbortMechanismFires)
{
    // Paths from the two 50% sites deviate half the time after the
    // spawn, so post-spawn aborts must occur.
    isa::Program prog = workloads::makeSynthetic(hardSpec());
    sim::Stats stats = sim::runProgramChecked(prog, mtConfig(), "prog");
    EXPECT_GT(stats.spawnAbortPrefix + stats.abortsPostSpawn, 0u);
}

TEST(MicrothreadE2E, TimelinessClassesPopulated)
{
    isa::Program prog = workloads::makeSynthetic(hardSpec());
    sim::Stats stats = sim::runProgramChecked(prog, mtConfig(), "prog");
    EXPECT_GT(stats.predEarly + stats.predLate + stats.predUseless +
                  stats.predNeverReached,
              0u);
}

TEST(MicrothreadE2E, OverheadModeUsesNoPredictions)
{
    isa::Program prog = workloads::makeSynthetic(hardSpec());
    sim::MachineConfig cfg = mtConfig();
    cfg.mode = sim::Mode::MicrothreadNoPredictions;
    sim::MachineConfig base_cfg;
    sim::Stats overhead = sim::runProgramChecked(prog, cfg, "prog");
    sim::Stats base = sim::runProgramChecked(prog, base_cfg, "prog");
    EXPECT_GT(overhead.spawns, 0u);
    EXPECT_EQ(overhead.predEarly, 0u);
    EXPECT_EQ(overhead.earlyRecoveries, 0u);
    EXPECT_EQ(overhead.bogusRecoveries, 0u);
    // Mispredictions are untouched by unused microthreads.
    EXPECT_EQ(overhead.usedMispredicts, base.usedMispredicts);
}

TEST(MicrothreadE2E, OracleRemovesDifficultPathMispredicts)
{
    isa::Program prog = workloads::makeSynthetic(hardSpec());
    sim::MachineConfig cfg;
    sim::Stats base = sim::runProgramChecked(prog, cfg, "prog");
    cfg.mode = sim::Mode::OracleDifficultPath;
    sim::Stats oracle = sim::runProgramChecked(prog, cfg, "prog");
    EXPECT_GT(oracle.oracleOverrides, 0u);
    EXPECT_LT(oracle.usedMispredicts, base.usedMispredicts);
    EXPECT_GE(sim::speedup(oracle, base), 1.0);
}

TEST(MicrothreadE2E, SpawnCountsAreConsistent)
{
    isa::Program prog = workloads::makeSynthetic(hardSpec());
    sim::Stats stats = sim::runProgramChecked(prog, mtConfig(), "prog");
    EXPECT_EQ(stats.spawnAttempts, stats.spawnAbortPrefix +
                                       stats.spawnNoContext +
                                       stats.spawns);
    EXPECT_LE(stats.microthreadsCompleted, stats.spawns);
    EXPECT_LE(stats.abortsPostSpawn, stats.spawns);
}

TEST(MicrothreadE2E, FewerMicrocontextsThrottleSpawns)
{
    isa::Program prog = workloads::makeSynthetic(hardSpec());
    sim::MachineConfig cfg = mtConfig();
    cfg.numMicrocontexts = 1;
    sim::Stats narrow = sim::runProgramChecked(prog, cfg, "prog");
    cfg.numMicrocontexts = 8;
    sim::Stats wide = sim::runProgramChecked(prog, cfg, "prog");
    EXPECT_GE(wide.spawns, narrow.spawns);
    EXPECT_GE(narrow.spawnNoContext, wide.spawnNoContext);
}

TEST(MicrothreadE2E, PruningProducesPrunedRoutines)
{
    isa::Program prog = workloads::makeSynthetic(hardSpec());
    sim::MachineConfig cfg = mtConfig();
    cfg.builder.pruningEnabled = true;
    sim::Stats stats = sim::runProgramChecked(prog, cfg, "prog");
    EXPECT_GT(stats.build.prunedSubtrees, 0u);
    // Pruned routines are no larger on average than unpruned ones
    // from the same kernel (Figure 8's direction).
    sim::MachineConfig raw = mtConfig();
    sim::Stats unpruned = sim::runProgramChecked(prog, raw, "prog");
    EXPECT_LE(stats.build.avgLongestChain(),
              unpruned.build.avgLongestChain() + 0.01);
}

TEST(MicrothreadE2E, PathStabilityBeatsMaximalDifficulty)
{
    // The mechanism's core tension: 50%-random branches are the
    // hardest to predict but also deviate the paths themselves, so
    // spawned microthreads abort; a moderately biased branch keeps
    // paths alive and yields the larger speed-up.
    auto speedup_at = [](int bias) {
        workloads::SyntheticSpec spec = hardSpec();
        spec.takenPercent = {0, 100, bias, bias};
        isa::Program prog = workloads::makeSynthetic(spec);
        sim::MachineConfig cfg;
        sim::Stats base = sim::runProgramChecked(prog, cfg, "prog");
        sim::Stats mt = sim::runProgramChecked(prog, mtConfig(), "prog");
        return sim::speedup(mt, base);
    };
    EXPECT_GT(speedup_at(80), 1.0);
    EXPECT_GE(speedup_at(80), speedup_at(50) - 0.02);
}

TEST(MicrothreadE2E, BuildLatencyDelaysPromotions)
{
    isa::Program prog = workloads::makeSynthetic(hardSpec());
    sim::MachineConfig cfg = mtConfig();
    cfg.buildLatency = 10'000'000;  // effectively never finishes
    sim::Stats stats = sim::runProgramChecked(prog, cfg, "prog");
    EXPECT_LE(stats.promotionsCompleted, 1u);
    EXPECT_EQ(stats.spawns, 0u);
}

} // namespace
