/**
 * @file
 * Property tests sweeping machine parameters: the timing model must
 * respond monotonically (or at least sanely) to capacity and latency
 * knobs, and the mechanism must stay architecturally transparent at
 * every configuration point.
 */

#include <gtest/gtest.h>

#include "cpu/ssmt_core.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

isa::Program
kernel()
{
    workloads::SyntheticSpec spec;
    spec.numSites = 4;
    spec.elemsPerSite = 64;
    spec.takenPercent = {0, 100, 80, 80};
    spec.iters = 80;
    return workloads::makeSynthetic(spec);
}

TEST(ConfigSweepTest, RedirectPenaltyMonotone)
{
    isa::Program prog = kernel();
    uint64_t prev = 0;
    for (int penalty : {2, 12, 40}) {
        sim::MachineConfig cfg;
        cfg.redirectPenalty = penalty;
        sim::Stats stats = sim::runProgramChecked(prog, cfg, "prog");
        EXPECT_GE(stats.cycles, prev) << "penalty " << penalty;
        prev = stats.cycles;
    }
}

TEST(ConfigSweepTest, WindowSizeMonotone)
{
    isa::Program prog = kernel();
    uint64_t prev = ~0ull;
    for (int window : {32, 128, 512}) {
        sim::MachineConfig cfg;
        cfg.windowSize = window;
        sim::Stats stats = sim::runProgramChecked(prog, cfg, "prog");
        EXPECT_LE(stats.cycles, prev) << "window " << window;
        prev = stats.cycles;
    }
}

TEST(ConfigSweepTest, FuCountMonotone)
{
    isa::Program prog = kernel();
    uint64_t prev = ~0ull;
    for (int fus : {1, 4, 16}) {
        sim::MachineConfig cfg;
        cfg.numFUs = fus;
        sim::Stats stats = sim::runProgramChecked(prog, cfg, "prog");
        EXPECT_LE(stats.cycles, prev) << "FUs " << fus;
        prev = stats.cycles;
    }
}

TEST(ConfigSweepTest, DramLatencyHurts)
{
    // mcf's pointer sweep is DRAM-bound; slower DRAM, slower run.
    isa::Program prog = workloads::makeWorkload("mcf_2k");
    sim::MachineConfig fast;
    fast.mem.dramLatency = 20;
    sim::MachineConfig slow;
    slow.mem.dramLatency = 300;
    EXPECT_LT(sim::runProgramChecked(prog, fast, "prog").cycles,
              sim::runProgramChecked(prog, slow, "prog").cycles);
}

TEST(ConfigSweepTest, FetchWidthHelps)
{
    isa::Program prog = kernel();
    sim::MachineConfig narrow;
    narrow.fetchWidth = 2;
    sim::MachineConfig wide;
    wide.fetchWidth = 16;
    EXPECT_LT(sim::runProgramChecked(prog, wide, "prog").cycles,
              sim::runProgramChecked(prog, narrow, "prog").cycles);
}

class PathNSweep : public testing::TestWithParam<int>
{
};

TEST_P(PathNSweep, MechanismTransparentAtEveryN)
{
    isa::Program prog = kernel();
    sim::MachineConfig base_cfg;
    cpu::SsmtCore base(prog, base_cfg);
    base.run();

    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.pathN = GetParam();
    cfg.builder.pruningEnabled = true;
    cpu::SsmtCore core(prog, cfg);
    core.run();

    EXPECT_EQ(core.stats().retiredInsts, base.stats().retiredInsts);
    for (int r = 0; r < isa::kNumRegs; r++) {
        ASSERT_EQ(core.archRegs().read(static_cast<isa::RegIndex>(r)),
                  base.archRegs().read(static_cast<isa::RegIndex>(r)))
            << "n=" << GetParam() << " r" << r;
    }
}

TEST_P(PathNSweep, SeqDeltaMatchingHoldsAtEveryN)
{
    // Every consumed early prediction relies on exact
    // (Path_Id, Seq_Num) matching; if the spawn-to-branch
    // separations were wrong, predictions would all go stale
    // (never-reached) instead of being consumed.
    isa::Program prog = kernel();
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.pathN = GetParam();
    sim::Stats stats = sim::runProgramChecked(prog, cfg, "prog");
    if (stats.spawns > 500) {
        EXPECT_GT(stats.predEarly + stats.predLate, 0u)
            << "n=" << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Ns, PathNSweep,
                         testing::Values(1, 2, 4, 8, 10, 16));

TEST(ConfigSweepTest, TinyPredictionCacheStillCorrect)
{
    isa::Program prog = kernel();
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.predictionCacheEntries = 2;
    sim::MachineConfig base_cfg;
    cpu::SsmtCore base(prog, base_cfg);
    base.run();
    cpu::SsmtCore core(prog, cfg);
    core.run();
    EXPECT_EQ(core.stats().retiredInsts, base.stats().retiredInsts);
}

TEST(ConfigSweepTest, McbBoundsRoutineSize)
{
    isa::Program prog = kernel();
    for (int mcb : {2, 8, 64}) {
        sim::MachineConfig cfg;
        cfg.mode = sim::Mode::Microthread;
        cfg.builder.mcbEntries = mcb;
        sim::Stats stats = sim::runProgramChecked(prog, cfg, "prog");
        if (stats.build.built > 0) {
            EXPECT_LE(stats.build.avgRoutineSize(),
                      static_cast<double>(mcb) + 1.0)
                << "mcb " << mcb;
        }
    }
}

TEST(ConfigSweepTest, SmallPathCacheStillFunctions)
{
    isa::Program prog = kernel();
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.pathCacheEntries = 64;
    cfg.pathCacheAssoc = 4;
    sim::Stats stats = sim::runProgramChecked(prog, cfg, "prog");
    EXPECT_GT(stats.ipc(), 0.0);
}

TEST(ConfigSweepTest, PrbSmallerThanScopeBlocksBuilds)
{
    isa::Program prog = kernel();
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.pathN = 16;
    cfg.prbEntries = 16;    // cannot hold a 16-branch scope
    sim::Stats stats = sim::runProgramChecked(prog, cfg, "prog");
    EXPECT_EQ(stats.build.built, 0u);
    EXPECT_GT(stats.build.failScopeNotInPrb, 0u);
}

TEST(ConfigSweepTest, ZeroLatencyHierarchyBeatsDefault)
{
    isa::Program prog = workloads::makeWorkload("comp");
    sim::MachineConfig fast;
    fast.mem.l1Latency = 1;
    fast.mem.l2Latency = 1;
    fast.mem.dramLatency = 1;
    sim::MachineConfig normal;
    EXPECT_LT(sim::runProgramChecked(prog, fast, "prog").cycles,
              sim::runProgramChecked(prog, normal, "prog").cycles);
}

TEST(ConfigSweepDeathTest, InvalidNPanics)
{
    isa::Program prog = kernel();
    sim::MachineConfig cfg;
    cfg.pathN = 17;
    EXPECT_DEATH(cpu::SsmtCore(prog, cfg), "path n");
}

} // namespace
