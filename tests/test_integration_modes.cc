/**
 * @file
 * Cross-mode integration tests on real suite workloads: every mode
 * must preserve architectural results, and the stats must satisfy
 * the mechanism's global invariants.
 */

#include <gtest/gtest.h>

#include "cpu/ssmt_core.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

class ModeIntegration : public testing::TestWithParam<std::string>
{
  protected:
    isa::Program prog_ = workloads::makeWorkload(GetParam());
};

TEST_P(ModeIntegration, AllModesPreserveArchitecture)
{
    sim::MachineConfig cfg;
    cpu::SsmtCore baseline(prog_, cfg);
    baseline.run();
    for (sim::Mode mode :
         {sim::Mode::OracleDifficultPath, sim::Mode::Microthread,
          sim::Mode::MicrothreadNoPredictions}) {
        sim::MachineConfig mode_cfg;
        mode_cfg.mode = mode;
        cpu::SsmtCore core(prog_, mode_cfg);
        core.run();
        EXPECT_EQ(core.stats().retiredInsts,
                  baseline.stats().retiredInsts)
            << sim::modeName(mode);
        for (int r = 0; r < isa::kNumRegs; r++) {
            ASSERT_EQ(
                core.archRegs().read(static_cast<isa::RegIndex>(r)),
                baseline.archRegs().read(
                    static_cast<isa::RegIndex>(r)))
                << sim::modeName(mode) << " r" << r;
        }
    }
}

TEST_P(ModeIntegration, OracleNeverSlowerThanBaseline)
{
    sim::MachineConfig cfg;
    sim::Stats base = sim::runProgramChecked(prog_, cfg, "prog");
    cfg.mode = sim::Mode::OracleDifficultPath;
    sim::Stats oracle = sim::runProgramChecked(prog_, cfg, "prog");
    EXPECT_LE(oracle.usedMispredicts, base.usedMispredicts);
    EXPECT_GE(sim::speedup(oracle, base), 0.999);
}

TEST_P(ModeIntegration, StatInvariantsHold)
{
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.builder.pruningEnabled = true;
    sim::Stats stats = sim::runProgramChecked(prog_, cfg, "prog");

    EXPECT_EQ(stats.spawnAttempts, stats.spawnAbortPrefix +
                                       stats.spawnNoContext +
                                       stats.spawns);
    EXPECT_LE(stats.microthreadsCompleted + stats.abortsPostSpawn,
              stats.spawns + stats.microthreadsCompleted);
    EXPECT_LE(stats.promotionsCompleted,
              stats.promotionsRequested + stats.rebuildRequests);
    EXPECT_LE(stats.microPredCorrect + stats.microPredWrong,
              stats.predEarly + stats.predLate + stats.predUseless);
    EXPECT_LE(stats.usedMispredicts,
              stats.condBranches + stats.indirectBranches);
    EXPECT_GT(stats.ipc(), 0.0);
}

TEST_P(ModeIntegration, MicrothreadModeReducesOrKeepsMispredicts)
{
    sim::MachineConfig cfg;
    sim::Stats base = sim::runProgramChecked(prog_, cfg, "prog");
    cfg.mode = sim::Mode::Microthread;
    sim::Stats mt = sim::runProgramChecked(prog_, cfg, "prog");
    // Allow a tiny tolerance: bogus recoveries can add a handful.
    EXPECT_LE(mt.usedMispredicts,
              base.usedMispredicts + base.usedMispredicts / 20 + 8);
}

INSTANTIATE_TEST_SUITE_P(
    Sample, ModeIntegration,
    testing::Values("comp", "go", "vortex", "mcf_2k", "gap_2k"),
    [](const auto &info) { return info.param; });

TEST(IntegrationTest, HwMispredictRateInvariantAcrossModes)
{
    // The hardware predictor is trained identically in every mode;
    // its misprediction profile must not change.
    isa::Program prog = workloads::makeWorkload("comp");
    sim::MachineConfig cfg;
    sim::Stats base = sim::runProgramChecked(prog, cfg, "prog");
    cfg.mode = sim::Mode::Microthread;
    sim::Stats mt = sim::runProgramChecked(prog, cfg, "prog");
    EXPECT_EQ(base.condHwMispredicts, mt.condHwMispredicts);
    EXPECT_EQ(base.condBranches, mt.condBranches);
    cfg.mode = sim::Mode::OracleDifficultPath;
    sim::Stats oracle = sim::runProgramChecked(prog, cfg, "prog");
    EXPECT_EQ(base.condHwMispredicts, oracle.condHwMispredicts);
}

TEST(IntegrationTest, PaperHeadlineShapeOnSample)
{
    // Figure 7's qualitative ordering on a mispredict-heavy sample:
    // oracle >= microthread >= baseline.
    isa::Program prog = workloads::makeWorkload("go");
    sim::MachineConfig cfg;
    sim::Stats base = sim::runProgramChecked(prog, cfg, "prog");
    cfg.mode = sim::Mode::Microthread;
    sim::Stats mt = sim::runProgramChecked(prog, cfg, "prog");
    cfg.mode = sim::Mode::OracleDifficultPath;
    sim::Stats oracle = sim::runProgramChecked(prog, cfg, "prog");
    EXPECT_GT(sim::speedup(mt, base), 1.0);
    EXPECT_GT(sim::speedup(oracle, base),
              sim::speedup(mt, base) * 0.95);
}

TEST(IntegrationTest, Section431AbortRatesInPaperBallpark)
{
    // Section 4.3.2 reports 67% pre-allocation aborts and 66%
    // post-spawn aborts on SPEC; our proxies land in a broad band
    // around those figures.
    std::vector<double> pre, post;
    for (const char *name : {"comp", "go", "crafty_2k"}) {
        sim::MachineConfig cfg;
        cfg.mode = sim::Mode::Microthread;
        sim::Stats stats =
            sim::runProgramChecked(workloads::makeWorkload(name), cfg, name);
        if (stats.spawnAttempts > 100)
            pre.push_back(stats.preAllocationAbortRate());
        if (stats.spawns > 100)
            post.push_back(stats.postSpawnAbortRate());
    }
    ASSERT_FALSE(pre.empty());
    for (double rate : pre)
        EXPECT_GT(rate, 0.10);
    for (double rate : post)
        EXPECT_GT(rate, 0.10);
}

} // namespace
