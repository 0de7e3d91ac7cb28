/**
 * @file
 * Longer-run stress and introspection tests: counter consistency
 * over multi-million-instruction runs, PRB retirement-stream
 * integrity, and the late-prediction early-recovery path.
 */

#include <gtest/gtest.h>

#include "cpu/ssmt_core.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

TEST(StressTest, ScaledRunStaysConsistent)
{
    workloads::WorkloadParams params;
    params.scale = 3;
    isa::Program prog = workloads::makeWorkload("comp", params);
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.builder.pruningEnabled = true;
    sim::Stats stats = sim::runProgramChecked(prog, cfg, "prog");
    EXPECT_GT(stats.retiredInsts, 700'000u);
    // Global invariants at scale.
    EXPECT_EQ(stats.spawnAttempts, stats.spawnAbortPrefix +
                                       stats.spawnNoContext +
                                       stats.spawns);
    EXPECT_LE(stats.usedMispredicts,
              stats.condBranches + stats.indirectBranches);
    EXPECT_GE(stats.cycles, stats.retiredInsts / 16);
    EXPECT_GT(stats.microPredCorrect,
              stats.microPredWrong * 3);
}

TEST(StressTest, ScaleLeavesRatesRoughlyStable)
{
    // Per-instruction rates should converge, not drift, as the run
    // extends: a leak (e.g. unbounded structure growth) would bend
    // IPC between scales.
    isa::Program small = workloads::makeWorkload("perl");
    workloads::WorkloadParams big_params;
    big_params.scale = 3;
    isa::Program big = workloads::makeWorkload("perl", big_params);
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    double ipc_small = sim::runProgramChecked(small, cfg, "small").ipc();
    double ipc_big = sim::runProgramChecked(big, cfg, "big").ipc();
    EXPECT_NEAR(ipc_big, ipc_small, 0.25 * ipc_small);
}

TEST(StressTest, PrbHoldsRetirementSuffix)
{
    isa::Program prog =
        workloads::makeSynthetic(workloads::SyntheticSpec{});
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cpu::SsmtCore core(prog, cfg);
    core.run();

    const core::Prb &prb = core.prb();
    ASSERT_GT(prb.size(), 0u);
    ASSERT_LE(prb.size(), 512u);
    // Sequence numbers strictly increase and end at the last
    // retired instruction.
    for (uint32_t pos = 1; pos < prb.size(); pos++)
        ASSERT_LT(prb.at(pos - 1).seq, prb.at(pos).seq) << pos;
    EXPECT_EQ(prb.youngest().seq, core.stats().retiredInsts);
    // Every buffered pc must be a real program location.
    for (uint32_t pos = 0; pos < prb.size(); pos++)
        ASSERT_LT(prb.at(pos).pc, prog.size());
}

TEST(StressTest, EarlyRecoveriesOccurOnLateCorrections)
{
    // comp's difficult branch resolves slowly enough for late
    // microthread predictions to rescue mispredicted fetch stalls;
    // this pins the Section 4.3.3 early-recovery path as exercised.
    isa::Program prog = workloads::makeWorkload("comp");
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    sim::Stats stats = sim::runProgramChecked(prog, cfg, "prog");
    EXPECT_GT(stats.predLate, 0u);
    EXPECT_GT(stats.earlyRecoveries, 0u);
}

TEST(StressTest, RepeatedRunsShareNoState)
{
    // Two cores over the same program must not interact (no global
    // state anywhere in the library).
    isa::Program prog =
        workloads::makeSynthetic(workloads::SyntheticSpec{});
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cpu::SsmtCore a(prog, cfg);
    cpu::SsmtCore b(prog, cfg);
    // Interleave execution.
    while (!a.done() || !b.done()) {
        if (!a.done())
            a.tick();
        if (!b.done())
            b.tick();
    }
    EXPECT_EQ(a.stats().cycles, b.stats().cycles);
    EXPECT_EQ(a.stats().spawns, b.stats().spawns);
    EXPECT_EQ(a.stats().predEarly, b.stats().predEarly);
}

} // namespace
