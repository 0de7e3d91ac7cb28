/**
 * @file
 * Whole-machine snapshot/resume tests: the keystone byte-identity
 * property, snapshot determinism, warmup fan-out across modes,
 * rejection of mismatched programs/configs/documents, and resumable
 * batches (BatchPolicy::resumeOnWatchdog).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/batch_runner.hh"
#include "sim/golden.hh"
#include "sim/metrics.hh"
#include "sim/sim_error.hh"
#include "sim/sim_runner.hh"
#include "sim/snapshot.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

sim::MachineConfig
testConfig(sim::Mode mode, uint64_t sample_interval = 0)
{
    sim::MachineConfig cfg = sim::goldenMachineConfig();
    cfg.mode = mode;
    cfg.sampleInterval = sample_interval;
    return cfg;
}

std::string
goldenText(const std::string &name, const sim::Stats &stats)
{
    return sim::goldenJson({name, sim::kGoldenConfigName, stats});
}

/** Run one cell through BatchRunner, checkpointing after
 *  @p snapshot_at (0 = never) and restoring @p resume_from first
 *  ("" = cold start). */
sim::BatchResult
runCell(const isa::Program &prog, const sim::MachineConfig &cfg,
        const std::string &label, uint64_t snapshot_at = 0,
        const std::string &resume_from = "")
{
    sim::BatchJob job{label, prog, cfg};
    job.snapshotAtCycle = snapshot_at;
    job.resumeFrom = resume_from;
    return sim::BatchRunner(1).run({job})[0];
}

TEST(SnapshotResume, ResumeIsByteIdenticalToStraightThrough)
{
    isa::Program prog = workloads::makeWorkload("comp");
    sim::MachineConfig cfg =
        testConfig(sim::Mode::Microthread, /*sample_interval=*/500);

    sim::BatchResult straight = runCell(prog, cfg, "comp", 5000);
    ASSERT_TRUE(straight.ok()) << straight.error;
    const std::string &snapshot = straight.artifacts.snapshot;
    ASSERT_FALSE(snapshot.empty());
    ASSERT_EQ(straight.artifacts.snapshotCycle, 5000u);
    EXPECT_EQ(sim::snapshotCycle(snapshot), 5000u);
    EXPECT_EQ(sim::snapshotLabel(snapshot), "comp");

    sim::BatchResult resumed = runCell(prog, cfg, "comp", 0, snapshot);
    ASSERT_TRUE(resumed.ok()) << resumed.error;

    EXPECT_EQ(goldenText("comp", resumed.stats),
              goldenText("comp", straight.stats));
    EXPECT_EQ(sim::seriesJson(resumed.artifacts.series),
              sim::seriesJson(straight.artifacts.series));
}

TEST(SnapshotResume, SnapshotsAreDeterministicAndResaveStable)
{
    isa::Program prog = workloads::makeWorkload("comp");
    sim::MachineConfig cfg = testConfig(sim::Mode::Microthread);

    // Two independent straight runs checkpoint byte-identically.
    sim::BatchResult a = runCell(prog, cfg, "comp", 5000);
    sim::BatchResult b = runCell(prog, cfg, "comp", 5000);
    ASSERT_FALSE(a.artifacts.snapshot.empty());
    EXPECT_EQ(a.artifacts.snapshot, b.artifacts.snapshot);

    // Restore-then-recheckpoint at a later cycle matches the
    // straight run's checkpoint at that cycle: restore loses nothing.
    sim::BatchResult straightLater = runCell(prog, cfg, "comp", 7000);
    sim::BatchResult resumedLater =
        runCell(prog, cfg, "comp", 7000, a.artifacts.snapshot);
    ASSERT_FALSE(straightLater.artifacts.snapshot.empty());
    EXPECT_EQ(resumedLater.artifacts.snapshot,
              straightLater.artifacts.snapshot);
}

TEST(SnapshotResume, WarmupSnapshotFansOutAcrossModes)
{
    isa::Program prog = workloads::makeWorkload("comp");
    sim::MachineConfig warmup = testConfig(sim::Mode::Baseline);

    sim::BatchResult baseline = runCell(prog, warmup, "comp", 5000);
    ASSERT_TRUE(baseline.ok()) << baseline.error;
    ASSERT_FALSE(baseline.artifacts.snapshot.empty());

    const sim::Mode fan[] = {sim::Mode::OracleDifficultPath,
                             sim::Mode::Microthread,
                             sim::Mode::OracleAllBranches};
    for (sim::Mode mode : fan) {
        sim::BatchResult run = runCell(prog, testConfig(mode),
                                       "comp/fanout", 0,
                                       baseline.artifacts.snapshot);
        ASSERT_TRUE(run.ok()) << run.error;
        // The machine fetches only correct-path instructions, so the
        // committed stream is mode-invariant even across a restore.
        EXPECT_EQ(run.stats.retiredInsts, baseline.stats.retiredInsts)
            << sim::modeName(mode);
        EXPECT_EQ(run.stats.condBranches, baseline.stats.condBranches)
            << sim::modeName(mode);
    }
}

TEST(SnapshotResume, RejectsWrongProgram)
{
    isa::Program comp = workloads::makeWorkload("comp");
    isa::Program go = workloads::makeWorkload("go");
    sim::MachineConfig cfg = testConfig(sim::Mode::Microthread);

    sim::BatchResult art = runCell(comp, cfg, "comp", 5000);
    ASSERT_FALSE(art.artifacts.snapshot.empty());

    EXPECT_EQ(runCell(go, cfg, "go", 0, art.artifacts.snapshot).errorCode,
              sim::ErrorCode::ConfigInvalid);
}

TEST(SnapshotResume, RejectsStructurallyDifferentConfig)
{
    isa::Program prog = workloads::makeWorkload("comp");
    sim::MachineConfig cfg = testConfig(sim::Mode::Microthread);

    sim::BatchResult art = runCell(prog, cfg, "comp", 5000);
    ASSERT_FALSE(art.artifacts.snapshot.empty());

    sim::MachineConfig narrower = cfg;
    narrower.windowSize /= 2;
    EXPECT_EQ(
        runCell(prog, narrower, "comp", 0, art.artifacts.snapshot)
            .errorCode,
        sim::ErrorCode::ConfigInvalid);
}

TEST(SnapshotResume, RejectsMalformedDocument)
{
    isa::Program prog = workloads::makeWorkload("comp");
    sim::MachineConfig cfg = testConfig(sim::Mode::Microthread);
    std::string garbage = "{\"schema\": \"ssmt-snapshot-v1\", ";
    EXPECT_EQ(runCell(prog, cfg, "comp", 0, garbage).errorCode,
              sim::ErrorCode::ParseError);
}

TEST(SnapshotResume, BatchResumesAcrossWatchdogSlices)
{
    isa::Program prog = workloads::makeWorkload("comp");
    sim::MachineConfig cfg = testConfig(sim::Mode::Microthread);

    sim::Stats straight = sim::runProgramChecked(prog, cfg, "comp");
    ASSERT_GT(straight.cycles, 30000u);     // the budget must trip

    sim::BatchPolicy policy;
    policy.cycleBudget = 30000;
    policy.maxRetries = 8;
    policy.resumeOnWatchdog = true;

    std::vector<sim::BatchJob> batch = {{"comp", prog, cfg}};
    std::vector<sim::BatchResult> results =
        sim::BatchRunner(1).run(batch, policy);
    ASSERT_TRUE(results[0].ok()) << results[0].error;
    EXPECT_GT(results[0].attempts, 1u);
    EXPECT_EQ(goldenText("comp", results[0].stats),
              goldenText("comp", straight));
}

TEST(SnapshotResume, ResumedBatchesAgreeAcrossJobCounts)
{
    const char *names[] = {"comp", "go", "li", "parser_2k"};
    sim::MachineConfig cfg =
        testConfig(sim::Mode::Microthread, /*sample_interval=*/1000);

    std::vector<sim::BatchJob> batch;
    for (const char *name : names)
        batch.push_back({name, workloads::makeWorkload(name), cfg});

    sim::BatchPolicy policy;
    policy.cycleBudget = 100000;
    policy.maxRetries = 10;
    policy.resumeOnWatchdog = true;

    std::vector<sim::BatchResult> serial =
        sim::BatchRunner(1).run(batch, policy);
    std::vector<sim::BatchResult> parallel =
        sim::BatchRunner(4).run(batch, policy);
    for (size_t i = 0; i < batch.size(); i++) {
        ASSERT_TRUE(serial[i].ok()) << serial[i].error;
        ASSERT_TRUE(parallel[i].ok()) << parallel[i].error;
        EXPECT_EQ(goldenText(batch[i].name, parallel[i].stats),
                  goldenText(batch[i].name, serial[i].stats));
        EXPECT_EQ(sim::seriesJson(parallel[i].artifacts.series),
                  sim::seriesJson(serial[i].artifacts.series));
        EXPECT_EQ(parallel[i].attempts, serial[i].attempts);
    }
}

} // namespace

