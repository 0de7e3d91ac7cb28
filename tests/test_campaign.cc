/**
 * @file
 * Campaign durability tests: the journal + content-addressed store
 * must make a killed campaign resumable with finished cells served as
 * cache hits and the final manifest byte-identical to an
 * uninterrupted run — failures included. Also covers the canonical
 * spec serialization, cell enumeration, journal tail tolerance, spec
 * identity pinning, and store garbage collection.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

#include "sim/campaign.hh"
#include "sim/fsio.hh"
#include "sim/sim_error.hh"

namespace
{

using namespace ssmt;

/** Wipe and recreate a campaign directory under the test cwd. */
std::string
freshDir(const std::string &name)
{
    std::string dir = "campaign_test_" + name;
    for (const std::string &file : sim::listDir(dir + "/store"))
        sim::removeFile(dir + "/store/" + file);
    ::rmdir((dir + "/store").c_str());
    for (const std::string &file : sim::listDir(dir))
        sim::removeFile(dir + "/" + file);
    ::rmdir(dir.c_str());
    return dir;
}

/** A two-workload, two-mode grid on the lightest real workload mix;
 *  sampling on so series travel through the store too. */
sim::CampaignSpec
smallSpec()
{
    sim::CampaignSpec spec;
    spec.name = "campaign-test";
    spec.workloads = {"comp"};
    spec.modes = {sim::Mode::Baseline, sim::Mode::Microthread};
    spec.seeds = {0, 7};
    spec.sampleInterval = 2000;
    return spec;
}

TEST(CampaignSpec, CanonicalJsonRoundTrips)
{
    sim::CampaignSpec spec = smallSpec();
    spec.faults.site = sim::FaultSite::PredCacheFlip;
    spec.faults.count = 3;
    spec.faults.seed = 99;
    spec.policy.maxRetries = 2;
    spec.policy.cycleBudget = 123456;
    spec.policy.resumeOnWatchdog = true;
    spec.policy.isolate = true;
    spec.policy.wallDeadlineMs = 1500;
    spec.policy.memLimitMb = 512;
    spec.policy.cpuLimitSeconds = 60;
    spec.policy.backoffMs = 10;
    spec.crashes.emplace_back("comp/baseline/s0",
                              sim::CrashKind::Abort);

    std::string json = sim::specJson(spec);
    sim::CampaignSpec parsed = sim::parseSpec(json);
    EXPECT_EQ(sim::specJson(parsed), json);
    EXPECT_EQ(parsed.modes, spec.modes);
    EXPECT_EQ(parsed.seeds, spec.seeds);
    EXPECT_EQ(parsed.policy.wallDeadlineMs,
              spec.policy.wallDeadlineMs);
    ASSERT_EQ(parsed.crashes.size(), 1u);
    EXPECT_EQ(parsed.crashes[0].first, "comp/baseline/s0");
    EXPECT_EQ(parsed.crashes[0].second, sim::CrashKind::Abort);

    EXPECT_THROW(sim::parseSpec("{\"schema\": \"bogus\"}"),
                 sim::SimError);
    EXPECT_THROW(sim::parseSpec(json.substr(0, json.size() / 2)),
                 sim::SimError);
}

TEST(CampaignSpec, SpecBytesArePinned)
{
    // Every field off its default. The spec text names campaign
    // directories, journal headers and manifests, so its keys, their
    // order and the hash must never move.
    sim::CampaignSpec spec;
    spec.name = "pinned";
    spec.workloads = {"comp", "go"};
    spec.modes = {sim::Mode::Baseline, sim::Mode::Microthread};
    spec.seeds = {0, 7};
    spec.scale = 2;
    spec.sampleInterval = 2000;
    spec.maxInsts = 50000;
    spec.faults.site = sim::FaultSite::PredCacheFlip;
    spec.faults.seed = 99;
    spec.faults.count = 3;
    spec.faults.startCycle = 100;
    spec.faults.period = 10;
    spec.policy.maxRetries = 2;
    spec.policy.cycleBudget = 123456;
    spec.policy.resumeOnWatchdog = true;
    spec.policy.isolate = true;
    spec.policy.wallDeadlineMs = 1500;
    spec.policy.memLimitMb = 512;
    spec.policy.cpuLimitSeconds = 60;
    spec.policy.backoffMs = 10;
    spec.crashes.emplace_back("comp/baseline/s0",
                              sim::CrashKind::Abort);

    const std::string want =
        "{\"name\":\"pinned\",\"workloads\":[{\"name\":\"comp\"},"
        "{\"name\":\"go\"}],\"modes\":[{\"name\":\"baseline\"},"
        "{\"name\":\"microthread\"}],\"seeds\":[0,7],\"scale\":2,"
        "\"sampleInterval\":2000,\"maxInsts\":50000,"
        "\"faults\":{\"site\":\"pred-cache-flip\",\"seed\":99,"
        "\"count\":3,\"startCycle\":100,\"period\":10},"
        "\"maxRetries\":2,\"cycleBudget\":123456,"
        "\"resumeOnWatchdog\":true,\"isolate\":true,"
        "\"wallDeadlineMs\":1500,\"memLimitMb\":512,"
        "\"cpuLimitSeconds\":60,\"backoffMs\":10,"
        "\"crashes\":[{\"cell\":\"comp/baseline/s0\","
        "\"kind\":\"abort\"}]}";
    EXPECT_EQ(sim::specJson(spec), want);
    EXPECT_EQ(sim::specHash(spec), "e334184d872cdf78");
    EXPECT_EQ(sim::specJson(sim::parseSpec(want)), want);
}

TEST(CampaignSpec, CellEnumerationIsWorkloadMajor)
{
    sim::CampaignSpec spec = smallSpec();
    spec.crashes.emplace_back("comp/microthread/s7",
                              sim::CrashKind::Hang);
    std::vector<sim::CampaignCell> cells = sim::campaignCells(spec);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].name, "comp/baseline/s0");
    EXPECT_EQ(cells[1].name, "comp/baseline/s7");
    EXPECT_EQ(cells[2].name, "comp/microthread/s0");
    EXPECT_EQ(cells[3].name, "comp/microthread/s7");
    EXPECT_EQ(cells[3].crash, sim::CrashKind::Hang);
    EXPECT_EQ(cells[0].crash, sim::CrashKind::None);
}

TEST(Campaign, InterruptedRunResumesToByteIdenticalManifest)
{
    sim::CampaignSpec spec = smallSpec();

    // Reference: one uninterrupted run.
    std::string ref_dir = freshDir("ref");
    sim::CampaignOptions ref_opts;
    ref_opts.jobs = 1;
    sim::CampaignOutcome ref =
        sim::runCampaign(spec, ref_dir, ref_opts);
    ASSERT_TRUE(ref.completed);
    EXPECT_EQ(ref.executed, 4u);
    EXPECT_EQ(ref.failed, 0u);
    std::string ref_manifest =
        sim::readFileOrEmpty(ref.manifestPath);
    ASSERT_FALSE(ref_manifest.empty());

    // Interrupted: cancel after the first journaled cell — exactly
    // the durable state a mid-run `kill -9` leaves behind (the
    // journal is fsynced per line).
    std::string dir = freshDir("resume");
    std::atomic<bool> cancel{false};
    sim::CampaignOptions opts;
    opts.jobs = 1;
    opts.cancel = &cancel;
    opts.log = [&](const std::string &) { cancel.store(true); };
    sim::CampaignOutcome interrupted =
        sim::runCampaign(spec, dir, opts);
    EXPECT_FALSE(interrupted.completed);
    EXPECT_EQ(interrupted.executed, 1u);
    EXPECT_FALSE(sim::pathExists(dir + "/manifest.json"));

    // Resume: the same call again. Finished cells come back as cache
    // hits; the manifest must be byte-identical to the reference.
    sim::CampaignOptions resume_opts;
    resume_opts.jobs = 1;
    sim::CampaignOutcome resumed =
        sim::runCampaign(spec, dir, resume_opts);
    ASSERT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.cacheHits, 1u);
    EXPECT_EQ(resumed.executed, 3u);
    EXPECT_EQ(sim::readFileOrEmpty(resumed.manifestPath),
              ref_manifest);

    // A third run is all cache hits and still byte-identical.
    sim::CampaignOutcome replay =
        sim::runCampaign(spec, dir, resume_opts);
    ASSERT_TRUE(replay.completed);
    EXPECT_EQ(replay.cacheHits, 4u);
    EXPECT_EQ(replay.executed, 0u);
    EXPECT_EQ(sim::readFileOrEmpty(replay.manifestPath),
              ref_manifest);
}

TEST(Campaign, CrashedCellsPersistAndReplayFromTheStore)
{
    sim::CampaignSpec spec = smallSpec();
    spec.seeds = {0};
    spec.policy.isolate = true;
    spec.policy.wallDeadlineMs = 60000;
    spec.crashes.emplace_back("comp/baseline/s0",
                              sim::CrashKind::Abort);

    std::string dir = freshDir("crash");
    sim::CampaignOptions opts;
    opts.jobs = 1;
    sim::CampaignOutcome first = sim::runCampaign(spec, dir, opts);
    ASSERT_TRUE(first.completed);
    EXPECT_EQ(first.failed, 1u);
    EXPECT_EQ(first.results[0].errorCode,
              sim::ErrorCode::JobCrashed);
    EXPECT_TRUE(first.results[1].ok());
    EXPECT_NE(first.failureSummary.find("comp/baseline/s0"),
              std::string::npos);
    std::string manifest = sim::readFileOrEmpty(first.manifestPath);
    EXPECT_NE(manifest.find("job-crashed"), std::string::npos);

    // Errored cells are stored too: the rerun replays the failure
    // from the store and reproduces the manifest byte-for-byte.
    sim::CampaignOutcome rerun = sim::runCampaign(spec, dir, opts);
    ASSERT_TRUE(rerun.completed);
    EXPECT_EQ(rerun.cacheHits, 2u);
    EXPECT_EQ(rerun.executed, 0u);
    EXPECT_EQ(rerun.failed, 1u);
    EXPECT_EQ(sim::readFileOrEmpty(rerun.manifestPath), manifest);
}

TEST(Campaign, JournalToleratesTruncatedFinalLine)
{
    sim::CampaignSpec spec = smallSpec();
    spec.seeds = {0};

    std::string dir = freshDir("tail");
    sim::CampaignOptions opts;
    opts.jobs = 1;
    sim::CampaignOutcome done = sim::runCampaign(spec, dir, opts);
    ASSERT_TRUE(done.completed);

    // Simulate a kill mid-append: a partial, unterminated JSON line.
    std::FILE *f = std::fopen((dir + "/journal.jsonl").c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"cell\": \"comp/micro", f);
    std::fclose(f);

    sim::JournalContents journal =
        sim::CampaignJournal::read(dir + "/journal.jsonl");
    EXPECT_TRUE(journal.headerOk);
    EXPECT_EQ(journal.cells.size(), 2u);
    EXPECT_EQ(journal.corruptLines, 0u);

    // The campaign still resumes over it: same spec, all cache hits.
    sim::CampaignOutcome resumed = sim::runCampaign(spec, dir, opts);
    ASSERT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.cacheHits, 2u);
    EXPECT_EQ(resumed.executed, 0u);
}

TEST(Campaign, SpecMismatchRefusedUnlessForced)
{
    sim::CampaignSpec spec = smallSpec();
    spec.seeds = {0};
    spec.modes = {sim::Mode::Baseline};

    std::string dir = freshDir("mismatch");
    sim::CampaignOptions opts;
    opts.jobs = 1;
    ASSERT_TRUE(sim::runCampaign(spec, dir, opts).completed);

    sim::CampaignSpec changed = spec;
    changed.scale = 2;
    try {
        sim::runCampaign(changed, dir, opts);
        ADD_FAILURE() << "changed spec accepted over a pinned journal";
    } catch (const sim::SimError &err) {
        EXPECT_EQ(err.code(), sim::ErrorCode::ConfigInvalid);
    }

    // force restarts the journal; the changed spec's cells all run
    // (the old store entries are keyed differently and ignored).
    sim::CampaignOptions forced = opts;
    forced.force = true;
    sim::CampaignOutcome restarted =
        sim::runCampaign(changed, dir, forced);
    ASSERT_TRUE(restarted.completed);
    EXPECT_EQ(restarted.cacheHits, 0u);
    EXPECT_EQ(restarted.executed, 1u);
}

TEST(Campaign, GcRemovesOnlyUnreferencedEntries)
{
    sim::CampaignSpec spec = smallSpec();
    spec.seeds = {0};

    std::string dir = freshDir("gc");
    sim::CampaignOptions opts;
    opts.jobs = 1;
    ASSERT_TRUE(sim::runCampaign(spec, dir, opts).completed);
    EXPECT_EQ(sim::ResultStore(dir + "/store").list().size(), 2u);

    // Narrow the grid: the microthread cell's entry becomes garbage.
    sim::CampaignSpec narrowed = spec;
    narrowed.modes = {sim::Mode::Baseline};
    std::vector<std::string> removed =
        sim::campaignGc(narrowed, dir);
    EXPECT_EQ(removed.size(), 1u);
    EXPECT_EQ(sim::ResultStore(dir + "/store").list().size(), 1u);

    // The surviving entry still serves the narrowed campaign (force
    // rewrites the journal pin to the narrowed spec).
    sim::CampaignOptions forced = opts;
    forced.force = true;
    sim::CampaignOutcome outcome =
        sim::runCampaign(narrowed, dir, forced);
    ASSERT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.cacheHits, 1u);
    EXPECT_EQ(outcome.executed, 0u);
}

TEST(Campaign, OnCellHookSeesEveryCellWithCacheState)
{
    sim::CampaignSpec spec = smallSpec();
    std::string dir = freshDir("oncell");

    std::vector<std::pair<std::string, bool>> seen;
    sim::CampaignOptions opts;
    opts.jobs = 1;
    opts.onCell = [&](const sim::CampaignCell &cell,
                      const std::string &key,
                      const sim::BatchResult &result, bool cached) {
        EXPECT_FALSE(key.empty());
        EXPECT_TRUE(result.ok());
        seen.emplace_back(cell.name, cached);
    };
    ASSERT_TRUE(sim::runCampaign(spec, dir, opts).completed);
    ASSERT_EQ(seen.size(), 4u);
    for (const auto &entry : seen)
        EXPECT_FALSE(entry.second) << entry.first;

    // Replay: the hook fires again for every cell, now cached.
    seen.clear();
    ASSERT_TRUE(sim::runCampaign(spec, dir, opts).completed);
    ASSERT_EQ(seen.size(), 4u);
    for (const auto &entry : seen)
        EXPECT_TRUE(entry.second) << entry.first;
}

TEST(Campaign, JournalLagCountsStoredButUnjournaledCells)
{
    sim::CampaignSpec spec = smallSpec();
    std::string dir = freshDir("lag");
    sim::CampaignOptions opts;
    opts.jobs = 1;
    ASSERT_TRUE(sim::runCampaign(spec, dir, opts).completed);

    sim::JournalContents journal =
        sim::CampaignJournal::read(dir + "/journal.jsonl");
    ASSERT_TRUE(journal.exists);
    std::vector<std::string> keys =
        sim::ResultStore(dir + "/store").list();
    ASSERT_EQ(keys.size(), 4u);

    // A clean run: every stored result was acknowledged.
    EXPECT_EQ(sim::journalLag(journal, keys), 0u);

    // Simulate a death between store.save and journal.append by
    // adding store entries the journal never saw.
    keys.push_back("phantom-key-1");
    keys.push_back("phantom-key-2");
    EXPECT_EQ(sim::journalLag(journal, keys), 2u);

    // An empty journal lags by the whole store.
    sim::JournalContents fresh;
    EXPECT_EQ(sim::journalLag(fresh, keys), keys.size());
}

TEST(Campaign, UnknownWorkloadIsRejectedUpFront)
{
    sim::CampaignSpec spec = smallSpec();
    spec.workloads = {"no-such-workload"};
    std::string dir = freshDir("badspec");
    try {
        sim::runCampaign(spec, dir, {});
        ADD_FAILURE() << "unknown workload accepted";
    } catch (const sim::SimError &err) {
        EXPECT_EQ(err.code(), sim::ErrorCode::UnknownWorkload);
    }
}

} // namespace
