/**
 * @file
 * Snapshot-reader resilience: feeding truncated, bit-flipped or
 * outright garbage documents into the resume path must always
 * surface as a catchable SimError — never a crash, hang, or
 * uncontrolled exception. Runs under the tier2-sanitize preset so
 * ASan/UBSan also vet every rejection path for memory errors.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cpu/ssmt_core.hh"
#include "sim/batch_runner.hh"
#include "sim/machine_config.hh"
#include "sim/sim_error.hh"
#include "sim/snapshot.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

class SnapshotCorrupt : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        prog_ = new isa::Program(workloads::makeSynthetic({}));
        cfg_.mode = sim::Mode::Microthread;
        batch_ = {{"corrupt-corpus", *prog_, cfg_}};
        batch_[0].snapshotAtCycle = 2000;
        snapshot_ = sim::BatchRunner(1).run(batch_)[0].artifacts.snapshot;
        ASSERT_FALSE(snapshot_.empty());
        batch_[0].name = "corrupt";
        batch_[0].snapshotAtCycle = 0;
    }

    static void
    TearDownTestSuite()
    {
        batch_.clear();
        delete prog_;
        prog_ = nullptr;
    }

    /** Resume from @p doc. @return the error code of the SimError it
     *  raised, or ErrorCode::None when the document restored and ran
     *  cleanly. Anything else (other exception types, crashes) fails
     *  the test. Drives restoreMachineSnapshot directly so even an
     *  empty document reaches the reader (BatchJob::resumeFrom treats
     *  an empty text as "run fresh"), then finishes the run through
     *  the batch resume path when the restore succeeded; there, any
     *  non-SimError exception reads as ErrorCode::Internal, which no
     *  caller accepts. */
    static sim::ErrorCode
    resumeVerdict(const std::string &doc)
    {
        try {
            cpu::SsmtCore core(*prog_, cfg_);
            sim::restoreMachineSnapshot(core, *prog_, cfg_, doc);
        } catch (const sim::SimError &err) {
            return err.code();
        }
        // Let any non-SimError exception escape: the harness reports
        // it as the failure it is.
        batch_[0].resumeFrom = doc;
        return sim::BatchRunner(1).run(batch_)[0].errorCode;
    }

    static isa::Program *prog_;
    /** The one resume job, reused so each document costs no
     *  program copy. */
    static std::vector<sim::BatchJob> batch_;
    static sim::MachineConfig cfg_;
    static std::string snapshot_;
};

isa::Program *SnapshotCorrupt::prog_ = nullptr;
std::vector<sim::BatchJob> SnapshotCorrupt::batch_;
sim::MachineConfig SnapshotCorrupt::cfg_;
std::string SnapshotCorrupt::snapshot_;

TEST_F(SnapshotCorrupt, GarbageDocumentsAreParseErrors)
{
    const char *corpus[] = {
        "",
        "   ",
        "not json",
        "{",
        "{}",
        "[1, 2, 3]",
        "{\"schema\": \"wrong\"}",
        "{\"schema\": \"ssmt-snapshot-v1\"}",
        "{\"schema\": \"ssmt-snapshot-v1\", \"cycle\": }",
        "\xff\xfe\x00\x01 binary noise",
    };
    for (const char *doc : corpus) {
        SCOPED_TRACE(std::string(doc).substr(0, 40));
        EXPECT_EQ(resumeVerdict(doc), sim::ErrorCode::ParseError);
    }
}

TEST_F(SnapshotCorrupt, EveryTruncationIsRejected)
{
    // Sweep prefixes of the real document, clustered near the start
    // (envelope) and sampled through the body. A truncated document
    // must never restore.
    std::vector<size_t> cuts;
    for (size_t len = 0; len < 64 && len < snapshot_.size(); len++)
        cuts.push_back(len);
    for (int i = 1; i < 64; i++)
        cuts.push_back(snapshot_.size() * i / 64);
    for (size_t tail = 1; tail <= 8; tail++)
        if (tail < snapshot_.size())
            cuts.push_back(snapshot_.size() - tail);

    for (size_t len : cuts) {
        SCOPED_TRACE("truncate to " + std::to_string(len) +
                     " bytes of " + std::to_string(snapshot_.size()));
        sim::ErrorCode code =
            resumeVerdict(snapshot_.substr(0, len));
        EXPECT_NE(code, sim::ErrorCode::None);
        EXPECT_TRUE(code == sim::ErrorCode::ParseError ||
                    code == sim::ErrorCode::ConfigInvalid)
            << sim::errorCodeName(code);
    }
}

TEST_F(SnapshotCorrupt, BitFlipsNeverEscapeTheErrorContract)
{
    // Flip a single bit at positions spread across the document.
    // Flips in structural bytes must be rejected as SimError; a flip
    // inside a numeric payload may legitimately restore (there is
    // deliberately no checksum — the store key binds identity) and
    // must then run to completion without tripping anything fatal.
    size_t flips = 0, rejected = 0, survived = 0;
    for (int i = 0; i < 96; i++) {
        size_t pos = (snapshot_.size() * i) / 96;
        std::string doc = snapshot_;
        doc[pos] = static_cast<char>(doc[pos] ^ (1u << (i % 8)));
        if (doc[pos] == snapshot_[pos])
            continue;
        SCOPED_TRACE("flip bit " + std::to_string(i % 8) + " at " +
                     std::to_string(pos));
        flips++;
        sim::ErrorCode code = resumeVerdict(doc);
        if (code == sim::ErrorCode::None) {
            survived++;
        } else {
            rejected++;
            EXPECT_TRUE(code == sim::ErrorCode::ParseError ||
                        code == sim::ErrorCode::ConfigInvalid ||
                        code == sim::ErrorCode::InvariantViolation)
                << sim::errorCodeName(code);
        }
    }
    EXPECT_GT(flips, 0u);
    // The envelope (schema/hash/fingerprint) plus JSON structure make
    // up enough of the document that most flips must be caught.
    EXPECT_GT(rejected, 0u);
    SUCCEED() << flips << " flips: " << rejected << " rejected, "
              << survived << " restored cleanly";
}

TEST_F(SnapshotCorrupt, DuplicatedAndSplicedDocumentsAreRejected)
{
    EXPECT_EQ(resumeVerdict(snapshot_ + snapshot_),
              sim::ErrorCode::ParseError);
    EXPECT_EQ(resumeVerdict(snapshot_ + "garbage tail"),
              sim::ErrorCode::ParseError);
    // Splice the tail of the doc onto its own head at a brace
    // boundary — structurally valid JSON is not enough; the reader
    // must still demand the full schema.
    size_t mid = snapshot_.find("\"machine\"");
    ASSERT_NE(mid, std::string::npos);
    EXPECT_NE(resumeVerdict(snapshot_.substr(0, mid) + "}"),
              sim::ErrorCode::None);
}

} // namespace
