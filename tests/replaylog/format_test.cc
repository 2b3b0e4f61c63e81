// Report-log segment layout: an unsealed FSNP section file. The
// truncation contract (every prefix of a valid segment reads cleanly to a
// section boundary or stops with damage there — never a torn batch), a
// bit-flip sweep over the whole file, the rule that a section whose id is
// not the one its position calls for is damage rather than skipped, the
// retired FRLG layout failing at its header, and the reseal subtlety: a
// batch whose section checksum was recomputed after frame damage reads
// "cleanly" here by design, because the wire checksum trailer inside the
// frame is the next gate (replay counts it undecodable; see
// replay_test.cc).

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/hash.h"
#include "felip/data/dataset.h"
#include "felip/replaylog/store.h"
#include "felip/snapshot/format.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/wire/framing.h"
#include "support/alloc_cap.h"
#include "support/log_segments.h"

namespace felip::replaylog {
namespace {

using snapshot::SectionId;
using test_support::EncodeLogSegment;
using test_support::LoggedBatch;
using test_support::ReadLog;
using test_support::ReadLogSegment;

std::vector<data::AttributeInfo> Schema() {
  return {{"age", 16, false}, {"sex", 2, true}};
}

std::vector<uint8_t> MakePlan() {
  core::FelipConfig config;
  config.seed = 5;
  return EncodePlan(config, 1000, Schema());
}

struct SegmentFixture {
  std::vector<uint8_t> bytes;
  std::vector<LoggedBatch> batches;
  // Byte offsets that are section boundaries after the plan: the first
  // batch's start and the end of every batch (the last == bytes.size()).
  std::vector<size_t> boundaries;
};

SegmentFixture MakeValidSegment() {
  SegmentFixture fixture;
  fixture.batches = {{0x1000, {1, 2, 3, 4, 5}}, {0x1001, {}},
                     {0x1002, {9, 8, 7}}};
  fixture.bytes = EncodeLogSegment(MakePlan(), {});
  fixture.boundaries.push_back(fixture.bytes.size());
  for (const LoggedBatch& batch : fixture.batches) {
    test_support::AppendBatch(&fixture.bytes, batch.key, batch.frame);
    fixture.boundaries.push_back(fixture.bytes.size());
  }
  return fixture;
}

void ExpectPrefix(const std::vector<LoggedBatch>& actual,
                  const std::vector<LoggedBatch>& expected, size_t count) {
  ASSERT_EQ(actual.size(), count);
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "batch " << i;
  }
}

TEST(ReplayLogFormatTest, RoundTripsRecordsInOrder) {
  const SegmentFixture fixture = MakeValidSegment();
  const ReadLog log = ReadLogSegment(fixture.bytes);
  ASSERT_TRUE(log.plan_ok);
  EXPECT_TRUE(log.clean);
  ExpectPrefix(log.batches, fixture.batches, fixture.batches.size());
  // The plan is the snapshot format's kConfig and kSchema sections.
  std::vector<uint8_t> plan;
  snapshot::AppendSection(&plan, SectionId::kConfig, {log.config});
  snapshot::AppendSection(&plan, SectionId::kSchema, {log.schema});
  EXPECT_EQ(plan, MakePlan());
}

TEST(ReplayLogFormatTest, HeaderOnlySegmentIsCleanEof) {
  const ReadLog log = ReadLogSegment(EncodeLogSegment(MakePlan(), {}));
  ASSERT_TRUE(log.plan_ok);
  EXPECT_TRUE(log.clean);
  EXPECT_TRUE(log.batches.empty());
}

TEST(ReplayLogFormatTest, BadMagicRejected) {
  SegmentFixture fixture = MakeValidSegment();
  fixture.bytes[0] ^= 0xFF;
  EXPECT_FALSE(ReadLogSegment(fixture.bytes).plan_ok);
  const auto reader = snapshot::SectionReader::Open(fixture.bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST(ReplayLogFormatTest, FutureVersionRejected) {
  SegmentFixture fixture = MakeValidSegment();
  fixture.bytes[4] = snapshot::kFormatVersion + 1;  // [magic u32][version]
  EXPECT_FALSE(ReadLogSegment(fixture.bytes).plan_ok);
  const auto reader = snapshot::SectionReader::Open(fixture.bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

// Segments of the retired FRLG layout — version 1 carried the
// record-per-report frames, version 2 the grid-run frames — fail at their
// header even with a valid header seal, instead of replaying every batch
// as undecodable.
TEST(ReplayLogFormatTest, RecordPerReportVersionRejectedAtTheHeader) {
  constexpr uint32_t kRetiredMagic = 0x46524c47;                 // "FRLG"
  constexpr uint64_t kRetiredSalt = 0x726c6f67'6373756dULL;      // rlogcsum
  for (const uint8_t version : {1, 2}) {
    std::vector<uint8_t> bytes;
    wire::Writer w(&bytes);
    w.Put<uint32_t>(kRetiredMagic);
    w.Put<uint8_t>(version);
    const std::vector<uint8_t> plan = MakePlan();
    w.Put<uint32_t>(static_cast<uint32_t>(plan.size()));
    w.PutBytes(plan.data(), plan.size());
    wire::SealChecksum(&bytes, kRetiredSalt);
    EXPECT_FALSE(ReadLogSegment(bytes).plan_ok) << "version " << int{version};
  }
}

TEST(ReplayLogFormatTest, OversizedPlanLengthRejected) {
  SegmentFixture fixture = MakeValidSegment();
  // The kConfig section's u64 length sits after the header and its id.
  const uint64_t huge = 1ull << 40;
  std::memcpy(fixture.bytes.data() + snapshot::kHeaderBytes + 1, &huge,
              sizeof(huge));
  const test_support::ScopedAllocationCap cap(fixture.bytes.size());
  EXPECT_FALSE(ReadLogSegment(fixture.bytes).plan_ok);
}

TEST(ReplayLogFormatTest, UnknownRecordTypeRejected) {
  // A checksum-valid section of an id a log never holds stops the read:
  // the boundary before it is final, and nothing after it is read.
  const SegmentFixture fixture = MakeValidSegment();
  std::vector<uint8_t> bytes = EncodeLogSegment(MakePlan(), {});
  test_support::AppendBatch(&bytes, fixture.batches[0].key,
                            fixture.batches[0].frame);
  snapshot::AppendSection(&bytes, static_cast<SectionId>(99),
                          {fixture.batches[1].frame});
  test_support::AppendBatch(&bytes, fixture.batches[2].key,
                            fixture.batches[2].frame);
  for (const SectionId other : {SectionId::kDedup, SectionId::kConfig}) {
    std::vector<uint8_t> known = EncodeLogSegment(MakePlan(), {});
    snapshot::AppendSection(&known, other, {fixture.batches[0].frame});
    const ReadLog log = ReadLogSegment(known);
    EXPECT_FALSE(log.clean);
    EXPECT_TRUE(log.batches.empty());
  }
  const ReadLog log = ReadLogSegment(bytes);
  ASSERT_TRUE(log.plan_ok);
  EXPECT_FALSE(log.clean);
  ExpectPrefix(log.batches, fixture.batches, 1);
}

TEST(ReplayLogFormatTest, TinyAndEmptyInputsRejected) {
  EXPECT_FALSE(ReadLogSegment({}).plan_ok);
  EXPECT_FALSE(ReadLogSegment({0x50}).plan_ok);
  EXPECT_FALSE(ReadLogSegment(std::vector<uint8_t>(sizeof(uint64_t), 0))
                   .plan_ok);
  // A header with no plan sections carries nothing replayable.
  std::vector<uint8_t> header;
  snapshot::AppendHeader(&header, snapshot::kLogSegment);
  EXPECT_FALSE(ReadLogSegment(header).plan_ok);
}

// The format's central contract: the log is appended whole sections at a
// time, so EVERY prefix of a valid segment either reads cleanly to a
// section boundary or stops with damage there — and the batches it does
// return are bit-exact originals.
TEST(ReplayLogFormatTest, EveryTruncationLengthStopsAtARecordBoundary) {
  const SegmentFixture fixture = MakeValidSegment();
  const test_support::ScopedAllocationCap cap(fixture.bytes.size());
  const size_t plan_end = fixture.boundaries.front();
  for (size_t keep = 0; keep < fixture.bytes.size(); ++keep) {
    const ReadLog log = ReadLogSegment(std::vector<uint8_t>(
        fixture.bytes.begin(), fixture.bytes.begin() + keep));
    if (keep < plan_end) {
      EXPECT_FALSE(log.plan_ok) << "plan verified at length " << keep;
      continue;
    }
    ASSERT_TRUE(log.plan_ok) << "length " << keep;
    size_t whole = 0;
    bool at_boundary = false;
    for (const size_t boundary : fixture.boundaries) {
      if (boundary <= keep && boundary > plan_end) ++whole;
      if (boundary == keep) at_boundary = true;
    }
    EXPECT_EQ(log.clean, at_boundary) << "at truncation length " << keep;
    ExpectPrefix(log.batches, fixture.batches, whole);
  }
}

TEST(ReplayLogFormatTest, BitFlipSweepNeverYieldsACorruptRecord) {
  const SegmentFixture fixture = MakeValidSegment();
  const test_support::ScopedAllocationCap cap(fixture.bytes.size());
  const size_t plan_end = fixture.boundaries.front();
  for (size_t byte = 0; byte < fixture.bytes.size(); ++byte) {
    // The batch section the flip lands in; everything before it is intact.
    size_t damaged_batch = 0;
    while (damaged_batch + 1 < fixture.boundaries.size() &&
           fixture.boundaries[damaged_batch + 1] <= byte) {
      ++damaged_batch;
    }
    for (uint8_t bit = 0; bit < 8; bit += 3) {
      std::vector<uint8_t> flipped = fixture.bytes;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      const ReadLog log = ReadLogSegment(flipped);
      if (byte < plan_end) {
        // Any header or plan damage: magic, version, state byte, a plan
        // section's id, length or checksum.
        EXPECT_FALSE(log.plan_ok) << "plan verified with bit " << int{bit}
                                  << " of byte " << byte << " flipped";
        continue;
      }
      ASSERT_TRUE(log.plan_ok);
      // The damaged batch never reads; everything before it is exact.
      EXPECT_FALSE(log.clean) << "full clean read with bit " << int{bit}
                              << " of byte " << byte << " flipped";
      ExpectPrefix(log.batches, fixture.batches, damaged_batch);
    }
  }
}

TEST(ReplayLogFormatTest, ResealedRecordReadsCleanlyByDesign) {
  // Flip a frame byte AND recompute the section checksum: the format
  // layer cannot tell — this is the documented layering, because a frame
  // carries its own wire checksum trailer that replay verifies next
  // (replay_test.cc pins that gate).
  std::vector<uint8_t> bytes = EncodeLogSegment(MakePlan(), {});
  const size_t start = bytes.size();
  test_support::AppendBatch(&bytes, 7, std::vector<uint8_t>{1, 2, 3, 4});
  const size_t payload = start + 1 + sizeof(uint64_t);  // id, len
  const size_t len = sizeof(uint64_t) + 4;               // key, frame
  bytes[payload + sizeof(uint64_t)] ^= 0x01;             // first frame byte
  const uint64_t reseal =
      XxHash64Bytes(bytes.data() + payload, len, snapshot::kChecksumSalt);
  std::memcpy(bytes.data() + payload + len, &reseal, sizeof(reseal));

  const ReadLog log = ReadLogSegment(bytes);
  EXPECT_TRUE(log.clean);
  ASSERT_EQ(log.batches.size(), 1u);
  EXPECT_EQ(log.batches[0].frame, (std::vector<uint8_t>{0, 2, 3, 4}));
}

TEST(ReplayLogFormatTest, SeededRoundTripFuzz) {
  // Randomized segments (batch counts, frame sizes, keys) must round
  // trip exactly; a deterministic seed keeps failures reproducible.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next_rand = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<LoggedBatch> batches(next_rand() % 8);
    for (LoggedBatch& batch : batches) {
      batch.key = next_rand();
      batch.frame.resize(next_rand() % 300);
      for (uint8_t& b : batch.frame) b = static_cast<uint8_t>(next_rand());
    }
    const ReadLog log = ReadLogSegment(EncodeLogSegment(MakePlan(), batches));
    ASSERT_TRUE(log.plan_ok) << "trial " << trial;
    EXPECT_TRUE(log.clean) << "trial " << trial;
    ExpectPrefix(log.batches, batches, batches.size());
  }
}

// A log segment is no snapshot, and a snapshot is no log segment: the
// state byte and the file seal keep the two apart in both directions.
TEST(ReplayLogFormatTest, LogSegmentsAndSnapshotsNeverCrossDecode) {
  const SegmentFixture fixture = MakeValidSegment();
  EXPECT_FALSE(snapshot::PipelineCodec::Decode(fixture.bytes).ok());
  EXPECT_FALSE(snapshot::SnapshotReader::Open(fixture.bytes).ok());

  core::FelipConfig config;
  config.seed = 5;
  const core::FelipPipeline pipeline(Schema(), 1000, config);
  const std::vector<uint8_t> snapshot_bytes =
      snapshot::PipelineCodec::Encode(pipeline, {});
  EXPECT_FALSE(ReadLogSegment(snapshot_bytes).plan_ok);
}

}  // namespace
}  // namespace felip::replaylog
