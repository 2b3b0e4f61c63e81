// Replay-log segment format: the truncation contract (every prefix of a
// valid segment reads cleanly to a record boundary or stops with
// kDataLoss — never a torn record), a bit-flip sweep over the whole
// file, and the reseal subtlety: a record whose seal was recomputed
// after payload damage reads "cleanly" here by design, because the wire
// checksum trailer inside the payload is the next gate (replay counts it
// undecodable; see replay_test.cc).

#include "felip/replaylog/format.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/hash.h"
#include "support/alloc_cap.h"

namespace felip::replaylog {
namespace {

std::vector<uint8_t> Payload(std::initializer_list<uint8_t> bytes) {
  return std::vector<uint8_t>(bytes);
}

std::vector<uint8_t> MakePlan() { return Payload({0xAA, 0xBB, 0xCC}); }

struct SegmentFixture {
  std::vector<uint8_t> bytes;
  std::vector<LogRecord> records;
  // Byte offsets that are record boundaries: the first record's start and
  // the end of every record (the last one == bytes.size()).
  std::vector<size_t> boundaries;
};

SegmentFixture MakeValidSegment() {
  SegmentFixture fixture;
  fixture.bytes = EncodeSegmentHeader(MakePlan());
  fixture.boundaries.push_back(fixture.bytes.size());
  const std::vector<std::vector<uint8_t>> payloads = {
      Payload({1, 2, 3, 4, 5}),
      Payload({}),
      Payload({9, 8, 7}),
  };
  uint64_t key = 0x1000;
  for (const std::vector<uint8_t>& payload : payloads) {
    AppendRecord(&fixture.bytes, RecordType::kBatch, key, payload);
    fixture.records.push_back({RecordType::kBatch, key, payload});
    fixture.boundaries.push_back(fixture.bytes.size());
    ++key;
  }
  return fixture;
}

// Reads every record until clean EOF or damage. Returns the records read;
// *clean is whether iteration ended at a boundary (Next() == false)
// rather than with kDataLoss.
std::vector<LogRecord> ReadAll(SegmentParser* parser, bool* clean) {
  std::vector<LogRecord> records;
  LogRecord record;
  while (true) {
    const StatusOr<bool> next = parser->Next(&record);
    if (!next.ok()) {
      *clean = false;
      return records;
    }
    if (!*next) {
      *clean = true;
      return records;
    }
    records.push_back(record);
  }
}

void ExpectRecordsEqual(const std::vector<LogRecord>& actual,
                        const std::vector<LogRecord>& expected,
                        size_t expected_count) {
  ASSERT_EQ(actual.size(), expected_count);
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].type, expected[i].type) << "record " << i;
    EXPECT_EQ(actual[i].key, expected[i].key) << "record " << i;
    EXPECT_EQ(actual[i].payload, expected[i].payload) << "record " << i;
  }
}

TEST(ReplayLogFormatTest, RoundTripsRecordsInOrder) {
  const SegmentFixture fixture = MakeValidSegment();
  StatusOr<SegmentParser> parser = SegmentParser::Open(fixture.bytes);
  ASSERT_TRUE(parser.ok()) << parser.status().ToString();
  EXPECT_EQ(parser->plan(), MakePlan());

  bool clean = false;
  const std::vector<LogRecord> records = ReadAll(&*parser, &clean);
  EXPECT_TRUE(clean);
  ExpectRecordsEqual(records, fixture.records, fixture.records.size());
  EXPECT_EQ(parser->position(), fixture.bytes.size());

  // Clean EOF is sticky.
  LogRecord record;
  const StatusOr<bool> again = parser->Next(&record);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
}

TEST(ReplayLogFormatTest, HeaderOnlySegmentIsCleanEof) {
  const std::vector<uint8_t> bytes = EncodeSegmentHeader(MakePlan());
  StatusOr<SegmentParser> parser = SegmentParser::Open(bytes);
  ASSERT_TRUE(parser.ok()) << parser.status().ToString();
  LogRecord record;
  const StatusOr<bool> next = parser->Next(&record);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(*next);
}

TEST(ReplayLogFormatTest, EmptyPlanRoundTrips) {
  const std::vector<uint8_t> bytes = EncodeSegmentHeader({});
  const StatusOr<SegmentParser> parser = SegmentParser::Open(bytes);
  ASSERT_TRUE(parser.ok()) << parser.status().ToString();
  EXPECT_TRUE(parser->plan().empty());
}

TEST(ReplayLogFormatTest, BadMagicRejected) {
  SegmentFixture fixture = MakeValidSegment();
  fixture.bytes[0] ^= 0xFF;
  const auto parser = SegmentParser::Open(fixture.bytes);
  ASSERT_FALSE(parser.ok());
  EXPECT_EQ(parser.status().code(), StatusCode::kDataLoss);
}

TEST(ReplayLogFormatTest, FutureVersionRejected) {
  SegmentFixture fixture = MakeValidSegment();
  fixture.bytes[4] = kFormatVersion + 1;  // [magic u32][version u8]
  const auto parser = SegmentParser::Open(fixture.bytes);
  ASSERT_FALSE(parser.ok());
  EXPECT_EQ(parser.status().code(), StatusCode::kDataLoss);
}

TEST(ReplayLogFormatTest, OversizedPlanLengthRejected) {
  SegmentFixture fixture = MakeValidSegment();
  const uint32_t huge = kMaxPlanBytes + 1;
  std::memcpy(fixture.bytes.data() + 5, &huge, sizeof(huge));
  const auto parser = SegmentParser::Open(fixture.bytes);
  ASSERT_FALSE(parser.ok());
  EXPECT_EQ(parser.status().code(), StatusCode::kDataLoss);
}

TEST(ReplayLogFormatTest, UnknownRecordTypeRejected) {
  // A record of an unknown type stops iteration: this version cannot know
  // its framing is what it claims, so the boundary before it is final.
  std::vector<uint8_t> bytes = EncodeSegmentHeader(MakePlan());
  const size_t record_start = bytes.size();
  AppendRecord(&bytes, RecordType::kBatch, 7, Payload({1}));
  bytes[record_start] = 99;  // type byte; seal now also mismatches
  StatusOr<SegmentParser> parser = SegmentParser::Open(bytes);
  ASSERT_TRUE(parser.ok());
  LogRecord record;
  const StatusOr<bool> next = parser->Next(&record);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kDataLoss);
}

TEST(ReplayLogFormatTest, TinyAndEmptyInputsRejected) {
  EXPECT_FALSE(SegmentParser::Open({}).ok());
  EXPECT_FALSE(SegmentParser::Open({0x47}).ok());
  EXPECT_FALSE(
      SegmentParser::Open(std::vector<uint8_t>(sizeof(uint64_t), 0)).ok());
}

// The format's central contract: the log is appended whole records at a
// time, so EVERY prefix of a valid segment either reads cleanly to a
// record boundary or returns kDataLoss there — and the records it does
// return are bit-exact originals.
TEST(ReplayLogFormatTest, EveryTruncationLengthStopsAtARecordBoundary) {
  const SegmentFixture fixture = MakeValidSegment();
  const test_support::ScopedAllocationCap cap(fixture.bytes.size());
  const size_t header_end = fixture.boundaries.front();
  for (size_t keep = 0; keep < fixture.bytes.size(); ++keep) {
    const std::vector<uint8_t> truncated(fixture.bytes.begin(),
                                         fixture.bytes.begin() + keep);
    StatusOr<SegmentParser> parser = SegmentParser::Open(truncated);
    if (keep < header_end) {
      EXPECT_FALSE(parser.ok()) << "header verified at length " << keep;
      continue;
    }
    ASSERT_TRUE(parser.ok()) << "length " << keep << ": "
                             << parser.status().ToString();
    // Whole records below the cut still read; the cut itself is clean
    // only at an exact boundary.
    size_t whole = 0;
    bool at_boundary = false;
    for (const size_t boundary : fixture.boundaries) {
      if (boundary <= keep && boundary > header_end) ++whole;
      if (boundary == keep) at_boundary = true;
    }
    bool clean = false;
    const std::vector<LogRecord> records = ReadAll(&*parser, &clean);
    EXPECT_EQ(clean, at_boundary) << "at truncation length " << keep;
    ExpectRecordsEqual(records, fixture.records, whole);
  }
}

TEST(ReplayLogFormatTest, BitFlipSweepNeverYieldsACorruptRecord) {
  const SegmentFixture fixture = MakeValidSegment();
  const test_support::ScopedAllocationCap cap(fixture.bytes.size());
  const size_t header_end = fixture.boundaries.front();
  for (size_t byte = 0; byte < fixture.bytes.size(); ++byte) {
    for (uint8_t bit = 0; bit < 8; bit += 3) {
      std::vector<uint8_t> flipped = fixture.bytes;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      StatusOr<SegmentParser> parser = SegmentParser::Open(flipped);
      if (byte < header_end) {
        // Any header damage fails Open: magic, version, plan bounds, or
        // the header seal.
        EXPECT_FALSE(parser.ok())
            << "header verified with bit " << int(bit) << " of byte "
            << byte << " flipped";
        continue;
      }
      ASSERT_TRUE(parser.ok());
      bool clean = false;
      const std::vector<LogRecord> records = ReadAll(&*parser, &clean);
      // The damaged record never reads; everything before it is exact.
      EXPECT_FALSE(clean)
          << "full clean read with bit " << int(bit) << " of byte " << byte
          << " flipped";
      ASSERT_LT(records.size(), fixture.records.size());
      for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].key, fixture.records[i].key);
        EXPECT_EQ(records[i].payload, fixture.records[i].payload);
      }
    }
  }
}

TEST(ReplayLogFormatTest, ResealedRecordReadsCleanlyByDesign) {
  // Flip a payload byte AND recompute the record seal: the format layer
  // cannot tell — this is the documented layering, because a kBatch
  // payload carries its own wire checksum trailer that replay verifies
  // next (replay_test.cc pins that gate).
  std::vector<uint8_t> bytes = EncodeSegmentHeader(MakePlan());
  const size_t start = bytes.size();
  AppendRecord(&bytes, RecordType::kBatch, 7, Payload({1, 2, 3, 4}));
  const size_t prefix = 1 + 4 + 8;  // type, payload_len, key
  bytes[start + prefix] ^= 0x01;    // first payload byte
  const size_t body = prefix + 4;
  const uint64_t reseal =
      XxHash64Bytes(bytes.data() + start, body, kChecksumSalt);
  std::memcpy(bytes.data() + start + body, &reseal, sizeof(reseal));

  StatusOr<SegmentParser> parser = SegmentParser::Open(bytes);
  ASSERT_TRUE(parser.ok());
  LogRecord record;
  const StatusOr<bool> next = parser->Next(&record);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(*next);
  EXPECT_EQ(record.payload, Payload({0, 2, 3, 4}));
}

TEST(ReplayLogFormatTest, SeededRoundTripFuzz) {
  // Randomized segments (record counts, payload sizes, keys) must round
  // trip exactly; a deterministic seed keeps failures reproducible.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next_rand = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint8_t> plan(next_rand() % 64);
    for (uint8_t& b : plan) b = static_cast<uint8_t>(next_rand());
    std::vector<uint8_t> bytes = EncodeSegmentHeader(plan);
    std::vector<LogRecord> expected;
    const size_t count = next_rand() % 8;
    for (size_t i = 0; i < count; ++i) {
      LogRecord record;
      record.key = next_rand();
      record.payload.resize(next_rand() % 300);
      for (uint8_t& b : record.payload) {
        b = static_cast<uint8_t>(next_rand());
      }
      AppendRecord(&bytes, RecordType::kBatch, record.key, record.payload);
      expected.push_back(std::move(record));
    }
    StatusOr<SegmentParser> parser = SegmentParser::Open(bytes);
    ASSERT_TRUE(parser.ok()) << "trial " << trial;
    EXPECT_EQ(parser->plan(), plan);
    bool clean = false;
    const std::vector<LogRecord> records = ReadAll(&*parser, &clean);
    EXPECT_TRUE(clean) << "trial " << trial;
    ExpectRecordsEqual(records, expected, expected.size());
  }
}

}  // namespace
}  // namespace felip::replaylog
