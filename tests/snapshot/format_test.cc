// Snapshot container format: writer/reader round trips, unknown-section
// tolerance, and an adversarial corpus — every truncation length and a
// sweep of bit flips over a valid file must come back as a non-ok Status
// (never a crash, never a silently-wrong parse), including frames whose
// *file* seal was recomputed after the damage so per-section checksums do
// the catching.

#include "felip/snapshot/format.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/hash.h"
#include "felip/wire/framing.h"
#include "support/alloc_cap.h"

namespace felip::snapshot {
namespace {

std::vector<uint8_t> Payload(std::initializer_list<uint8_t> bytes) {
  return std::vector<uint8_t>(bytes);
}

std::vector<uint8_t> MakeValidFile() {
  SnapshotWriter writer(/*state_byte=*/1);
  writer.AppendSection(SectionId::kConfig, Payload({1, 2, 3, 4}));
  writer.AppendSection(SectionId::kSchema, Payload({}));
  writer.AppendSection(SectionId::kState, Payload({9, 9, 9}));
  return std::move(writer).Finish();
}

// Recomputes the file seal after a mutation, so the file-level gate
// passes and the inner validation has to catch the damage.
void ResealFile(std::vector<uint8_t>* bytes) {
  ASSERT_GE(bytes->size(), sizeof(uint64_t));
  const uint64_t seal = XxHash64Bytes(
      bytes->data(), bytes->size() - sizeof(uint64_t), kChecksumSalt);
  std::memcpy(bytes->data() + bytes->size() - sizeof(uint64_t), &seal,
              sizeof(uint64_t));
}

TEST(SnapshotFormatTest, RoundTripsSectionsInOrder) {
  const std::vector<uint8_t> bytes = MakeValidFile();
  const StatusOr<SnapshotReader> reader = SnapshotReader::Open(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->state_byte(), 1);
  ASSERT_EQ(reader->sections().size(), 3u);
  EXPECT_EQ(reader->sections()[0].id, SectionId::kConfig);
  EXPECT_EQ(reader->sections()[0].payload, Payload({1, 2, 3, 4}));
  EXPECT_EQ(reader->sections()[1].id, SectionId::kSchema);
  EXPECT_TRUE(reader->sections()[1].payload.empty());
  EXPECT_EQ(reader->sections()[2].id, SectionId::kState);

  EXPECT_NE(reader->FindSection(SectionId::kConfig), nullptr);
  EXPECT_EQ(reader->FindSection(SectionId::kDedup), nullptr);
}

TEST(SnapshotFormatTest, EmptyFileRoundTrips) {
  SnapshotWriter writer(/*state_byte=*/0);
  const std::vector<uint8_t> bytes = std::move(writer).Finish();
  const StatusOr<SnapshotReader> reader = SnapshotReader::Open(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader->sections().empty());
}

TEST(SnapshotFormatTest, UnknownSectionIdIsSkippedButVerified) {
  // Forward compatibility within one format version: an id this reader
  // does not know still parses (and its checksum is still enforced).
  SnapshotWriter writer(/*state_byte=*/2);
  writer.AppendSection(SectionId::kConfig, Payload({1}));
  writer.AppendSection(static_cast<SectionId>(200), Payload({5, 6, 7}));
  writer.AppendSection(SectionId::kState, Payload({2}));
  const std::vector<uint8_t> bytes = std::move(writer).Finish();

  const StatusOr<SnapshotReader> reader = SnapshotReader::Open(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->sections().size(), 3u);
  EXPECT_EQ(reader->sections()[1].payload, Payload({5, 6, 7}));
  EXPECT_NE(reader->FindSection(SectionId::kState), nullptr);
}

TEST(SnapshotFormatTest, BadMagicRejected) {
  std::vector<uint8_t> bytes = MakeValidFile();
  bytes[0] ^= 0xFF;
  ResealFile(&bytes);
  const auto reader = SnapshotReader::Open(bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotFormatTest, FutureFormatVersionRejected) {
  std::vector<uint8_t> bytes = MakeValidFile();
  bytes[4] = kFormatVersion + 1;  // [magic u32][version u8]
  ResealFile(&bytes);
  const auto reader = SnapshotReader::Open(bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotFormatTest, SectionLengthBeyondFileRejected) {
  // Grow a section's u64 length to reach past the end of the file; the
  // bounds check must refuse before touching out-of-range bytes.
  SnapshotWriter writer(/*state_byte=*/1);
  writer.AppendSection(SectionId::kConfig, Payload({1, 2, 3, 4}));
  std::vector<uint8_t> bytes = std::move(writer).Finish();
  // Section length lives right after [header 6][id u8].
  const size_t len_offset = 6 + 1;
  const uint64_t huge = 1ull << 32;
  std::memcpy(bytes.data() + len_offset, &huge, sizeof(huge));
  ResealFile(&bytes);
  const auto reader = SnapshotReader::Open(bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotFormatTest, SectionPayloadCorruptionCaughtBySectionChecksum) {
  std::vector<uint8_t> bytes = MakeValidFile();
  // Flip one payload byte of the first section and reseal the file:
  // only the per-section checksum can catch it now.
  const size_t payload_offset = 6 + 1 + 8;  // header, id, len
  bytes[payload_offset] ^= 0x01;
  ResealFile(&bytes);
  const auto reader = SnapshotReader::Open(bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(reader.status().message(),
            "snapshot section checksum mismatch");
}

TEST(SnapshotFormatTest, EveryTruncationLengthRejected) {
  const std::vector<uint8_t> valid = MakeValidFile();
  const test_support::ScopedAllocationCap cap(valid.size());
  for (size_t keep = 0; keep < valid.size(); ++keep) {
    const std::vector<uint8_t> truncated(valid.begin(),
                                         valid.begin() + keep);
    const auto reader = SnapshotReader::Open(truncated);
    EXPECT_FALSE(reader.ok()) << "verified at truncation length " << keep;
  }
}

TEST(SnapshotFormatTest, BitFlipSweepRejected) {
  const std::vector<uint8_t> valid = MakeValidFile();
  const test_support::ScopedAllocationCap cap(valid.size());
  for (size_t byte = 0; byte < valid.size(); ++byte) {
    for (uint8_t bit = 0; bit < 8; bit += 3) {
      std::vector<uint8_t> flipped = valid;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      const auto reader = SnapshotReader::Open(flipped);
      EXPECT_FALSE(reader.ok())
          << "verified with bit " << int(bit) << " of byte " << byte
          << " flipped";
    }
  }
}

TEST(SnapshotFormatTest, AppendedGarbageRejected) {
  std::vector<uint8_t> bytes = MakeValidFile();
  bytes.push_back(0xAB);
  EXPECT_FALSE(SnapshotReader::Open(bytes).ok());
}

TEST(SnapshotFormatTest, TinyAndEmptyInputsRejected) {
  EXPECT_FALSE(SnapshotReader::Open({}).ok());
  EXPECT_FALSE(SnapshotReader::Open({0x46}).ok());
  // Exactly a seal's worth of zeros: fails the checksum, not a crash.
  EXPECT_FALSE(
      SnapshotReader::Open(std::vector<uint8_t>(sizeof(uint64_t), 0)).ok());
}

}  // namespace
}  // namespace felip::snapshot
