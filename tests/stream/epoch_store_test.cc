// EpochStore and the FESG segment format: checksum-gated decoding (every
// truncation and bit flip must fail cleanly, never half-decode), atomic
// commits with keep-last-N compaction, sequence numbers that survive
// restarts, and the recovery walk that skips damaged files instead of
// failing the whole window.

#include "felip/stream/epoch_store.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/wire/framing.h"
#include "support/alloc_cap.h"

namespace felip::stream {
namespace {

namespace fs = std::filesystem;

// The segment format constants, replicated here on purpose: changing the
// magic, version, or checksum salt in the codec must fail these tests —
// any such change invalidates every segment already on disk.
constexpr uint32_t kMagic = 0x46455347;                       // "FESG"
constexpr uint8_t kVersion = 1;
constexpr uint64_t kSalt = 0x65706f63'6373756dULL;            // "epoccsum"

EpochSegment Segment(uint64_t seq, uint64_t reports = 1000,
                     double epsilon = 2.0, uint8_t fill = 0xAB,
                     size_t snapshot_len = 96) {
  EpochSegment segment;
  segment.seq = seq;
  segment.reports = reports;
  segment.epsilon = epsilon;
  segment.snapshot.assign(snapshot_len, fill);
  return segment;
}

// Hand-assembles a sealed segment so field-level adversaries (bad magic,
// future version, zero sequence, poisoned epsilon) carry a VALID checksum
// — the decoder must reject them on semantics, not on the seal.
std::vector<uint8_t> Craft(uint32_t magic, uint8_t version, uint64_t seq,
                           uint64_t reports, double epsilon,
                           const std::vector<uint8_t>& snapshot) {
  std::vector<uint8_t> bytes;
  wire::Writer w(&bytes);
  w.Put<uint32_t>(magic);
  w.Put<uint8_t>(version);
  w.Put<uint64_t>(seq);
  w.Put<uint64_t>(reports);
  w.Put<double>(epsilon);
  w.Put<uint64_t>(static_cast<uint64_t>(snapshot.size()));
  w.PutBytes(snapshot.data(), snapshot.size());
  wire::SealChecksum(&bytes, kSalt);
  return bytes;
}

class EpochStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("felip_epoch_store_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  fs::path dir_;
};

TEST(EpochSegmentCodecTest, RoundTripsAllFields) {
  const EpochSegment segment = Segment(7, 12345, 0.75, 0x5C, 513);
  const StatusOr<EpochSegment> decoded =
      DecodeEpochSegment(EncodeEpochSegment(segment));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->seq, 7u);
  EXPECT_EQ(decoded->reports, 12345u);
  EXPECT_EQ(decoded->epsilon, 0.75);
  EXPECT_EQ(decoded->snapshot, segment.snapshot);
}

TEST(EpochSegmentCodecTest, RoundTripsEmptySnapshot) {
  const StatusOr<EpochSegment> decoded =
      DecodeEpochSegment(EncodeEpochSegment(Segment(1, 1, 1.0, 0, 0)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->snapshot.empty());
}

TEST(EpochSegmentCodecTest, EveryTruncationIsDataLoss) {
  const std::vector<uint8_t> bytes = EncodeEpochSegment(Segment(3));
  const test_support::ScopedAllocationCap cap(bytes.size());
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    const StatusOr<EpochSegment> decoded = DecodeEpochSegment(cut);
    ASSERT_FALSE(decoded.ok()) << "length " << len;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << "length " << len;
  }
}

TEST(EpochSegmentCodecTest, EveryBitFlipIsRejected) {
  const std::vector<uint8_t> bytes = EncodeEpochSegment(Segment(3));
  const test_support::ScopedAllocationCap cap(bytes.size());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> flipped = bytes;
    flipped[i] ^= 0x01;
    EXPECT_FALSE(DecodeEpochSegment(flipped).ok()) << "byte " << i;
  }
}

TEST(EpochSegmentCodecTest, RejectsWrongMagicWithValidChecksum) {
  const StatusOr<EpochSegment> decoded = DecodeEpochSegment(
      Craft(0x46454C50 /* wire magic */, kVersion, 1, 10, 1.0, {1, 2, 3}));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(EpochSegmentCodecTest, RejectsFutureVersion) {
  const StatusOr<EpochSegment> decoded =
      DecodeEpochSegment(Craft(kMagic, kVersion + 1, 1, 10, 1.0, {1, 2, 3}));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(EpochSegmentCodecTest, RejectsZeroSequence) {
  const StatusOr<EpochSegment> decoded =
      DecodeEpochSegment(Craft(kMagic, kVersion, 0, 10, 1.0, {1, 2, 3}));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(EpochSegmentCodecTest, RejectsPoisonedEpsilon) {
  for (const double epsilon :
       {0.0, -1.0, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    const StatusOr<EpochSegment> decoded =
        DecodeEpochSegment(Craft(kMagic, kVersion, 1, 10, epsilon, {1}));
    ASSERT_FALSE(decoded.ok()) << "epsilon " << epsilon;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EpochSegmentCodecTest, RejectsSnapshotLengthMismatch) {
  // A length field that disagrees with the actual byte span is a framing
  // error even under a valid seal (the seal covers the lying length too).
  std::vector<uint8_t> bytes;
  wire::Writer w(&bytes);
  w.Put<uint32_t>(kMagic);
  w.Put<uint8_t>(kVersion);
  w.Put<uint64_t>(1);
  w.Put<uint64_t>(10);
  w.Put<double>(1.0);
  w.Put<uint64_t>(5);  // claims 5 bytes...
  const uint8_t snapshot[3] = {1, 2, 3};
  w.PutBytes(snapshot, sizeof(snapshot));  // ...carries 3
  wire::SealChecksum(&bytes, kSalt);
  const StatusOr<EpochSegment> decoded = DecodeEpochSegment(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(EpochSegmentCodecTest, SegmentNeverVerifiesAsSnapshotOrWireFrame) {
  // Distinct salts: epoch bytes must not pass the wire frame's seal.
  const std::vector<uint8_t> bytes = EncodeEpochSegment(Segment(1));
  EXPECT_FALSE(wire::CheckSealedChecksum(bytes, 0x77697265'6373756dULL));
}

TEST_F(EpochStoreTest, WriteCommitsAndLoadsBack) {
  EpochStore store(dir(), 4);
  const StatusOr<std::string> path = store.Write(Segment(1, 500, 1.5));
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_NE(path->find("epoch-1.fesg"), std::string::npos);
  // No tmp file survives a successful commit.
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir())) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".fesg") << entry.path();
  }
  EXPECT_EQ(files, 1u);
  const LoadedEpochs loaded = store.LoadAll();
  EXPECT_EQ(loaded.files_skipped, 0u);
  ASSERT_EQ(loaded.segments.size(), 1u);
  EXPECT_EQ(loaded.segments[0].seq, 1u);
  EXPECT_EQ(loaded.segments[0].reports, 500u);
  EXPECT_EQ(loaded.segments[0].epsilon, 1.5);
}

TEST_F(EpochStoreTest, InspectingAMissingDirectoryCreatesNothing) {
  ASSERT_FALSE(fs::exists(dir()));
  EpochStore store(dir(), 4);
  const LoadedEpochs loaded = store.LoadAll();
  EXPECT_TRUE(loaded.segments.empty());
  EXPECT_EQ(loaded.files_skipped, 0u);
  EXPECT_EQ(store.next_seq(), 1u);
  EXPECT_FALSE(fs::exists(dir()));
  // Only the first seal creates it.
  ASSERT_TRUE(store.Write(Segment(1)).ok());
  EXPECT_EQ(store.LoadAll().segments.size(), 1u);
}

TEST_F(EpochStoreTest, LoadAllReturnsOldestFirst) {
  EpochStore store(dir(), 8);
  // Write out of arrival order is impossible (sequence check), so order
  // comes from the directory walk + sort.
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(store.Write(Segment(seq, seq * 100)).ok());
  }
  const LoadedEpochs loaded = store.LoadAll();
  ASSERT_EQ(loaded.segments.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(loaded.segments[i].seq, i + 1);
    EXPECT_EQ(loaded.segments[i].reports, (i + 1) * 100);
  }
}

TEST_F(EpochStoreTest, CompactionKeepsOnlyLastN) {
  EpochStore store(dir(), 2);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(store.Write(Segment(seq)).ok());
  }
  const LoadedEpochs loaded = store.LoadAll();
  ASSERT_EQ(loaded.segments.size(), 2u);
  EXPECT_EQ(loaded.segments[0].seq, 4u);
  EXPECT_EQ(loaded.segments[1].seq, 5u);
}

TEST_F(EpochStoreTest, SequenceResumesAcrossRestart) {
  {
    EpochStore store(dir(), 8);
    EXPECT_EQ(store.next_seq(), 1u);
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(store.Write(Segment(seq)).ok());
    }
  }
  EpochStore reopened(dir(), 8);
  EXPECT_EQ(reopened.next_seq(), 4u);
  // A committed epoch is never clobbered: the next seal takes sequence 4.
  ASSERT_TRUE(reopened.Write(Segment(4)).ok());
  EXPECT_EQ(reopened.LoadAll().segments.size(), 4u);
}

TEST_F(EpochStoreTest, GapsAfterFailedCommitsAreAllowed) {
  EpochStore store(dir(), 8);
  ASSERT_TRUE(store.Write(Segment(1)).ok());
  // Epoch 2's commit failed elsewhere; epoch 3 seals over the gap.
  ASSERT_TRUE(store.Write(Segment(3)).ok());
  EXPECT_EQ(store.next_seq(), 4u);
  const LoadedEpochs loaded = store.LoadAll();
  ASSERT_EQ(loaded.segments.size(), 2u);
  EXPECT_EQ(loaded.segments[0].seq, 1u);
  EXPECT_EQ(loaded.segments[1].seq, 3u);
}

TEST_F(EpochStoreTest, LoadAllSkipsDamagedSegments) {
  EpochStore store(dir(), 8);
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(store.Write(Segment(seq, seq)).ok());
  }
  // Torch the middle segment in place: one bad epoch costs that epoch.
  {
    std::ofstream out(fs::path(dir()) / "epoch-2.fesg",
                      std::ios::binary | std::ios::trunc);
    out << "not a segment";
  }
  const LoadedEpochs loaded = store.LoadAll();
  EXPECT_EQ(loaded.files_skipped, 1u);
  ASSERT_EQ(loaded.segments.size(), 2u);
  EXPECT_EQ(loaded.segments[0].seq, 1u);
  EXPECT_EQ(loaded.segments[1].seq, 3u);
}

TEST_F(EpochStoreTest, LoadAllRejectsRenamedSegments) {
  EpochStore store(dir(), 8);
  ASSERT_TRUE(store.Write(Segment(1)).ok());
  // The file name is untrusted; the sealed header is the identity. A
  // segment renamed to another sequence must not impersonate it.
  fs::rename(fs::path(dir()) / "epoch-1.fesg",
             fs::path(dir()) / "epoch-9.fesg");
  const LoadedEpochs loaded = store.LoadAll();
  EXPECT_EQ(loaded.segments.size(), 0u);
  EXPECT_EQ(loaded.files_skipped, 1u);
}

TEST_F(EpochStoreTest, IgnoresForeignFilesInTheDirectory) {
  EpochStore store(dir(), 8);
  ASSERT_TRUE(store.Write(Segment(1)).ok());
  {
    std::ofstream out(fs::path(dir()) / "notes.txt");
    out << "operator scratch";
  }
  {
    std::ofstream out(fs::path(dir()) / "epoch-x.fesg");
    out << "not a sequence";
  }
  const LoadedEpochs loaded = store.LoadAll();
  EXPECT_EQ(loaded.segments.size(), 1u);
  EXPECT_EQ(loaded.files_skipped, 0u);  // foreign names are not segments
  EpochStore reopened(dir(), 8);
  EXPECT_EQ(reopened.next_seq(), 2u);
}

TEST_F(EpochStoreTest, LengthFieldRunningIntoTheTrailerIsSkipped) {
  // 44 bytes under a valid seal: a 29-byte header for seq 31, then only
  // seven bytes of the 8-byte snapshot_len, all 0xFF. The trailer's low
  // byte is 0xFF too, so a reader that still sees the trailer reads
  // snapshot_len = 2^64 - 1 and must not size a buffer from it.
  std::vector<uint8_t> bytes;
  wire::Writer w(&bytes);
  w.Put<uint32_t>(kMagic);
  w.Put<uint8_t>(kVersion);
  w.Put<uint64_t>(31);
  w.Put<uint64_t>(10);
  w.Put<double>(1.0);
  for (int i = 0; i < 7; ++i) w.Put<uint8_t>(0xFF);
  wire::SealChecksum(&bytes, kSalt);
  ASSERT_EQ(bytes.size(), 44u);
  ASSERT_EQ(bytes[36], 0xFF);  // the trailer's low byte
  {
    const test_support::ScopedAllocationCap cap(bytes.size());
    const StatusOr<EpochSegment> decoded = DecodeEpochSegment(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
  fs::create_directories(dir());
  {
    std::ofstream out(fs::path(dir()) / "epoch-31.fesg", std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const LoadedEpochs loaded = EpochStore(dir(), 8).LoadAll();
  EXPECT_EQ(loaded.files_skipped, 1u);
  EXPECT_TRUE(loaded.segments.empty());
}

using EpochStoreDeathTest = EpochStoreTest;

TEST_F(EpochStoreDeathTest, RejectsSequenceReuse) {
  EpochStore store(dir(), 8);
  ASSERT_TRUE(store.Write(Segment(2)).ok());
  EXPECT_DEATH(store.Write(Segment(2)), "increasing sequence");
  EXPECT_DEATH(store.Write(Segment(1)), "increasing sequence");
}

}  // namespace
}  // namespace felip::stream
