// EpochStore and the epoch segment: a sealed FSNP snapshot of the
// finalized pipeline plus a kEpoch section. Checksum-gated decoding
// (every truncation and bit flip must fail cleanly, never half-decode),
// atomic commits with keep-last-N compaction, sequence numbers that
// survive restarts, and the recovery walk that skips damaged, renamed and
// retired-format files instead of failing the whole window.

#include "felip/stream/epoch_store.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/data/synthetic.h"
#include "felip/snapshot/format.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/wire/framing.h"
#include "felip/wire/wire.h"
#include "support/alloc_cap.h"
#include "support/rounds.h"

namespace felip::stream {
namespace {

namespace fs = std::filesystem;

using snapshot::PipelineCodec;
using snapshot::RecoveredPipeline;
using snapshot::SectionId;

// A finalized pipeline that counted `reports` users through the report
// path, as SealEpoch hands it to the store.
std::unique_ptr<core::FelipPipeline> Sealed(uint64_t reports,
                                            double epsilon = 2.0) {
  const data::Dataset dataset =
      data::MakeUniform(reports, 2, 0, 8, 2, /*seed=*/reports);
  core::FelipConfig config;
  config.epsilon = epsilon;
  config.seed = 3;
  auto pipeline = std::make_unique<core::FelipPipeline>(
      dataset.attributes(), reports, config);
  const std::vector<test_support::Batch> batches =
      test_support::MakeBatches(dataset, *pipeline, 64);
  pipeline->BeginIngest();
  for (const test_support::Batch& batch : batches) {
    pipeline->IngestReports(batch);
  }
  pipeline->FinishIngest();
  pipeline->Finalize();
  EXPECT_EQ(pipeline->reports_ingested(), reports);
  return pipeline;
}

// Segment `seq` of a sealed pipeline, as EpochStore::Write encodes it.
std::vector<uint8_t> SegmentBytes(uint64_t seq,
                                  std::span<const uint64_t> keys = {}) {
  static const core::FelipPipeline* pipeline = Sealed(300).release();
  return PipelineCodec::Encode(*pipeline, keys, seq);
}

// Rewrites a segment section by section, passing each payload through
// `edit`, and reseals it: field-level adversaries then carry a VALID seal
// and must be rejected on semantics, not on the checksum.
std::vector<uint8_t> Rewrite(
    const std::vector<uint8_t>& bytes,
    const std::function<void(SectionId, std::vector<uint8_t>*)>& edit) {
  const StatusOr<snapshot::SnapshotReader> reader =
      snapshot::SnapshotReader::Open(bytes);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  snapshot::SnapshotWriter writer(reader->state_byte());
  for (const snapshot::Section& section : reader->sections()) {
    std::vector<uint8_t> payload = section.payload;
    edit(section.id, &payload);
    writer.AppendSection(section.id, payload);
  }
  return std::move(writer).Finish();
}

// Recomputes the file seal after a raw byte edit.
void Reseal(std::vector<uint8_t>* bytes) {
  bytes->resize(bytes->size() - sizeof(uint64_t));
  wire::SealChecksum(bytes, snapshot::kChecksumSalt);
}

void WriteFile(const fs::path& path, const std::vector<uint8_t>& bytes) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
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

  // Commits segment `seq` of a fresh `reports`-user pipeline.
  static StatusOr<std::string> Seal(EpochStore& store, uint64_t seq,
                                    uint64_t reports = 200) {
    return store.Write(seq, *Sealed(reports), {});
  }

  fs::path dir_;
};

TEST(EpochSegmentCodecTest, RoundTripsAllFields) {
  const std::unique_ptr<core::FelipPipeline> pipeline = Sealed(500, 0.75);
  const std::vector<uint64_t> keys = {11, 22, 33};
  const StatusOr<RecoveredPipeline> decoded =
      PipelineCodec::Decode(PipelineCodec::Encode(*pipeline, keys, 7));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // An epoch segment decodes as the sealed pipeline itself; its reports
  // and epsilon are the kState and kConfig values.
  EXPECT_EQ(decoded->epoch_seq, 7u);
  EXPECT_EQ(decoded->pipeline.state(), core::PipelineState::kQueryable);
  EXPECT_EQ(decoded->pipeline.reports_ingested(), 500u);
  EXPECT_EQ(decoded->pipeline.config().epsilon, 0.75);
  EXPECT_EQ(decoded->dedup_keys, keys);
  EXPECT_EQ(core::GridFrequencyDigest(decoded->pipeline),
            core::GridFrequencyDigest(*pipeline));
}

TEST(EpochSegmentCodecTest, RoundTripsWithoutDedupKeys) {
  const StatusOr<RecoveredPipeline> decoded =
      PipelineCodec::Decode(SegmentBytes(1));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch_seq, 1u);
  EXPECT_TRUE(decoded->dedup_keys.empty());
}

TEST(EpochSegmentCodecTest, EveryTruncationIsDataLoss) {
  const std::vector<uint8_t> bytes = SegmentBytes(3);
  const test_support::ScopedAllocationCap cap(bytes.size());
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    const StatusOr<RecoveredPipeline> decoded = PipelineCodec::Decode(cut);
    ASSERT_FALSE(decoded.ok()) << "length " << len;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << "length " << len;
  }
}

TEST(EpochSegmentCodecTest, EveryBitFlipIsRejected) {
  const std::vector<uint8_t> bytes = SegmentBytes(3);
  const test_support::ScopedAllocationCap cap(bytes.size());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> flipped = bytes;
    flipped[i] ^= 0x01;
    EXPECT_FALSE(PipelineCodec::Decode(flipped).ok()) << "byte " << i;
  }
}

TEST(EpochSegmentCodecTest, RejectsWrongMagicWithValidChecksum) {
  std::vector<uint8_t> bytes = SegmentBytes(1);
  const uint32_t wire_magic = 0x46454C50;  // "FELP"
  std::memcpy(bytes.data(), &wire_magic, sizeof(wire_magic));
  Reseal(&bytes);
  const StatusOr<RecoveredPipeline> decoded = PipelineCodec::Decode(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(EpochSegmentCodecTest, RejectsFutureVersion) {
  std::vector<uint8_t> bytes = SegmentBytes(1);
  bytes[4] = snapshot::kFormatVersion + 1;  // [magic u32][version u8]
  Reseal(&bytes);
  const StatusOr<RecoveredPipeline> decoded = PipelineCodec::Decode(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(EpochSegmentCodecTest, RejectsZeroSequence) {
  const std::vector<uint8_t> bytes =
      Rewrite(SegmentBytes(1), [](SectionId id, std::vector<uint8_t>* p) {
        if (id == SectionId::kEpoch) std::fill(p->begin(), p->end(), 0);
      });
  const StatusOr<RecoveredPipeline> decoded = PipelineCodec::Decode(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(EpochSegmentCodecTest, RejectsPoisonedEpsilon) {
  // kConfig: num_users u64, strategy u8, partitioning u8, then epsilon.
  constexpr size_t kEpsilonOffset = 8 + 1 + 1;
  for (const double epsilon :
       {0.0, -1.0, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    const std::vector<uint8_t> bytes = Rewrite(
        SegmentBytes(1), [epsilon](SectionId id, std::vector<uint8_t>* p) {
          if (id != SectionId::kConfig) return;
          std::memcpy(p->data() + kEpsilonOffset, &epsilon, sizeof(epsilon));
        });
    const StatusOr<RecoveredPipeline> decoded = PipelineCodec::Decode(bytes);
    ASSERT_FALSE(decoded.ok()) << "epsilon " << epsilon;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EpochSegmentCodecTest, RejectsSnapshotLengthMismatch) {
  // A section length that disagrees with the bytes present is a framing
  // error even under a valid seal (the seal covers the lying length too).
  // The kEpoch section is last: [id u8][len u64][seq u64][xxh64] before
  // the seal.
  std::vector<uint8_t> bytes = SegmentBytes(1);
  const size_t len_offset = bytes.size() - 8 - 8 - 8 - 8;
  ASSERT_EQ(bytes[len_offset - 1], static_cast<uint8_t>(SectionId::kEpoch));
  for (const uint64_t len : {uint64_t{5}, uint64_t{13}, ~uint64_t{0}}) {
    std::vector<uint8_t> lying = bytes;
    std::memcpy(lying.data() + len_offset, &len, sizeof(len));
    Reseal(&lying);
    const test_support::ScopedAllocationCap cap(lying.size());
    const StatusOr<RecoveredPipeline> decoded = PipelineCodec::Decode(lying);
    ASSERT_FALSE(decoded.ok()) << "length " << len;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

TEST(EpochSegmentCodecTest, SegmentIsASnapshotButNeverAWireFrame) {
  // One container: the segment is the snapshot format's own bytes, so it
  // passes the snapshot seal and never the wire frame's.
  const std::vector<uint8_t> bytes = SegmentBytes(1);
  EXPECT_TRUE(wire::CheckSealedChecksum(bytes, snapshot::kChecksumSalt));
  EXPECT_FALSE(wire::CheckSealedChecksum(bytes, wire::kChecksumSalt));
  EXPECT_FALSE(wire::DecodeReportBatch(bytes).ok());
}

TEST_F(EpochStoreTest, WriteCommitsAndLoadsBack) {
  EpochStore store(dir(), 4);
  const std::vector<uint64_t> keys = {5, 6};
  const StatusOr<std::string> path = store.Write(1, *Sealed(500, 1.5), keys);
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
  EXPECT_EQ(loaded.segments[0].reports(), 500u);
  EXPECT_EQ(loaded.segments[0].epsilon(), 1.5);
  EXPECT_EQ(loaded.segments[0].state.dedup_keys, keys);
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
  ASSERT_TRUE(Seal(store, 1).ok());
  EXPECT_EQ(store.LoadAll().segments.size(), 1u);
}

TEST_F(EpochStoreTest, LoadAllReturnsOldestFirst) {
  EpochStore store(dir(), 8);
  // Write out of arrival order is impossible (sequence check), so order
  // comes from the directory walk + sort.
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(Seal(store, seq, seq * 100).ok());
  }
  const LoadedEpochs loaded = store.LoadAll();
  ASSERT_EQ(loaded.segments.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(loaded.segments[i].seq, i + 1);
    EXPECT_EQ(loaded.segments[i].reports(), (i + 1) * 100);
  }
}

TEST_F(EpochStoreTest, CompactionKeepsOnlyLastN) {
  EpochStore store(dir(), 2);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(Seal(store, seq).ok());
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
      ASSERT_TRUE(Seal(store, seq).ok());
    }
  }
  EpochStore reopened(dir(), 8);
  EXPECT_EQ(reopened.next_seq(), 4u);
  // A committed epoch is never clobbered: the next seal takes sequence 4.
  ASSERT_TRUE(Seal(reopened, 4).ok());
  EXPECT_EQ(reopened.LoadAll().segments.size(), 4u);
}

TEST_F(EpochStoreTest, GapsAfterFailedCommitsAreAllowed) {
  EpochStore store(dir(), 8);
  ASSERT_TRUE(Seal(store, 1).ok());
  // Epoch 2's commit failed elsewhere; epoch 3 seals over the gap.
  ASSERT_TRUE(Seal(store, 3).ok());
  EXPECT_EQ(store.next_seq(), 4u);
  const LoadedEpochs loaded = store.LoadAll();
  ASSERT_EQ(loaded.segments.size(), 2u);
  EXPECT_EQ(loaded.segments[0].seq, 1u);
  EXPECT_EQ(loaded.segments[1].seq, 3u);
}

TEST_F(EpochStoreTest, LoadAllSkipsDamagedSegments) {
  EpochStore store(dir(), 8);
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(Seal(store, seq).ok());
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
  ASSERT_TRUE(Seal(store, 1).ok());
  // The file name is untrusted; the sealed kEpoch section is the
  // identity. A segment renamed to another sequence must not impersonate
  // it.
  fs::rename(fs::path(dir()) / "epoch-1.fesg",
             fs::path(dir()) / "epoch-9.fesg");
  const LoadedEpochs loaded = store.LoadAll();
  EXPECT_EQ(loaded.segments.size(), 0u);
  EXPECT_EQ(loaded.files_skipped, 1u);
}

TEST_F(EpochStoreTest, CheckpointsAreNoEpochSegments) {
  // A snapshot without a kEpoch section, or one that is not queryable,
  // is no sealed epoch, whatever its name.
  const std::unique_ptr<core::FelipPipeline> sealed = Sealed(100);
  WriteFile(fs::path(dir()) / "epoch-1.fesg",
            PipelineCodec::Encode(*sealed, {}));
  const data::Dataset dataset = data::MakeUniform(100, 2, 0, 8, 2, 1);
  const core::FelipPipeline configured(dataset.attributes(), 100,
                                       sealed->config());
  WriteFile(fs::path(dir()) / "epoch-2.fesg",
            PipelineCodec::Encode(configured, {}, 2));
  const LoadedEpochs loaded = EpochStore(dir(), 8).LoadAll();
  EXPECT_TRUE(loaded.segments.empty());
  EXPECT_EQ(loaded.files_skipped, 2u);
}

TEST_F(EpochStoreTest, RetiredFesgSegmentIsSkipped) {
  // The retired FESG layout: [magic 'FESG'][version 1][seq][reports]
  // [epsilon][snapshot_len][snapshot][xxh64 salted "epoccsum"]. It is
  // skipped and counted, never fatal, and the epochs beside it load.
  EpochStore store(dir(), 8);
  ASSERT_TRUE(Seal(store, 2).ok());
  const std::vector<uint8_t> snapshot_bytes = SegmentBytes(1);
  std::vector<uint8_t> retired;
  wire::Writer w(&retired);
  w.Put<uint32_t>(0x46455347);  // "FESG"
  w.Put<uint8_t>(1);
  w.Put<uint64_t>(1);
  w.Put<uint64_t>(300);
  w.Put<double>(2.0);
  w.Put<uint64_t>(snapshot_bytes.size());
  w.PutBytes(snapshot_bytes.data(), snapshot_bytes.size());
  wire::SealChecksum(&retired, 0x65706f63'6373756dULL);
  WriteFile(fs::path(dir()) / "epoch-1.fesg", retired);
  const LoadedEpochs loaded = EpochStore(dir(), 8).LoadAll();
  EXPECT_EQ(loaded.files_skipped, 1u);
  ASSERT_EQ(loaded.segments.size(), 1u);
  EXPECT_EQ(loaded.segments[0].seq, 2u);
}

TEST_F(EpochStoreTest, IgnoresForeignFilesInTheDirectory) {
  EpochStore store(dir(), 8);
  ASSERT_TRUE(Seal(store, 1).ok());
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
  // A sealed file whose last section header has only seven of its eight
  // length bytes, all 0xFF, before the seal — and a seal whose low byte
  // is 0xFF too, so a reader that still saw the seal would read a length
  // of 2^64 - 1 and must not size a buffer from it. The filler section
  // varies until the seal's low byte comes out 0xFF.
  std::vector<uint8_t> bytes;
  for (uint32_t filler = 0;; ++filler) {
    bytes.clear();
    snapshot::AppendHeader(&bytes, 3);
    uint8_t filler_bytes[sizeof(filler)];
    std::memcpy(filler_bytes, &filler, sizeof(filler));
    snapshot::AppendSection(&bytes, SectionId::kState, {filler_bytes});
    bytes.push_back(static_cast<uint8_t>(SectionId::kEpoch));
    for (int i = 0; i < 7; ++i) bytes.push_back(0xFF);
    wire::SealChecksum(&bytes, snapshot::kChecksumSalt);
    if (bytes[bytes.size() - sizeof(uint64_t)] == 0xFF) break;
  }
  {
    const test_support::ScopedAllocationCap cap(bytes.size());
    const StatusOr<RecoveredPipeline> decoded = PipelineCodec::Decode(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
  WriteFile(fs::path(dir()) / "epoch-31.fesg", bytes);
  const LoadedEpochs loaded = EpochStore(dir(), 8).LoadAll();
  EXPECT_EQ(loaded.files_skipped, 1u);
  EXPECT_TRUE(loaded.segments.empty());
}

using EpochStoreDeathTest = EpochStoreTest;

TEST_F(EpochStoreDeathTest, RejectsSequenceReuse) {
  EpochStore store(dir(), 8);
  const std::unique_ptr<core::FelipPipeline> pipeline = Sealed(100);
  ASSERT_TRUE(store.Write(2, *pipeline, {}).ok());
  EXPECT_DEATH(store.Write(2, *pipeline, {}), "increasing sequence");
  EXPECT_DEATH(store.Write(1, *pipeline, {}), "increasing sequence");
}

}  // namespace
}  // namespace felip::stream
