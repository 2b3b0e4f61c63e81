// Structured fuzzing of the wire codecs: every decoder must return a
// non-ok Status — never crash, never hand back garbage — for truncations at
// every byte offset, corrupted checksum trailers, bad magic/version/kind
// bytes, oversized length prefixes, and random corruption. A Reseal()
// helper recomputes the xxHash trailer after each mutation so the tests
// exercise the structural validation behind the checksum, not just the
// checksum itself. Also pins DecodeReportBatchSharded to DecodeReportBatch:
// same accepts, same rejects, and the sink never runs on malformed input.
// The corruption sweeps run under an allocation cap (support/alloc_cap.h),
// so a decoder that sizes a buffer from a corrupted count fails here on
// every host.

#include "felip/wire/wire.h"

#include <cstdint>
#include <cstring>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/hash.h"
#include "felip/common/parallel.h"
#include "felip/common/rng.h"
#include "felip/fo/protocol.h"
#include "felip/obs/metrics.h"
#include "support/alloc_cap.h"

namespace felip::wire {
namespace {

constexpr size_t kHeaderSize = 6;   // magic(4) + version(1) + kind(1)
constexpr size_t kTrailerSize = 8;  // xxHash64

// Recomputes the checksum trailer over the (possibly mutated) payload, so
// a mutation is seen by the structural validators instead of being caught
// by the checksum.
void Reseal(std::vector<uint8_t>* buffer) {
  ASSERT_GE(buffer->size(), kHeaderSize + kTrailerSize);
  const size_t payload_end = buffer->size() - kTrailerSize;
  const uint64_t checksum =
      XxHash64Bytes(buffer->data(), payload_end, kChecksumSalt);
  std::memcpy(buffer->data() + payload_end, &checksum, sizeof(checksum));
}

GridConfigMessage SampleGridConfig() {
  GridConfigMessage m;
  m.grid_index = 3;
  m.is_2d = true;
  m.attr_x = 1;
  m.attr_y = 4;
  m.domain_x = 100;
  m.domain_y = 50;
  m.lx = 10;
  m.ly = 5;
  m.protocol = fo::Protocol::kOlh;
  m.epsilon = 1.5;
  m.seed_pool_size = 1024;
  m.pool_salt = 0xabcdef;
  return m;
}

ReportMessage SampleReport(fo::Protocol protocol) {
  // Indexed by protocol.
  const fo::ReportPayload payloads[] = {
      uint64_t{42},
      fo::OlhReport{.seed = 0x1234, .hashed_report = 3, .seed_index = 9},
      std::vector<uint8_t>{1, 0, 0, 1, 0, 1, 1, 0},
      uint32_t{5},
      fo::FldpReport{.subset_index = 2, .bits = {0, 1, 1, 0}},
  };
  ReportMessage m;
  m.grid_index = 7;
  m.payload = payloads[static_cast<size_t>(protocol)];
  return m;
}

std::vector<ReportMessage> SampleBatch() {
  return {SampleReport(fo::Protocol::kGrr), SampleReport(fo::Protocol::kOlh),
          SampleReport(fo::Protocol::kOue), SampleReport(fo::Protocol::kOlh),
          SampleReport(fo::Protocol::kGrr)};
}

TEST(WireFuzzTest, AllThreeMessageTypesRoundTrip) {
  const GridConfigMessage config = SampleGridConfig();
  const auto config_rt = DecodeGridConfig(EncodeGridConfig(config));
  ASSERT_TRUE(config_rt.ok()) << config_rt.status().ToString();
  EXPECT_EQ(*config_rt, config);

  for (const fo::ProtocolTraits& traits : fo::AllProtocolTraits()) {
    const ReportMessage report = SampleReport(traits.protocol);
    const auto report_rt = DecodeReport(EncodeReport(report));
    ASSERT_TRUE(report_rt.ok()) << report_rt.status().ToString();
    EXPECT_EQ(*report_rt, report);
  }

  const std::vector<ReportMessage> batch = SampleBatch();
  const auto batch_rt = DecodeReportBatch(EncodeReportBatch(batch));
  ASSERT_TRUE(batch_rt.ok()) << batch_rt.status().ToString();
  EXPECT_EQ(*batch_rt, batch);
}

TEST(WireFuzzTest, TruncationAtEveryByteOffsetFails) {
  const std::vector<std::vector<uint8_t>> encodings = {
      EncodeGridConfig(SampleGridConfig()),
      EncodeReport(SampleReport(fo::Protocol::kGrr)),
      EncodeReport(SampleReport(fo::Protocol::kOlh)),
      EncodeReport(SampleReport(fo::Protocol::kOue)),
      EncodeReportBatch(SampleBatch()),
  };
  for (size_t e = 0; e < encodings.size(); ++e) {
    const std::vector<uint8_t>& full = encodings[e];
    const test_support::ScopedAllocationCap cap(full.size());
    for (size_t len = 0; len < full.size(); ++len) {
      const std::vector<uint8_t> prefix(full.begin(), full.begin() + len);
      EXPECT_FALSE(DecodeGridConfig(prefix).ok())
          << "encoding " << e << " truncated to " << len;
      EXPECT_FALSE(DecodeReport(prefix).ok())
          << "encoding " << e << " truncated to " << len;
      EXPECT_FALSE(DecodeReportBatch(prefix).ok())
          << "encoding " << e << " truncated to " << len;
    }
  }
}

TEST(WireFuzzTest, EveryCorruptedTrailerByteFails) {
  const std::vector<uint8_t> full = EncodeReportBatch(SampleBatch());
  for (size_t i = full.size() - kTrailerSize; i < full.size(); ++i) {
    std::vector<uint8_t> corrupt = full;
    corrupt[i] ^= 0x5a;
    EXPECT_FALSE(DecodeReportBatch(corrupt).ok()) << "trailer byte " << i;
  }
}

TEST(WireFuzzTest, BadMagicVersionOrKindFailsEvenResealed) {
  const std::vector<uint8_t> full = EncodeReportBatch(SampleBatch());
  for (size_t i = 0; i < kHeaderSize; ++i) {
    std::vector<uint8_t> corrupt = full;
    corrupt[i] ^= 0xff;
    Reseal(&corrupt);  // checksum is valid; header validation must reject
    EXPECT_FALSE(DecodeReportBatch(corrupt).ok()) << "header byte " << i;
  }
  // A valid message of one kind must not decode as another.
  EXPECT_FALSE(
      DecodeReportBatch(EncodeReport(SampleReport(fo::Protocol::kGrr))).ok());
  EXPECT_FALSE(DecodeReport(EncodeGridConfig(SampleGridConfig())).ok());
}

TEST(WireFuzzTest, OversizedBatchCountFailsEvenResealed) {
  std::vector<uint8_t> corrupt = EncodeReportBatch(SampleBatch());
  // Batch count lives right after the header; claim 2^31 reports.
  const uint32_t absurd = 1u << 31;
  std::memcpy(corrupt.data() + kHeaderSize, &absurd, sizeof(absurd));
  Reseal(&corrupt);
  const test_support::ScopedAllocationCap cap(corrupt.size());
  EXPECT_FALSE(DecodeReportBatch(corrupt).ok());
}

TEST(WireFuzzTest, CountJustOverRemainingBytesFailsBeforeAllocating) {
  // The declared count is capped against the bytes actually present
  // (min report record = grid(4) + protocol(1) + oue-len(4) = 9 bytes)
  // BEFORE any allocation sized by it. A count of remaining/9 + 1 is the
  // smallest adversarial value: plausible enough to pass a naive sanity
  // cap, impossible to satisfy with the buffer at hand.
  std::vector<uint8_t> corrupt = EncodeReportBatch(SampleBatch());
  const size_t remaining =
      corrupt.size() - kTrailerSize - kHeaderSize - sizeof(uint32_t);
  const uint32_t just_over = static_cast<uint32_t>(remaining / 9 + 1);
  std::memcpy(corrupt.data() + kHeaderSize, &just_over, sizeof(just_over));
  Reseal(&corrupt);

  const uint64_t malformed_before =
      obs::Registry::Default().CounterValue("felip_wire_malformed_total");
  const test_support::ScopedAllocationCap cap(corrupt.size());
  EXPECT_FALSE(DecodeReportBatch(corrupt).ok());
  EXPECT_FALSE(DecodeReportBatchSharded(
                   corrupt, [](size_t, size_t, ReportMessage&&) {}, 1)
                   .ok());
  EXPECT_EQ(
      obs::Registry::Default().CounterValue("felip_wire_malformed_total"),
      malformed_before + 2);

  // The exact declared count must still decode — the cap is tight.
  std::vector<uint8_t> intact = EncodeReportBatch(SampleBatch());
  EXPECT_TRUE(DecodeReportBatch(intact).ok());
}

TEST(WireFuzzTest, OversizedOueLengthPrefixFailsEvenResealed) {
  const ReportMessage report = SampleReport(fo::Protocol::kOue);
  std::vector<uint8_t> corrupt = EncodeReport(report);
  // OUE body layout: grid_index(4) + protocol(1) + bit count(4) + bits.
  const size_t len_offset = kHeaderSize + 4 + 1;
  const uint32_t absurd = 0xffffffffu;
  std::memcpy(corrupt.data() + len_offset, &absurd, sizeof(absurd));
  Reseal(&corrupt);
  const test_support::ScopedAllocationCap cap(corrupt.size());
  EXPECT_FALSE(DecodeReport(corrupt).ok());
}

TEST(WireFuzzTest, NonBinaryOueBitFailsEvenResealed) {
  const ReportMessage report = SampleReport(fo::Protocol::kOue);
  std::vector<uint8_t> corrupt = EncodeReport(report);
  const size_t first_bit = kHeaderSize + 4 + 1 + 4;
  corrupt[first_bit] = 2;
  Reseal(&corrupt);
  EXPECT_FALSE(DecodeReport(corrupt).ok());

  // Same corruption inside a batch must also fail the sharded decoder's
  // validation pass.
  std::vector<uint8_t> batch = EncodeReportBatch({report});
  batch[kHeaderSize + 4 + 4 + 1 + 4] = 2;
  Reseal(&batch);
  EXPECT_FALSE(DecodeReportBatch(batch).ok());
}

TEST(WireFuzzTest, InvalidProtocolByteFailsEvenResealed) {
  std::vector<uint8_t> corrupt = EncodeReport(SampleReport(fo::Protocol::kGrr));
  corrupt[kHeaderSize + 4] = 0x7f;  // protocol byte
  Reseal(&corrupt);
  EXPECT_FALSE(DecodeReport(corrupt).ok());
}

TEST(WireFuzzTest, RandomSingleByteCorruptionNeverDecodes) {
  const std::vector<uint8_t> full = EncodeReportBatch(SampleBatch());
  Rng rng(20260808);
  const test_support::ScopedAllocationCap cap(full.size());
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> corrupt = full;
    const size_t pos = rng.UniformU64(corrupt.size());
    const auto flip =
        static_cast<uint8_t>(1 + rng.UniformU64(255));  // nonzero xor
    corrupt[pos] ^= flip;
    EXPECT_FALSE(DecodeReportBatch(corrupt).ok())
        << "byte " << pos << " xor " << static_cast<int>(flip);
  }
}

TEST(WireFuzzTest, RandomGarbageBuffersNeverDecode) {
  Rng rng(20260809);
  const test_support::ScopedAllocationCap cap(256);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> garbage(rng.UniformU64(256));
    for (uint8_t& b : garbage) {
      b = static_cast<uint8_t>(rng.UniformU64(256));
    }
    EXPECT_FALSE(DecodeGridConfig(garbage).ok());
    EXPECT_FALSE(DecodeReport(garbage).ok());
    EXPECT_FALSE(DecodeReportBatch(garbage).ok());
  }
}

// --- DecodeReportBatchSharded vs DecodeReportBatch ---

std::optional<std::vector<ReportMessage>> DecodeViaShards(
    const std::vector<uint8_t>& buffer, unsigned thread_count) {
  // Reassemble per-shard in shard order; must reproduce the plain decoder.
  // The sink runs concurrently (one task per shard), so the shared vector
  // must be guarded; within a shard, calls arrive in index order.
  std::vector<std::vector<ReportMessage>> shards;
  std::mutex mutex;
  const auto count = DecodeReportBatchSharded(
      buffer,
      [&](size_t shard, size_t /*index*/, ReportMessage&& m) {
        std::lock_guard<std::mutex> lock(mutex);
        if (shard >= shards.size()) shards.resize(shard + 1);
        shards[shard].push_back(std::move(m));
      },
      thread_count);
  if (!count.has_value()) return std::nullopt;
  std::vector<ReportMessage> all;
  all.reserve(*count);
  for (auto& shard : shards) {
    for (auto& m : shard) all.push_back(std::move(m));
  }
  return all;
}

TEST(WireShardedDecodeTest, AgreesWithPlainDecoderOnMultiShardBatch) {
  // > 2 * 4096 reports so the batch genuinely spans multiple shards.
  std::vector<ReportMessage> batch;
  for (size_t i = 0; i < 10000; ++i) {
    ReportMessage m = SampleReport(fo::Protocol::kGrr);
    m.payload = uint64_t{i};
    batch.push_back(std::move(m));
  }
  const std::vector<uint8_t> buffer = EncodeReportBatch(batch);
  ASSERT_GT(ReportBatchShardCount(batch.size()), 1u);

  const auto plain = DecodeReportBatch(buffer);
  ASSERT_TRUE(plain.has_value());
  ASSERT_EQ(*plain, batch);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(DecodeViaShards(buffer, threads), batch)
        << "threads " << threads;
  }
}

TEST(WireShardedDecodeTest, ShardAndIndexMatchTheDocumentedBoundaries) {
  std::vector<ReportMessage> batch;
  for (size_t i = 0; i < 9000; ++i) {
    batch.push_back(SampleReport(fo::Protocol::kOlh));
  }
  const std::vector<uint8_t> buffer = EncodeReportBatch(batch);
  const size_t num_shards = ReportBatchShardCount(batch.size());

  std::vector<uint32_t> seen(batch.size(), 0);
  std::vector<std::vector<size_t>> order(num_shards);
  const auto count = DecodeReportBatchSharded(
      buffer,
      [&](size_t shard, size_t index, ReportMessage&&) {
        ASSERT_LT(shard, num_shards);
        ASSERT_LT(index, seen.size());
        const auto [begin, end] = SliceRange(seen.size(), shard, num_shards);
        EXPECT_GE(index, begin);
        EXPECT_LT(index, end);
        ++seen[index];
        order[shard].push_back(index);
      },
      /*thread_count=*/1);
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(*count, batch.size());
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1u) << "report " << i;
  }
  for (size_t s = 0; s < num_shards; ++s) {
    for (size_t k = 1; k < order[s].size(); ++k) {
      EXPECT_LT(order[s][k - 1], order[s][k]) << "shard " << s;
    }
  }
}

TEST(WireShardedDecodeTest, SinkNeverRunsOnMalformedInput) {
  std::vector<ReportMessage> batch = SampleBatch();
  const std::vector<uint8_t> valid = EncodeReportBatch(batch);

  size_t sink_calls = 0;
  const auto counting_sink = [&sink_calls](size_t, size_t, ReportMessage&&) {
    ++sink_calls;
  };
  const test_support::ScopedAllocationCap cap(valid.size());

  // Truncations.
  for (size_t len = 0; len < valid.size(); ++len) {
    const std::vector<uint8_t> prefix(valid.begin(), valid.begin() + len);
    EXPECT_FALSE(DecodeReportBatchSharded(prefix, counting_sink, 1).ok());
  }
  // A structurally broken record behind a valid checksum: protocol byte of
  // the second report (after GRR record: grid 4 + proto 1 + value 8).
  std::vector<uint8_t> corrupt = valid;
  corrupt[kHeaderSize + 4 + 4 + 1 + 8 + 4] = 0x7f;
  Reseal(&corrupt);
  EXPECT_FALSE(DecodeReportBatchSharded(corrupt, counting_sink, 1).ok());
  EXPECT_EQ(sink_calls, 0u);
}

TEST(WireShardedDecodeTest, EmptyBatchDecodesToZeroReports) {
  const std::vector<uint8_t> buffer = EncodeReportBatch({});
  size_t sink_calls = 0;
  const auto count = DecodeReportBatchSharded(
      buffer, [&](size_t, size_t, ReportMessage&&) { ++sink_calls; }, 4);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, 0u);
  EXPECT_EQ(sink_calls, 0u);
}

}  // namespace
}  // namespace felip::wire
