// Wire decode observability: every rejected buffer increments the
// malformed counter (exactly once per decode call), successful decodes
// count batches/reports, and the byte counter tracks everything inspected.
// The corruption recipes mirror the fuzz suite: the test injects a known
// number of corrupted buffers and asserts the malformed counter delta
// matches that injected count exactly.

#include "felip/wire/wire.h"

#include <cctype>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/hash.h"
#include "felip/fo/protocol.h"
#include "felip/fo/registry.h"
#include "felip/obs/metrics.h"

namespace felip::wire {
namespace {

#ifdef FELIP_OBS_NOOP

TEST(WireMetricsTest, NoopBuildStillDecodes) {
  EXPECT_FALSE(DecodeReportBatch({}).has_value());
}

#else

constexpr size_t kTrailerSize = 8;

// Recomputes the checksum trailer after a mutation so the structural
// validators (not the checksum) reject the buffer.
void Reseal(std::vector<uint8_t>* buffer) {
  ASSERT_GE(buffer->size(), 6 + kTrailerSize);
  const size_t payload_end = buffer->size() - kTrailerSize;
  const uint64_t checksum =
      XxHash64Bytes(buffer->data(), payload_end, kChecksumSalt);
  std::memcpy(buffer->data() + payload_end, &checksum, sizeof(checksum));
}

std::vector<ReportMessage> SampleBatch() {
  std::vector<ReportMessage> reports;
  ReportMessage grr;
  grr.grid_index = 0;
  grr.payload = uint64_t{11};
  reports.push_back(grr);
  ReportMessage olh;
  olh.grid_index = 1;
  olh.payload = fo::OlhReport{.seed = 0x1234, .hashed_report = 3,
                              .seed_index = 7};
  reports.push_back(olh);
  ReportMessage oue;
  oue.grid_index = 2;
  oue.payload = std::vector<uint8_t>{1, 0, 1, 1};
  reports.push_back(oue);
  return reports;
}

struct CounterSnapshot {
  uint64_t bytes;
  uint64_t malformed;
  uint64_t batches;
  uint64_t reports;
};

CounterSnapshot Snapshot() {
  const obs::Registry& registry = obs::Registry::Default();
  return {registry.CounterValue("felip_wire_decode_bytes_total"),
          registry.CounterValue("felip_wire_malformed_total"),
          registry.CounterValue("felip_wire_report_batches_total"),
          registry.CounterValue("felip_wire_reports_decoded_total")};
}

TEST(WireMetricsTest, MalformedCounterMatchesInjectedCorruptionCount) {
  const std::vector<ReportMessage> batch = SampleBatch();
  const std::vector<uint8_t> valid = EncodeReportBatch(batch);

  // The fuzz-style corruption recipes. Every entry must be rejected.
  std::vector<std::vector<uint8_t>> corrupted;
  {
    std::vector<uint8_t> truncated(valid.begin(), valid.end() - 1);
    corrupted.push_back(std::move(truncated));
  }
  {
    std::vector<uint8_t> bad_magic = valid;
    bad_magic[0] ^= 0xff;
    Reseal(&bad_magic);
    corrupted.push_back(std::move(bad_magic));
  }
  {
    std::vector<uint8_t> bad_version = valid;
    bad_version[4] ^= 0xff;
    Reseal(&bad_version);
    corrupted.push_back(std::move(bad_version));
  }
  {
    std::vector<uint8_t> bad_kind = valid;
    bad_kind[5] = 0x7f;
    Reseal(&bad_kind);
    corrupted.push_back(std::move(bad_kind));
  }
  {
    std::vector<uint8_t> bad_checksum = valid;
    bad_checksum[valid.size() / 2] ^= 0x01;  // payload flip, no reseal
    corrupted.push_back(std::move(bad_checksum));
  }
  {
    std::vector<uint8_t> inflated_count = valid;
    // The 4-byte report count sits right after the 6-byte header.
    inflated_count[6] = 0xff;
    inflated_count[7] = 0xff;
    Reseal(&inflated_count);
    corrupted.push_back(std::move(inflated_count));
  }
  corrupted.push_back({});  // empty buffer

  const CounterSnapshot before = Snapshot();

  ASSERT_TRUE(DecodeReportBatch(valid).has_value());
  uint64_t bytes_fed = valid.size();
  for (const std::vector<uint8_t>& buffer : corrupted) {
    EXPECT_FALSE(DecodeReportBatch(buffer).has_value());
    bytes_fed += buffer.size();
  }

  const CounterSnapshot after = Snapshot();
  EXPECT_EQ(after.malformed - before.malformed, corrupted.size());
  EXPECT_EQ(after.batches - before.batches, 1u);
  EXPECT_EQ(after.reports - before.reports, batch.size());
  EXPECT_EQ(after.bytes - before.bytes, bytes_fed);
}

TEST(WireMetricsTest, SingleReportDecodesAreCounted) {
  ReportMessage m;
  m.grid_index = 5;
  m.payload = uint64_t{2};
  const std::vector<uint8_t> valid = EncodeReportBatch({m});
  std::vector<uint8_t> corrupt = valid;
  corrupt[0] ^= 0xff;
  Reseal(&corrupt);

  const CounterSnapshot before = Snapshot();
  ASSERT_TRUE(DecodeReportBatch(valid).has_value());
  EXPECT_FALSE(DecodeReportBatch(corrupt).has_value());
  const CounterSnapshot after = Snapshot();
  EXPECT_EQ(after.batches - before.batches, 1u);
  EXPECT_EQ(after.reports - before.reports, 1u);
  EXPECT_EQ(after.malformed - before.malformed, 1u);
  EXPECT_EQ(after.bytes - before.bytes, valid.size() + corrupt.size());
}

// felip_fo_report_bytes_total_<protocol> counts the record bytes a run
// carries — its fields in their encoded widths and its packed bits, not
// the run header — whichever decoder validates the frame. Per report that
// stays at or below the registry's report_bytes, the upper bound AFO
// budgets against.
TEST(WireMetricsTest, PerProtocolReportByteCounterCountsRecordBytes) {
  const obs::Registry& registry = obs::Registry::Default();
  const auto reports = [](std::vector<fo::ReportPayload> payloads) {
    std::vector<ReportMessage> batch(payloads.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].grid_index = 3;
      batch[i].payload = std::move(payloads[i]);
    }
    return batch;
  };
  fo::ProtocolOptions fldp_options;
  fldp_options.fldp.report_bits = 4;
  struct Case {
    const char* counter;
    fo::Protocol protocol;
    std::vector<ReportMessage> batch;
    uint64_t record_bytes;
    fo::ProtocolOptions options;
  };
  const Case cases[] = {
      // Values up to 300 take 2-byte fields.
      {"felip_fo_report_bytes_total_grr", fo::Protocol::kGrr,
       reports({uint64_t{11}, uint64_t{300}, uint64_t{2}}), 3 * 2, {}},
      // Pool index (2 bytes) and hashed report (1 byte); no seed.
      {"felip_fo_report_bytes_total_olh", fo::Protocol::kOlh,
       reports({fo::OlhReport{.seed = 0x1234, .hashed_report = 3,
                              .seed_index = 7},
                fo::OlhReport{.seed = 0x5678, .hashed_report = 1,
                              .seed_index = 300}}),
       2 * 3, {}},
      // Per-user: an 8-byte seed and the hashed report.
      {"felip_fo_report_bytes_total_olh", fo::Protocol::kOlh,
       reports({fo::OlhReport{.seed = 0x0123456789abcdefull,
                              .hashed_report = 2}}),
       8 + 1, {}},
      // Ten bits pack into two bytes.
      {"felip_fo_report_bytes_total_oue", fo::Protocol::kOue,
       reports({std::vector<uint8_t>(10, 1), std::vector<uint8_t>(10, 0)}),
       2 * 2, {}},
      {"felip_fo_report_bytes_total_pgr", fo::Protocol::kPgr,
       reports({uint32_t{5}}), 1, {}},
      // Subset index (1 byte) and four bits (1 byte).
      {"felip_fo_report_bytes_total_fldp", fo::Protocol::kFldp,
       reports({fo::FldpReport{.subset_index = 2, .bits = {1, 0, 1, 1}}}),
       1 + 1, fldp_options},
  };
  ReportChunkDecoder chunks;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.counter);
    const std::vector<uint8_t> frame = EncodeReportBatch(c.batch);
    const uint64_t before = registry.CounterValue(c.counter);
    ASSERT_TRUE(DecodeReportBatch(frame).has_value());
    const uint64_t delta = registry.CounterValue(c.counter) - before;
    EXPECT_EQ(delta, c.record_bytes);
    EXPECT_LE(delta, c.batch.size() * fo::GetTraits(c.protocol).report_bytes(
                                          1.0, 10, c.options));
    ASSERT_TRUE(chunks.Validate(frame).ok());
    EXPECT_EQ(registry.CounterValue(c.counter) - before, 2 * c.record_bytes);
  }
}

TEST(WireMetricsTest, ShardedDecodeCountsOncePerCall) {
  const std::vector<ReportMessage> batch = SampleBatch();
  const std::vector<uint8_t> valid = EncodeReportBatch(batch);

  const CounterSnapshot before = Snapshot();
  size_t sunk = 0;
  const auto count = DecodeReportBatchSharded(
      valid, [&sunk](size_t, size_t, ReportMessage&&) { ++sunk; },
      /*thread_count=*/4);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(sunk, batch.size());
  const CounterSnapshot after = Snapshot();
  EXPECT_EQ(after.batches - before.batches, 1u);
  EXPECT_EQ(after.reports - before.reports, batch.size());
  EXPECT_EQ(after.bytes - before.bytes, valid.size());
  EXPECT_EQ(after.malformed, before.malformed);
}

// The drain path decodes every frame through one ReportChunkDecoder,
// whose chunk buffer keeps the storage of each report whose payload
// already holds the record's alternative. Decoding a run of frames
// through it — spanning several chunks, shrinking, switching
// alternatives, changing bit-vector lengths, with a rejected frame in
// between — must give exactly what a fresh whole-frame decode gives, in
// chunks of at most kReportChunkSize reports, all full but the last.
TEST(WireMetricsTest, ReusedBatchVectorMatchesFreshDecodes) {
  const auto bits_batch = [](size_t count, size_t bits) {
    std::vector<ReportMessage> batch(count);
    for (size_t i = 0; i < count; ++i) {
      batch[i].grid_index = static_cast<uint32_t>(i % 5);
      std::vector<uint8_t> vector(bits);
      for (size_t b = 0; b < bits; ++b) vector[b] = (i + b) % 3 == 0;
      batch[i].payload = std::move(vector);
    }
    return batch;
  };
  std::vector<ReportMessage> grr(3);
  for (size_t i = 0; i < grr.size(); ++i) {
    grr[i].grid_index = 7;
    grr[i].payload = uint64_t{100 + i};
  }
  std::vector<ReportMessage> fldp(7);
  for (size_t i = 0; i < fldp.size(); ++i) {
    fldp[i].grid_index = 2;
    fldp[i].payload = fo::FldpReport{
        .subset_index = static_cast<uint32_t>(i),
        .bits = std::vector<uint8_t>(1 + i % 4, i % 2)};
  }
  std::vector<ReportMessage> olh(2500);
  for (size_t i = 0; i < olh.size(); ++i) {
    olh[i].grid_index = static_cast<uint32_t>(i % 3);
    olh[i].payload = fo::OlhReport{.seed = 0x1234 + i,
                                   .hashed_report = static_cast<uint32_t>(i),
                                   .seed_index = fo::OlhReport::kNoPool};
  }

  // Checksum-valid, with an unknown protocol byte in its first run (after
  // the header, the run count and the grid index).
  std::vector<uint8_t> bad = EncodeReportBatch(bits_batch(4, 4));
  bad[6 + 4 + 4] = 0x7f;
  Reseal(&bad);

  std::vector<std::string> byte_counters;
  for (const fo::ProtocolTraits& traits : fo::AllProtocolTraits()) {
    std::string name = "felip_fo_report_bytes_total_";
    for (const char ch : traits.name) {
      name.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(ch))));
    }
    byte_counters.push_back(std::move(name));
  }
  const obs::Registry& registry = obs::Registry::Default();

  ReportChunkDecoder chunks;
  const auto decode_valid = [&chunks](const std::vector<ReportMessage>& batch) {
    const std::vector<uint8_t> frame = EncodeReportBatch(batch);
    ASSERT_TRUE(chunks.Validate(frame).ok());
    EXPECT_EQ(chunks.report_count(), batch.size());
    std::vector<ReportMessage> reused;
    std::vector<size_t> sizes;
    chunks.Decode([&](std::span<const ReportMessage> chunk) {
      sizes.push_back(chunk.size());
      reused.insert(reused.end(), chunk.begin(), chunk.end());
    });
    for (size_t c = 0; c < sizes.size(); ++c) {
      EXPECT_GT(sizes[c], 0u);
      EXPECT_LE(sizes[c], kReportChunkSize);
      if (c + 1 < sizes.size()) {
        EXPECT_EQ(sizes[c], kReportChunkSize);
      }
    }
    const auto fresh = DecodeReportBatch(frame);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(reused, *fresh);
    EXPECT_EQ(reused.size(), batch.size());
  };
  decode_valid(bits_batch(1500, 8));
  decode_valid(grr);
  decode_valid(fldp);
  decode_valid(bits_batch(6, 4));

  std::vector<uint64_t> bytes_before;
  for (const std::string& name : byte_counters) {
    bytes_before.push_back(registry.CounterValue(name));
  }
  const CounterSnapshot before = Snapshot();
  EXPECT_EQ(chunks.Validate(bad).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(chunks.report_count(), 0u);
  EXPECT_EQ(Snapshot().malformed - before.malformed, 1u);
  for (size_t p = 0; p < byte_counters.size(); ++p) {
    EXPECT_EQ(registry.CounterValue(byte_counters[p]), bytes_before[p])
        << byte_counters[p];
  }

  decode_valid(olh);
  decode_valid({});
}

#endif  // FELIP_OBS_NOOP

}  // namespace
}  // namespace felip::wire
