// Wire decode observability: every rejected buffer increments the
// malformed counter (exactly once per decode call), successful decodes
// count batches/reports, and the byte counter tracks everything inspected.
// The corruption recipes mirror the fuzz suite: the test injects a known
// number of corrupted buffers and asserts the malformed counter delta
// matches that injected count exactly.

#include "felip/wire/wire.h"

#include <cstring>
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
  EXPECT_FALSE(DecodeReport({}).has_value());
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
  const std::vector<uint8_t> valid = EncodeReport(m);
  std::vector<uint8_t> corrupt = valid;
  corrupt[0] ^= 0xff;
  Reseal(&corrupt);

  const CounterSnapshot before = Snapshot();
  ASSERT_TRUE(DecodeReport(valid).has_value());
  EXPECT_FALSE(DecodeReport(corrupt).has_value());
  const CounterSnapshot after = Snapshot();
  EXPECT_EQ(after.reports - before.reports, 1u);
  EXPECT_EQ(after.malformed - before.malformed, 1u);
  EXPECT_EQ(after.bytes - before.bytes, valid.size() + corrupt.size());
}

TEST(WireMetricsTest, GridConfigDecodesAreCounted) {
  GridConfigMessage m;
  m.grid_index = 1;
  m.is_2d = false;
  m.attr_x = 0;
  m.attr_y = 0;
  m.domain_x = 10;
  m.domain_y = 1;
  m.lx = 5;
  m.ly = 1;
  m.protocol = fo::Protocol::kGrr;
  m.epsilon = 1.0;
  const std::vector<uint8_t> valid = EncodeGridConfig(m);
  std::vector<uint8_t> truncated(valid.begin(), valid.end() - 3);

  const CounterSnapshot before = Snapshot();
  ASSERT_TRUE(DecodeGridConfig(valid).has_value());
  EXPECT_FALSE(DecodeGridConfig(truncated).has_value());
  const CounterSnapshot after = Snapshot();
  EXPECT_EQ(after.malformed - before.malformed, 1u);
  EXPECT_EQ(after.bytes - before.bytes, valid.size() + truncated.size());
}

// The per-protocol byte counter must measure the protocol body only —
// excluding the 5-byte grid-index/protocol header — so its deltas agree
// with the registry's report_bytes model that AFO budgets against.
TEST(WireMetricsTest, PerProtocolReportByteCounterMatchesRegistryModel) {
  const obs::Registry& registry = obs::Registry::Default();
  const fo::ProtocolOptions options;

  ReportMessage grr;
  grr.grid_index = 3;
  grr.payload = uint64_t{11};
  const uint64_t grr_before =
      registry.CounterValue("felip_fo_report_bytes_total_grr");
  ASSERT_TRUE(DecodeReport(EncodeReport(grr)).has_value());
  const uint64_t grr_delta =
      registry.CounterValue("felip_fo_report_bytes_total_grr") - grr_before;
  EXPECT_EQ(grr_delta,
            fo::GetTraits(fo::Protocol::kGrr).report_bytes(1.0, 10, options));

  ReportMessage fldp;
  fldp.grid_index = 4;
  fldp.payload = fo::FldpReport{.subset_index = 2, .bits = {1, 0, 1, 1}};
  fo::ProtocolOptions fldp_options;
  fldp_options.fldp.report_bits = 4;
  const uint64_t fldp_before =
      registry.CounterValue("felip_fo_report_bytes_total_fldp");
  ASSERT_TRUE(DecodeReport(EncodeReport(fldp)).has_value());
  const uint64_t fldp_delta =
      registry.CounterValue("felip_fo_report_bytes_total_fldp") - fldp_before;
  EXPECT_EQ(fldp_delta, fo::GetTraits(fo::Protocol::kFldp)
                            .report_bytes(1.0, 10, fldp_options));
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

#endif  // FELIP_OBS_NOOP

}  // namespace
}  // namespace felip::wire
