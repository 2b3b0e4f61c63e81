#include "felip/wire/wire.h"

#include <cstring>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/hash.h"
#include "felip/common/rng.h"
#include "felip/data/synthetic.h"
#include "felip/wire/framing.h"
#include "support/alloc_cap.h"

namespace felip::wire {
namespace {

// The registry's report_bytes hook is the per-report wire cost
// budget-aware AFO scores against. The grid-run frame writes each field in
// the narrowest width that holds the run's values, so the hook is an upper
// bound on a report's record bytes: a one-record frame minus its framing
// (header, run count, run header, trailer) never exceeds it.
TEST(WireReportTest, RegistryReportBytesBoundRecordBytes) {
  fo::ProtocolOptions pooled;
  pooled.olh.seed_pool_size = 4096;
  for (const fo::ProtocolOptions& options : {fo::ProtocolOptions{}, pooled}) {
    for (const uint64_t domain : {uint64_t{6}, uint64_t{300}, uint64_t{5000}}) {
      for (const fo::ProtocolTraits& traits : fo::AllProtocolTraits()) {
        const std::unique_ptr<fo::ReportClient> client =
            fo::MakeReportClient(traits.protocol, 1.0, domain, options);
        // grid(4) + protocol(1) + count(4), OLH's pooled byte, one width
        // byte per field, the OUE/FLDP bit length(4); indexed by protocol.
        constexpr size_t kRunHeaderBytes[] = {10, 12, 13, 10, 14};
        const size_t framing = 6 + 4 + 8 +
            kRunHeaderBytes[static_cast<size_t>(traits.protocol)];
        Rng rng(domain);
        for (uint64_t value = 0; value < domain; value += 1 + domain / 8) {
          const ReportMessage m = client->Perturb(value, rng);
          EXPECT_LE(EncodeReportBatch({m}).size() - framing,
                    traits.report_bytes(1.0, domain, options))
              << "protocol " << static_cast<int>(traits.protocol)
              << " domain " << domain;
        }
      }
    }
  }
}

TEST(WireReportTest, GrrRoundTrip) {
  ReportMessage m;
  m.grid_index = 3;
  m.payload = uint64_t{42};
  const auto decoded = DecodeReportBatch(EncodeReportBatch({m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, std::vector<ReportMessage>{m});
}

TEST(WireReportTest, OlhRoundTrip) {
  // Per-user OLH ships its seed.
  ReportMessage m;
  m.grid_index = 9;
  m.payload = fo::OlhReport{.seed = 0xdeadbeef, .hashed_report = 2};
  const auto decoded = DecodeReportBatch(EncodeReportBatch({m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, std::vector<ReportMessage>{m});

  // Pooled OLH ships its pool index instead: the seed is the pool's
  // PoolSeed(index), which the server derives itself, so it decodes as 0.
  ReportMessage pooled;
  pooled.grid_index = 9;
  pooled.payload =
      fo::OlhReport{.seed = 0xdeadbeef, .hashed_report = 2, .seed_index = 17};
  const auto decoded_pooled = DecodeReportBatch(EncodeReportBatch({pooled}));
  ASSERT_TRUE(decoded_pooled.has_value());
  ReportMessage expected = pooled;
  std::get<fo::OlhReport>(expected.payload).seed = 0;
  EXPECT_EQ(*decoded_pooled, std::vector<ReportMessage>{expected});
}

TEST(WireReportTest, OueRoundTrip) {
  ReportMessage m;
  m.grid_index = 0;
  m.payload = std::vector<uint8_t>{1, 0, 0, 1, 1, 0};
  const auto decoded = DecodeReportBatch(EncodeReportBatch({m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, std::vector<ReportMessage>{m});
}

// Zero-length reads must not reach memcpy: an empty vector's data() may
// be null, which UBSan flags even for a zero-byte copy.
TEST(WireReaderTest, ZeroByteReadIntoAnEmptyVectorSucceeds) {
  const std::vector<uint8_t> input = {7};
  Reader reader(input);
  std::vector<uint8_t> empty;
  EXPECT_TRUE(reader.GetBytes(empty.data(), 0));
  EXPECT_EQ(reader.remaining(), 1u);

  const std::vector<uint8_t> no_input;
  Reader at_end(no_input);
  EXPECT_TRUE(at_end.GetBytes(empty.data(), 0));
  EXPECT_FALSE(at_end.GetBytes(empty.data(), 1));
}

TEST(WireReportTest, EmptyOueBitVectorRoundTrips) {
  ReportMessage m;
  m.grid_index = 2;
  m.payload = std::vector<uint8_t>{};
  const auto decoded = DecodeReportBatch(EncodeReportBatch({m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, std::vector<ReportMessage>{m});
}

TEST(WireReportTest, PgrRoundTrip) {
  ReportMessage m;
  m.grid_index = 5;
  m.payload = uint32_t{0xbeef};
  const auto decoded = DecodeReportBatch(EncodeReportBatch({m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, std::vector<ReportMessage>{m});
}

TEST(WireReportTest, FldpRoundTrip) {
  ReportMessage m;
  m.grid_index = 2;
  m.payload = fo::FldpReport{.subset_index = 321,
                              .bits = {1, 0, 1, 1, 0, 0, 0, 1}};
  const auto decoded = DecodeReportBatch(EncodeReportBatch({m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, std::vector<ReportMessage>{m});
}

TEST(WireReportTest, NewShapesRejectTruncationAndBitFlips) {
  for (const fo::ReportPayload& payload :
       {fo::ReportPayload(uint32_t{77}),
        fo::ReportPayload(fo::FldpReport{.subset_index = 13,
                                         .bits = {0, 1, 1, 0}})}) {
    ReportMessage m;
    m.grid_index = 11;
    m.payload = payload;
    const fo::Protocol protocol = m.protocol();
    const std::vector<uint8_t> encoded = EncodeReportBatch({m});
    const test_support::ScopedAllocationCap cap(encoded.size());
    for (size_t len = 0; len < encoded.size(); ++len) {
      const std::vector<uint8_t> truncated(encoded.begin(),
                                           encoded.begin() + len);
      EXPECT_FALSE(DecodeReportBatch(truncated).has_value())
          << "protocol " << static_cast<int>(protocol) << " len " << len;
    }
    for (size_t i = 0; i < encoded.size(); ++i) {
      std::vector<uint8_t> corrupted = encoded;
      corrupted[i] ^= 0x40;
      EXPECT_FALSE(DecodeReportBatch(corrupted).has_value())
          << "protocol " << static_cast<int>(protocol) << " byte " << i;
    }
  }
}

// Bits travel packed, so a bit vector carries no byte but 0 or 1: the
// encoder writes any nonzero byte as 1. What a frame can still carry
// beyond the vector is a set pad bit past its length, and the decoder
// rejects it.
void ExpectPadBitRejected(const fo::ReportPayload& payload,
                          const std::vector<uint8_t>& decoded_bits) {
  ReportMessage m;
  m.payload = payload;
  std::vector<uint8_t> frame = EncodeReportBatch({m});
  const auto decoded = DecodeReportBatch(frame);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  const fo::ReportPayload& got = (*decoded)[0].payload;
  EXPECT_EQ(std::holds_alternative<fo::FldpReport>(got)
                ? std::get<fo::FldpReport>(got).bits
                : std::get<std::vector<uint8_t>>(got),
            decoded_bits);
  // The packed bits are the record's last byte, just before the trailer;
  // three bits are used, so bit 3 is padding.
  frame[frame.size() - 9] |= 0x08;
  const uint64_t checksum =
      XxHash64Bytes(frame.data(), frame.size() - 8, kChecksumSalt);
  std::memcpy(frame.data() + frame.size() - 8, &checksum, sizeof(checksum));
  EXPECT_FALSE(DecodeReportBatch(frame).has_value());
}

TEST(WireReportTest, RejectsNonBinaryFldpBits) {
  ExpectPadBitRejected(fo::FldpReport{.subset_index = 1, .bits = {1, 2, 0}},
                       {1, 1, 0});
}

TEST(WireReportTest, RejectsNonBinaryOueBits) {
  ExpectPadBitRejected(std::vector<uint8_t>{1, 2, 0}, {1, 1, 0});
}

TEST(WireReportTest, EmptyBufferFails) {
  EXPECT_FALSE(DecodeReportBatch({}).has_value());
}

TEST(WireBatchTest, RoundTripsMixedProtocols) {
  std::vector<ReportMessage> batch(5);
  batch[0].payload = uint64_t{5};
  batch[1].payload = fo::OlhReport{.seed = 77, .hashed_report = 1};
  batch[2].payload = std::vector<uint8_t>{0, 1};
  batch[3].payload = uint32_t{9};
  batch[4].payload = fo::FldpReport{.subset_index = 4, .bits = {1, 1, 0}};
  const auto decoded = DecodeReportBatch(EncodeReportBatch(batch));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ((*decoded)[i], batch[i]);
  }
}

TEST(WireBatchTest, EmptyBatchAllowed) {
  const auto decoded = DecodeReportBatch(EncodeReportBatch({}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(WireBatchTest, CorruptedCountFails) {
  std::vector<ReportMessage> batch(2);
  std::vector<uint8_t> encoded = EncodeReportBatch(batch);
  encoded[6] = 200;  // claim 200 reports
  const test_support::ScopedAllocationCap cap(encoded.size());
  EXPECT_FALSE(DecodeReportBatch(encoded).has_value());
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  return hex;
}

// One pinned report frame: a registry client perturbs `value` with
// Rng(seed), and the encoded frame must be exactly `hex`.
struct GoldenReport {
  const char* name;
  fo::Protocol protocol;
  fo::ProtocolOptions options;
  double epsilon;
  uint64_t domain;
  uint64_t value;
  uint64_t seed;
  const char* hex;
};

fo::ProtocolOptions PooledOlh() {
  fo::ProtocolOptions options;
  options.olh.seed_pool_size = 64;
  return options;
}

fo::ProtocolOptions SmallFldpPool() {
  fo::ProtocolOptions options;
  options.fldp.subset_pool_size = 16;
  return options;
}

// What decoding `m` gives back: itself, except that a pooled OLH seed
// does not travel and decodes as 0.
ReportMessage AsDecoded(ReportMessage m) {
  if (auto* olh = std::get_if<fo::OlhReport>(&m.payload);
      olh != nullptr && olh->seed_index != fo::OlhReport::kNoPool) {
    olh->seed = 0;
  }
  return m;
}

TEST(WireFormatStabilityTest, GoldenBytesForGrrReport) {
  // Wire-format regression guard: these exact bytes are the grid-run
  // report frame, one row per protocol shape. If this test breaks, add a
  // new frame kind instead of silently changing the encoding under
  // deployed clients. Rows are built through the registry's report
  // clients, so they also pin each client's rng trajectory. Each row is a
  // one-record batch: magic "FELP" LE, version 1, kind 10, run count 1
  // LE, then the run header (grid index LE, protocol byte, report count
  // LE, OLH's pooled byte, one width byte per field, the OUE/FLDP bit
  // length LE), the record (fields LE in their widths, bits packed
  // LSB-first), then the 8-byte xxHash64 trailer.
  const GoldenReport rows[] = {
      {"grr", fo::Protocol::kGrr, {}, 1.0, 1000000, 123456, 1,
       "504c4546" "010a" "01000000"
       "04030201" "00" "01000000" "04"
       "60660b00" "2a6a5c35752cd29c"},
      {"olh_pooled", fo::Protocol::kOlh, PooledOlh(), 1.0, 64, 5, 2,
       "504c4546" "010a" "01000000"
       "04030201" "01" "01000000" "01" "01" "01"
       "30" "01" "32b2326e6c76fd56"},
      {"olh_per_user", fo::Protocol::kOlh, {}, 1.0, 64, 5, 3,
       "504c4546" "010a" "01000000"
       "04030201" "01" "01000000" "00" "08" "01"
       "296919b991eb2b0d" "03" "bb3ebd257d25cd1b"},
      {"oue", fo::Protocol::kOue, {}, 1.0, 12, 7, 4,
       "504c4546" "010a" "01000000"
       "04030201" "02" "01000000" "0c000000"
       "1406" "25f5697c0f6619e0"},
      {"pgr", fo::Protocol::kPgr, {}, 1.0, 100, 42, 5,
       "504c4546" "010a" "01000000"
       "04030201" "03" "01000000" "01"
       "03" "f4cacd9c1eaf5be5"},
      {"fldp", fo::Protocol::kFldp, SmallFldpPool(), 1.0, 50, 9, 6,
       "504c4546" "010a" "01000000"
       "04030201" "04" "01000000" "01" "08000000"
       "0b" "a4" "7c209fbf3dad135e"},
  };
  for (const GoldenReport& row : rows) {
    SCOPED_TRACE(row.name);
    const std::unique_ptr<fo::ReportClient> client = fo::MakeReportClient(
        row.protocol, row.epsilon, row.domain, row.options);
    Rng rng(row.seed);
    // The grid goes on after the payload: Perturb() returns grid 0.
    ReportMessage m = client->Perturb(row.value, rng);
    m.grid_index = 0x01020304;
    const std::vector<uint8_t> encoded = EncodeReportBatch({m});
    EXPECT_EQ(Hex(encoded), row.hex);
    EXPECT_EQ(encoded.capacity(), encoded.size());
    const auto decoded = DecodeReportBatch(encoded);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, std::vector<ReportMessage>{AsDecoded(m)});
    EXPECT_EQ(EncodeReportBatch(*decoded), encoded);
  }
}

TEST(WireFormatStabilityTest, GoldenBytesForReportBatch) {
  // The batch frame every device ships, pinned like the one-record rows
  // above: one record of every payload shape, an empty OUE bit vector
  // included, grouped by grid as the device loop emits them. The frame
  // holds one run per grid in batch order: grid 1's two GRR reports share
  // a run whose value width (4) fits 123456.
  const auto report = [](uint32_t grid_index, fo::ReportPayload payload) {
    ReportMessage m;
    m.payload = std::move(payload);
    m.grid_index = grid_index;
    return m;
  };
  const std::vector<ReportMessage> batch = {
      report(1, uint64_t{123456}),
      report(1, uint64_t{7}),
      report(2, fo::OlhReport{0x0123456789abcdefull, 17, 5}),
      report(3, fo::OlhReport{0xfedcba9876543210ull, 3,
                              fo::OlhReport::kNoPool}),
      report(4, std::vector<uint8_t>{0, 1, 1, 0, 1}),
      report(5, std::vector<uint8_t>{}),
      report(6, uint32_t{42}),
      report(0x01020304, fo::FldpReport{11, {1, 0, 0, 1}}),
  };
  const std::string hex =
      "504c4546" "010a" "07000000"
      "01000000" "00" "02000000" "04" "40e20100" "07000000"
      "02000000" "01" "01000000" "01" "01" "01" "05" "11"
      "03000000" "01" "01000000" "00" "08" "01" "1032547698badcfe" "03"
      "04000000" "02" "01000000" "05000000" "16"
      "05000000" "02" "01000000" "00000000" "00"
      "06000000" "03" "01000000" "01" "2a"
      "04030201" "04" "01000000" "01" "04000000" "0b" "09"
      "ddcf85ef412e5b6d";
  const std::vector<uint8_t> encoded = EncodeReportBatch(batch);
  EXPECT_EQ(Hex(encoded), hex);
  // The frame is sized once, checksum trailer included.
  EXPECT_EQ(encoded.capacity(), encoded.size());
  std::vector<ReportMessage> expected;
  for (const ReportMessage& m : batch) expected.push_back(AsDecoded(m));
  const auto decoded = DecodeReportBatch(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, expected);
  EXPECT_EQ(EncodeReportBatch(*decoded), encoded);
}

TEST(WireFormatStabilityTest, GoldenBytesForTwoGridRuns) {
  // A two-grid batch grouped by grid: two GRR reports of grid 2 and three
  // pooled OLH reports of grid 9. In ascending grid order, the order the
  // device loop emits, it frames as `hex`, the bytes the encoder wrote
  // when it still sorted every batch by grid. The encoder frames runs in
  // batch order, so in descending order the frame holds the same two run
  // sections, swapped, under its own checksum.
  const auto report = [](uint32_t grid_index, fo::ReportPayload payload) {
    ReportMessage m;
    m.payload = std::move(payload);
    m.grid_index = grid_index;
    return m;
  };
  const std::vector<ReportMessage> grid2 = {report(2, uint64_t{3}),
                                            report(2, uint64_t{300})};
  const std::vector<ReportMessage> grid9 = {
      report(9, fo::OlhReport{0, 1, 7}), report(9, fo::OlhReport{0, 2, 8}),
      report(9, fo::OlhReport{0, 0, 70000})};
  const std::string run2 = "02000000" "00" "02000000" "02" "0300" "2c01";
  const std::string run9 =
      "09000000" "01" "03000000" "01" "04" "01"
      "07000000" "01" "08000000" "02" "70110100" "00";
  const std::string hex = "504c4546" "010a" "02000000" + run2 + run9 +
                          "4daf07c55ab5bacf";
  std::vector<ReportMessage> ascending = grid2;
  ascending.insert(ascending.end(), grid9.begin(), grid9.end());
  EXPECT_EQ(Hex(EncodeReportBatch(ascending)), hex);

  std::vector<ReportMessage> descending = grid9;
  descending.insert(descending.end(), grid2.begin(), grid2.end());
  const std::vector<uint8_t> frame = EncodeReportBatch(descending);
  const std::string swapped = "504c4546" "010a" "02000000" + run9 + run2;
  EXPECT_EQ(Hex(frame).substr(0, swapped.size()), swapped);
  EXPECT_EQ(frame.size() * 2, swapped.size() + 16);
  const auto decoded = DecodeReportBatch(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, descending);
}

TEST(WireFuzzTest, RandomBuffersNeverDecode) {
  // Random bytes must be rejected (the checksum makes accidental
  // acceptance a ~2^-64 event), and must never crash.
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> buffer(rng.UniformU64(200));
    for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.UniformU64(256));
    EXPECT_FALSE(DecodeReportBatch(buffer).has_value());
    EXPECT_FALSE(DecodeQueryBatch(buffer).has_value());
  }
}

TEST(WireFuzzTest, ValidPrefixWithGarbageTailFails) {
  ReportMessage m;
  m.payload = uint64_t{1};
  std::vector<uint8_t> buffer = EncodeReportBatch({m});
  buffer.push_back(0xab);
  EXPECT_FALSE(DecodeReportBatch(buffer).has_value());
}

TEST(WireDeviceIntegrationTest, DeviceSideRoundTripEstimates) {
  // Full device-side flow: devices take their grid config from the
  // planned pipeline, project with FelipClient, perturb with the named
  // protocol, and ship reports over the wire; the aggregator feeds a
  // matching server and the estimate tracks the truth.
  const data::Dataset ds = data::MakeNormal(30000, 2, 0, 32, 2, 7);
  core::FelipConfig config;
  config.epsilon = 2.0;
  config.allow_grr = false;  // force OLH so the wire OLH path is exercised
  const core::FelipPipeline pipeline(ds.attributes(), ds.num_rows(), config);

  // Pick the 1-D grid of attribute 0 (assignment order: 1-D grids first).
  const uint32_t grid_index = 0;
  ASSERT_FALSE(pipeline.assignments()[grid_index].is_2d);
  // Device side.
  const GridConfigMessage device_config =
      MakeGridConfig(pipeline, ds.attributes(), grid_index, config.epsilon,
                     config.protocol_options());
  ASSERT_EQ(device_config.protocol, fo::Protocol::kOlh);
  core::GridAssignment assignment;
  assignment.is_2d = device_config.is_2d;
  assignment.attr_x = device_config.attr_x;
  assignment.plan.lx = device_config.lx;
  assignment.plan.ly = device_config.ly;
  const core::FelipClient device(assignment, device_config.domain_x,
                                 device_config.domain_y);
  fo::OlhOptions olh_options;
  olh_options.seed_pool_size = device_config.seed_pool_size;
  olh_options.pool_salt = device_config.pool_salt;
  const fo::OlhClient olh_client(device_config.epsilon,
                                 device.cell_domain(), olh_options);

  Rng rng(8);
  std::vector<ReportMessage> batch;
  for (uint64_t row = 0; row < ds.num_rows(); ++row) {
    ReportMessage report;
    report.grid_index = device_config.grid_index;
    report.payload =
        olh_client.Perturb(device.ProjectToCell(ds.Value(row, 0)), rng);
    batch.push_back(report);
  }

  // Aggregator side.
  const auto received = DecodeReportBatch(EncodeReportBatch(batch));
  ASSERT_TRUE(received.has_value());
  fo::OlhServer server(device_config.epsilon, device.cell_domain(),
                       olh_options);
  for (const ReportMessage& r : *received) {
    server.Add(std::get<fo::OlhReport>(r.payload));
  }
  const std::vector<double> est = server.EstimateFrequencies();

  // Compare to the exact cell histogram.
  std::vector<double> truth(device.cell_domain(), 0.0);
  for (const uint32_t v : ds.Column(0)) {
    truth[device.ProjectToCell(v)] += 1.0;
  }
  for (double& t : truth) t /= static_cast<double>(ds.num_rows());
  for (size_t c = 0; c < truth.size(); ++c) {
    EXPECT_NEAR(est[c], truth[c], 0.05) << "cell " << c;
  }
}

TEST(WireIntegrationTest, ConfigFromPipelinePlan) {
  const data::Dataset ds = data::MakeUniform(5000, 2, 1, 50, 4, 1);
  core::FelipConfig config;
  config.epsilon = 1.0;
  const core::FelipPipeline pipeline(ds.attributes(), ds.num_rows(), config);
  for (uint32_t g = 0; g < pipeline.assignments().size(); ++g) {
    const GridConfigMessage m = MakeGridConfig(
        pipeline, ds.attributes(), g, config.epsilon, config.protocol_options());
    EXPECT_EQ(m.grid_index, g);
    EXPECT_GE(m.lx, 1u);
    EXPECT_GE(m.ly, 1u);
    EXPECT_LE(m.lx, m.domain_x);
    EXPECT_LE(m.ly, m.domain_y);
    EXPECT_GT(m.epsilon, 0.0);
  }
}

}  // namespace
}  // namespace felip::wire
