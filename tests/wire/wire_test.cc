#include "felip/wire/wire.h"

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/data/synthetic.h"
#include "felip/wire/framing.h"
#include "support/alloc_cap.h"

namespace felip::wire {
namespace {

GridConfigMessage SampleConfig() {
  GridConfigMessage m;
  m.grid_index = 7;
  m.is_2d = true;
  m.attr_x = 1;
  m.attr_y = 4;
  m.domain_x = 100;
  m.domain_y = 8;
  m.lx = 13;
  m.ly = 8;
  m.protocol = fo::Protocol::kOlh;
  m.epsilon = 1.25;
  m.seed_pool_size = 4096;
  m.pool_salt = 0x1234;
  return m;
}

TEST(WireGridConfigTest, RoundTrips) {
  const GridConfigMessage original = SampleConfig();
  const std::vector<uint8_t> encoded = EncodeGridConfig(original);
  const auto decoded = DecodeGridConfig(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(WireGridConfigTest, DetectsBitFlips) {
  const std::vector<uint8_t> encoded = EncodeGridConfig(SampleConfig());
  const test_support::ScopedAllocationCap cap(encoded.size());
  // Flip every byte in turn; every corruption must be caught.
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::vector<uint8_t> corrupted = encoded;
    corrupted[i] ^= 0x40;
    EXPECT_FALSE(DecodeGridConfig(corrupted).has_value())
        << "byte " << i << " flip went undetected";
  }
}

TEST(WireGridConfigTest, DetectsTruncation) {
  const std::vector<uint8_t> encoded = EncodeGridConfig(SampleConfig());
  const test_support::ScopedAllocationCap cap(encoded.size());
  for (size_t len = 0; len < encoded.size(); ++len) {
    const std::vector<uint8_t> truncated(encoded.begin(),
                                         encoded.begin() + len);
    EXPECT_FALSE(DecodeGridConfig(truncated).has_value()) << "len " << len;
  }
}

TEST(WireGridConfigTest, RejectsInfeasibleLayout) {
  GridConfigMessage bad = SampleConfig();
  bad.lx = 1000;  // more cells than the domain
  EXPECT_FALSE(DecodeGridConfig(EncodeGridConfig(bad)).has_value());
  GridConfigMessage zero = SampleConfig();
  zero.domain_x = 0;
  EXPECT_FALSE(DecodeGridConfig(EncodeGridConfig(zero)).has_value());
  GridConfigMessage eps = SampleConfig();
  eps.epsilon = -1.0;
  EXPECT_FALSE(DecodeGridConfig(EncodeGridConfig(eps)).has_value());
}

TEST(WireGridConfigTest, FldpFieldsRoundTrip) {
  GridConfigMessage m = SampleConfig();
  m.protocol = fo::Protocol::kFldp;
  m.fldp_report_bits = 12;
  m.fldp_pool_size = 512;
  m.fldp_salt = 0xabcdef0123456789ULL;
  const auto decoded = DecodeGridConfig(EncodeGridConfig(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, m);
}

TEST(WireGridConfigTest, RejectsInfeasibleFldpOptions) {
  GridConfigMessage no_bits = SampleConfig();
  no_bits.protocol = fo::Protocol::kFldp;
  no_bits.fldp_report_bits = 0;
  no_bits.fldp_pool_size = 512;
  EXPECT_FALSE(DecodeGridConfig(EncodeGridConfig(no_bits)).has_value());
  GridConfigMessage no_pool = SampleConfig();
  no_pool.protocol = fo::Protocol::kFldp;
  no_pool.fldp_report_bits = 8;
  no_pool.fldp_pool_size = 0;
  EXPECT_FALSE(DecodeGridConfig(EncodeGridConfig(no_pool)).has_value());
}

TEST(WireGridConfigTest, RejectsInfeasiblePgrConfig) {
  // Feasible control: PGR on the sample grid (13x8 cells, eps 1.25).
  GridConfigMessage ok = SampleConfig();
  ok.protocol = fo::Protocol::kPgr;
  EXPECT_TRUE(DecodeGridConfig(EncodeGridConfig(ok)).has_value());
  // Field order past the 2^16 cap (the cast behind PgrParams::Make would
  // be UB at this epsilon): reject at the wire boundary.
  GridConfigMessage hot = SampleConfig();
  hot.protocol = fo::Protocol::kPgr;
  hot.epsilon = 30.0;
  EXPECT_FALSE(DecodeGridConfig(EncodeGridConfig(hot)).has_value());
  // Cell domain past the uint32 point-index cap.
  GridConfigMessage wide = SampleConfig();
  wide.protocol = fo::Protocol::kPgr;
  wide.domain_x = 4000000000ull;
  wide.lx = 4000000000u;
  wide.domain_y = 2;
  wide.ly = 2;
  EXPECT_FALSE(DecodeGridConfig(EncodeGridConfig(wide)).has_value());
}

TEST(WireGridConfigTest, RejectsOversizedFldpCellDomain) {
  // FLDP bucket indices are uint32; lx*ly past that must not decode.
  GridConfigMessage wide = SampleConfig();
  wide.protocol = fo::Protocol::kFldp;
  wide.fldp_report_bits = 8;
  wide.fldp_pool_size = 512;
  wide.domain_x = 4000000000ull;
  wide.lx = 4000000000u;
  wide.domain_y = 2;
  wide.ly = 2;
  EXPECT_FALSE(DecodeGridConfig(EncodeGridConfig(wide)).has_value());
}

TEST(WireGridConfigTest, RejectsUnknownProtocolByte) {
  GridConfigMessage m = SampleConfig();
  m.protocol = static_cast<fo::Protocol>(99);
  EXPECT_FALSE(DecodeGridConfig(EncodeGridConfig(m)).has_value());
}

// The registry's report_bytes hook promises the wire-body size of one
// report, which is what budget-aware AFO scores against. The framing
// around the body (magic, version, kind, grid index, protocol byte,
// checksum, and the count of the one-record batch) is protocol-independent,
// so pin the hook by subtracting the fixed overhead measured on GRR (whose
// body is exactly 8 bytes).
TEST(WireReportTest, RegistryReportBytesMatchCodecBodySize) {
  const fo::ProtocolOptions options;
  constexpr uint64_t kDomain = 6;
  const auto encoded_size = [&](fo::Protocol protocol) -> uint64_t {
    const std::unique_ptr<fo::ReportClient> client =
        fo::MakeReportClient(protocol, 1.0, kDomain, options);
    Rng rng(1);
    ReportMessage m;
    static_cast<fo::ReportData&>(m) = client->Perturb(3, rng);
    m.grid_index = 0;
    return EncodeReportBatch({m}).size();
  };
  const uint64_t fixed_overhead =
      encoded_size(fo::Protocol::kGrr) -
      fo::GetTraits(fo::Protocol::kGrr).report_bytes(1.0, kDomain, options);
  ASSERT_GT(fixed_overhead, 0u);
  for (const fo::ProtocolTraits& traits : fo::AllProtocolTraits()) {
    EXPECT_EQ(encoded_size(traits.protocol) - fixed_overhead,
              traits.report_bytes(1.0, kDomain, options))
        << "protocol " << static_cast<int>(traits.protocol);
  }
}

TEST(WireGridConfigTest, RejectsWrongKind) {
  EXPECT_FALSE(
      DecodeGridConfig(EncodeReportBatch({ReportMessage{}})).has_value());
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
  ReportMessage m;
  m.grid_index = 9;
  m.payload =
      fo::OlhReport{.seed = 0xdeadbeef, .hashed_report = 2, .seed_index = 17};
  const auto decoded = DecodeReportBatch(EncodeReportBatch({m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, std::vector<ReportMessage>{m});
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

TEST(WireReportTest, RejectsNonBinaryFldpBits) {
  ReportMessage m;
  m.payload = fo::FldpReport{.subset_index = 1, .bits = {1, 2, 0}};
  EXPECT_FALSE(DecodeReportBatch(EncodeReportBatch({m})).has_value());
}

TEST(WireReportTest, RejectsNonBinaryOueBits) {
  ReportMessage m;
  m.payload = std::vector<uint8_t>{1, 2, 0};
  // The encoder writes whatever it is given; the decoder must reject it.
  EXPECT_FALSE(DecodeReportBatch(EncodeReportBatch({m})).has_value());
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

TEST(WireFormatStabilityTest, GoldenBytesForGrrReport) {
  // Wire-format regression guard: these exact bytes are version 1 of the
  // format, one row per protocol shape. If this test breaks, bump
  // kVersion instead of silently changing the encoding under deployed
  // clients. Rows are built through the registry's report clients, so
  // they also pin each client's rng trajectory. Each row is a one-record
  // report batch: magic "FELP" LE, version 1, kind 3, report count 1 LE,
  // then the record (grid index LE, protocol byte, payload LE), then the
  // 8-byte xxHash64 trailer. The record bytes are the ones the retired
  // single-report frame (kind 2) carried.
  const GoldenReport rows[] = {
      {"grr", fo::Protocol::kGrr, {}, 1.0, 1000000, 123456, 1,
       "504c4546" "0103" "01000000"
       "04030201" "00"
       "60660b0000000000" "fa847aadc105c6d3"},
      {"olh_pooled", fo::Protocol::kOlh, PooledOlh(), 1.0, 64, 5, 2,
       "504c4546" "0103" "01000000"
       "04030201" "01"
       "b23c12e56f2fd6340100000030000000" "04ea89e6b7e17fef"},
      {"olh_per_user", fo::Protocol::kOlh, {}, 1.0, 64, 5, 3,
       "504c4546" "0103" "01000000"
       "04030201" "01"
       "296919b991eb2b0d03000000ffffffff" "c8dc8f3f2d108c53"},
      {"oue", fo::Protocol::kOue, {}, 1.0, 12, 7, 4,
       "504c4546" "0103" "01000000"
       "04030201" "02"
       "0c000000000001000100000000010100" "dcc586001a777a7b"},
      {"pgr", fo::Protocol::kPgr, {}, 1.0, 100, 42, 5,
       "504c4546" "0103" "01000000"
       "04030201" "03"
       "03000000" "21efb888cb8d8dbe"},
      {"fldp", fo::Protocol::kFldp, SmallFldpPool(), 1.0, 50, 9, 6,
       "504c4546" "0103" "01000000"
       "04030201" "04"
       "0b000000080000000000010000010001" "a0f98b9a5b1797ee"},
  };
  for (const GoldenReport& row : rows) {
    SCOPED_TRACE(row.name);
    const std::unique_ptr<fo::ReportClient> client = fo::MakeReportClient(
        row.protocol, row.epsilon, row.domain, row.options);
    Rng rng(row.seed);
    ReportMessage m;
    static_cast<fo::ReportData&>(m) = client->Perturb(row.value, rng);
    m.grid_index = 0x01020304;
    const std::vector<uint8_t> encoded = EncodeReportBatch({m});
    EXPECT_EQ(Hex(encoded), row.hex);
    EXPECT_EQ(encoded.capacity(), encoded.size());
    const auto decoded = DecodeReportBatch(encoded);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, std::vector<ReportMessage>{m});
    EXPECT_EQ(EncodeReportBatch(*decoded), encoded);
  }
}

TEST(WireFormatStabilityTest, GoldenBytesForReportBatch) {
  // The batch frame every device ships, pinned like the single-report
  // rows above: one record of every payload shape, an empty OUE bit
  // vector included. Frame layout: magic "FELP" LE, version 1, kind 3,
  // report count LE, then each record as in a kind-2 frame (grid index
  // LE, protocol byte, payload LE), then the 8-byte xxHash64 trailer.
  const auto report = [](uint32_t grid_index, fo::ReportPayload payload) {
    ReportMessage m;
    m.payload = std::move(payload);
    m.grid_index = grid_index;
    return m;
  };
  const std::vector<ReportMessage> batch = {
      report(1, uint64_t{123456}),
      report(2, fo::OlhReport{0x0123456789abcdefull, 17, 5}),
      report(3, fo::OlhReport{0xfedcba9876543210ull, 3,
                              fo::OlhReport::kNoPool}),
      report(4, std::vector<uint8_t>{0, 1, 1, 0, 1}),
      report(5, std::vector<uint8_t>{}),
      report(6, uint32_t{42}),
      report(0x01020304, fo::FldpReport{11, {1, 0, 0, 1}}),
  };
  const std::string hex =
      "504c4546" "0103" "07000000"
      "01000000" "00" "40e2010000000000"
      "02000000" "01" "efcdab8967452301" "11000000" "05000000"
      "03000000" "01" "1032547698badcfe" "03000000" "ffffffff"
      "04000000" "02" "05000000" "0001010001"
      "05000000" "02" "00000000"
      "06000000" "03" "2a000000"
      "04030201" "04" "0b000000" "04000000" "01000001"
      "5cc229a0e1d3a9b9";
  const std::vector<uint8_t> encoded = EncodeReportBatch(batch);
  EXPECT_EQ(Hex(encoded), hex);
  // The frame is sized once, checksum trailer included.
  EXPECT_EQ(encoded.capacity(), encoded.size());
  const auto decoded = DecodeReportBatch(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, batch);
  EXPECT_EQ(EncodeReportBatch(*decoded), encoded);
}

TEST(WireFuzzTest, RandomBuffersNeverDecode) {
  // Random bytes must be rejected (the checksum makes accidental
  // acceptance a ~2^-64 event), and must never crash.
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> buffer(rng.UniformU64(200));
    for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.UniformU64(256));
    EXPECT_FALSE(DecodeGridConfig(buffer).has_value());
    EXPECT_FALSE(DecodeReportBatch(buffer).has_value());
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
  // Full device-side flow: the aggregator publishes a grid config over the
  // wire; devices decode it, project with FelipClient, perturb with the
  // named protocol, and ship reports back over the wire; the aggregator
  // feeds a matching server and the estimate tracks the truth.
  const data::Dataset ds = data::MakeNormal(30000, 2, 0, 32, 2, 7);
  core::FelipConfig config;
  config.epsilon = 2.0;
  config.allow_grr = false;  // force OLH so the wire OLH path is exercised
  const core::FelipPipeline pipeline(ds.attributes(), ds.num_rows(), config);

  // Pick the 1-D grid of attribute 0 (assignment order: 1-D grids first).
  const uint32_t grid_index = 0;
  ASSERT_FALSE(pipeline.assignments()[grid_index].is_2d);
  const std::vector<uint8_t> config_wire =
      EncodeGridConfig(MakeGridConfig(pipeline, ds.attributes(), grid_index,
                                      config.epsilon, config.protocol_options()));

  // Device side.
  const auto device_config = DecodeGridConfig(config_wire);
  ASSERT_TRUE(device_config.has_value());
  ASSERT_EQ(device_config->protocol, fo::Protocol::kOlh);
  core::GridAssignment assignment;
  assignment.is_2d = device_config->is_2d;
  assignment.attr_x = device_config->attr_x;
  assignment.plan.lx = device_config->lx;
  assignment.plan.ly = device_config->ly;
  const core::FelipClient device(assignment, device_config->domain_x,
                                 device_config->domain_y);
  fo::OlhOptions olh_options;
  olh_options.seed_pool_size = device_config->seed_pool_size;
  olh_options.pool_salt = device_config->pool_salt;
  const fo::OlhClient olh_client(device_config->epsilon,
                                 device.cell_domain(), olh_options);

  Rng rng(8);
  std::vector<ReportMessage> batch;
  for (uint64_t row = 0; row < ds.num_rows(); ++row) {
    ReportMessage report;
    report.grid_index = device_config->grid_index;
    report.payload =
        olh_client.Perturb(device.ProjectToCell(ds.Value(row, 0)), rng);
    batch.push_back(report);
  }

  // Aggregator side.
  const auto received = DecodeReportBatch(EncodeReportBatch(batch));
  ASSERT_TRUE(received.has_value());
  fo::OlhServer server(device_config->epsilon, device.cell_domain(),
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
    const auto decoded = DecodeGridConfig(EncodeGridConfig(m));
    ASSERT_TRUE(decoded.has_value()) << "grid " << g;
    EXPECT_EQ(decoded->grid_index, g);
    EXPECT_LE(decoded->lx, decoded->domain_x);
    EXPECT_LE(decoded->ly, decoded->domain_y);
  }
}

}  // namespace
}  // namespace felip::wire
