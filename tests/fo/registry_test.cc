#include "felip/fo/registry.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/common/status.h"
#include "felip/fo/frequency_oracle.h"
#include "felip/fo/protocol.h"
#include "felip/fo/report.h"

namespace felip::fo {
namespace {

TEST(RegistryTest, EveryProtocolHasATraitsRowAtItsOwnIndex) {
  const std::span<const ProtocolTraits> all = AllProtocolTraits();
  ASSERT_EQ(all.size(), kNumProtocols);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(static_cast<size_t>(all[i].protocol), i);
    EXPECT_EQ(&GetTraits(all[i].protocol), &all[i]);
    EXPECT_FALSE(all[i].name.empty());
    EXPECT_NE(all[i].make_oracle, nullptr);
    EXPECT_NE(all[i].make_client, nullptr);
    EXPECT_NE(all[i].noise_unit, nullptr);
    EXPECT_NE(all[i].noise_unit_derivative, nullptr);
    EXPECT_NE(all[i].variance, nullptr);
    EXPECT_NE(all[i].report_bytes, nullptr);
  }
}

TEST(RegistryTest, KnownProtocolByteMatchesEnumRange) {
  for (size_t i = 0; i < kNumProtocols; ++i) {
    EXPECT_TRUE(KnownProtocolByte(static_cast<uint8_t>(i)));
  }
  EXPECT_FALSE(KnownProtocolByte(static_cast<uint8_t>(kNumProtocols)));
  EXPECT_FALSE(KnownProtocolByte(0xff));
}

TEST(RegistryTest, ProtocolFromNameIsCaseInsensitive) {
  for (const ProtocolTraits& traits : AllProtocolTraits()) {
    const StatusOr<Protocol> lower =
        ProtocolFromName(std::string(traits.name));
    ASSERT_TRUE(lower.ok()) << traits.name;
    EXPECT_EQ(*lower, traits.protocol);
    std::string upper(traits.name);
    for (char& c : upper) c = static_cast<char>(c - 'a' + 'A');
    const StatusOr<Protocol> from_upper = ProtocolFromName(upper);
    ASSERT_TRUE(from_upper.ok()) << upper;
    EXPECT_EQ(*from_upper, traits.protocol);
  }
  EXPECT_EQ(ProtocolFromName("nope").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ProtocolFromName("").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RegistryTest, FactoriesProduceMatchingProtocolObjects) {
  const ProtocolOptions options;
  for (const ProtocolTraits& traits : AllProtocolTraits()) {
    SCOPED_TRACE(std::string(traits.name));
    const std::unique_ptr<FrequencyOracle> oracle =
        MakeFrequencyOracle(traits.protocol, 1.0, 16, options);
    ASSERT_NE(oracle, nullptr);
    EXPECT_EQ(oracle->protocol(), traits.protocol);
    EXPECT_EQ(oracle->domain(), 16u);
    const std::unique_ptr<ReportClient> client =
        MakeReportClient(traits.protocol, 1.0, 16, options);
    ASSERT_NE(client, nullptr);
    EXPECT_EQ(client->protocol(), traits.protocol);
    EXPECT_EQ(client->domain(), 16u);
  }
}

// A registry client's report must ingest cleanly into a registry oracle of
// the same plan — the contract the device simulator and the network sink
// are built on.
TEST(RegistryTest, ClientReportsIngestIntoMatchingOracle) {
  const ProtocolOptions options;
  for (const ProtocolTraits& traits : AllProtocolTraits()) {
    SCOPED_TRACE(std::string(traits.name));
    const std::unique_ptr<FrequencyOracle> oracle =
        MakeFrequencyOracle(traits.protocol, 1.0, 16, options);
    const std::unique_ptr<ReportClient> client =
        MakeReportClient(traits.protocol, 1.0, 16, options);
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
      const ReportData report = client->Perturb(i % 16, rng);
      EXPECT_EQ(report.protocol(), traits.protocol);
      const Status status = oracle->IngestReport(report);
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    EXPECT_EQ(oracle->num_reports(), 200u);
    EXPECT_TRUE(oracle->EstimateFrequencies().ok());
  }
}

// A report of another protocol must be rejected, not aborted on, and
// must leave the oracle untouched — the network path depends on it. Every
// (oracle protocol, report protocol) pair is checked.
TEST(RegistryTest, MismatchedReportTagIsRejected) {
  const ProtocolOptions options;
  for (const ProtocolTraits& oracle_traits : AllProtocolTraits()) {
    const std::unique_ptr<FrequencyOracle> oracle =
        MakeFrequencyOracle(oracle_traits.protocol, 1.0, 16, options);
    const std::unique_ptr<ReportClient> own =
        MakeReportClient(oracle_traits.protocol, 1.0, 16, options);
    Rng rng(4);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(oracle->IngestReport(own->Perturb(i % 16, rng)).ok());
    }
    const OracleState before = oracle->ExportState();
    for (const ProtocolTraits& report_traits : AllProtocolTraits()) {
      if (report_traits.protocol == oracle_traits.protocol) continue;
      SCOPED_TRACE(std::string(report_traits.name) + " report to a " +
                   std::string(oracle_traits.name) + " oracle");
      const std::unique_ptr<ReportClient> client =
          MakeReportClient(report_traits.protocol, 1.0, 16, options);
      EXPECT_EQ(oracle->IngestReport(client->Perturb(5, rng)).code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(oracle->num_reports(), 20u);
      const OracleState after = oracle->ExportState();
      EXPECT_EQ(after.protocol, before.protocol);
      EXPECT_EQ(after.num_reports, before.num_reports);
      EXPECT_EQ(after.counts, before.counts);
      EXPECT_EQ(after.pool_counts, before.pool_counts);
      EXPECT_EQ(after.reports, before.reports);
    }
  }
}

TEST(RegistryTest, VarianceHooksArePositiveAndShrinkWithN) {
  const ProtocolOptions options;
  for (const ProtocolTraits& traits : AllProtocolTraits()) {
    SCOPED_TRACE(std::string(traits.name));
    const double small_n = traits.variance(1.0, 64, 1000, options);
    const double large_n = traits.variance(1.0, 64, 100000, options);
    EXPECT_GT(small_n, 0.0);
    EXPECT_GT(small_n, large_n);
  }
}

TEST(RegistryTest, ReportBytesReflectCommunicationRegimes) {
  const ProtocolOptions options;
  constexpr uint64_t kLargeDomain = 4096;
  const uint64_t grr =
      GetTraits(Protocol::kGrr).report_bytes(1.0, kLargeDomain, options);
  const uint64_t oue =
      GetTraits(Protocol::kOue).report_bytes(1.0, kLargeDomain, options);
  const uint64_t pgr =
      GetTraits(Protocol::kPgr).report_bytes(1.0, kLargeDomain, options);
  const uint64_t fldp =
      GetTraits(Protocol::kFldp).report_bytes(1.0, kLargeDomain, options);
  // OUE pays a byte per domain value; PGR sends one uint32; FLDP sends
  // report_bits bytes plus framing. The budget-aware AFO leans on this
  // ordering for large domains.
  EXPECT_GT(oue, kLargeDomain);
  EXPECT_EQ(pgr, 4u);
  EXPECT_LT(fldp, grr + options.fldp.report_bits + 1);
  EXPECT_LT(pgr, grr);
  EXPECT_LT(fldp, oue);
}

// report_bytes promises to match the wire codec's body framing; the wire
// suite pins that equality against EncodeReport. Here, pin the FLDP
// dependence on options: fewer report bits -> smaller report.
TEST(RegistryTest, FldpReportBytesTrackOptions) {
  ProtocolOptions narrow;
  narrow.fldp.report_bits = 4;
  ProtocolOptions wide;
  wide.fldp.report_bits = 64;
  const ProtocolTraits& traits = GetTraits(Protocol::kFldp);
  EXPECT_LT(traits.report_bytes(1.0, 1000, narrow),
            traits.report_bytes(1.0, 1000, wide));
}

}  // namespace
}  // namespace felip::fo
