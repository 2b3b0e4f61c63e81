#include "felip/fo/fldp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/fo/oue.h"

namespace felip::fo {
namespace {

TEST(FldpSubsetTest, SubsetsAreDistinctInRangeAndDeterministic) {
  constexpr uint64_t kDomain = 100;
  constexpr uint32_t kSize = 8;
  for (uint32_t index = 0; index < 32; ++index) {
    const std::vector<uint32_t> subset =
        FldpSubset(0x1234, index, kDomain, kSize);
    ASSERT_EQ(subset.size(), kSize);
    std::vector<uint32_t> sorted = subset;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i) {
      EXPECT_LT(sorted[i], kDomain);
      if (i > 0) EXPECT_NE(sorted[i], sorted[i - 1]) << "duplicate bucket";
    }
    EXPECT_EQ(subset, FldpSubset(0x1234, index, kDomain, kSize))
        << "subset derivation not deterministic";
  }
  // A different salt yields a different pool (with overwhelming
  // probability over 32 subsets).
  bool any_differ = false;
  for (uint32_t index = 0; index < 32; ++index) {
    any_differ = any_differ || FldpSubset(0x1234, index, kDomain, kSize) !=
                                   FldpSubset(0x9999, index, kDomain, kSize);
  }
  EXPECT_TRUE(any_differ);
}

TEST(FldpSubsetTest, FullDomainSubsetIsIdentity) {
  constexpr uint64_t kDomain = 6;
  const std::vector<uint32_t> subset = FldpSubset(0x77, 3, kDomain, 6);
  ASSERT_EQ(subset.size(), kDomain);
  for (uint32_t v = 0; v < kDomain; ++v) EXPECT_EQ(subset[v], v);
}

TEST(FldpSubsetTest, SubsetSizeClampsToDomain) {
  EXPECT_EQ(FldpSubsetSize(FldpOptions{.report_bits = 8}, 100), 8u);
  EXPECT_EQ(FldpSubsetSize(FldpOptions{.report_bits = 8}, 5), 5u);
  EXPECT_EQ(FldpSubsetSize(FldpOptions{.report_bits = 8}, 8), 8u);
}

TEST(FldpClientTest, ReportShapeMatchesOptions) {
  const FldpOptions options{.report_bits = 8, .subset_pool_size = 64};
  FldpClient client(1.0, 100, options);
  EXPECT_EQ(client.subset_size(), 8u);
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const FldpReport report = client.Perturb(i % 100, rng);
    EXPECT_LT(report.subset_index, options.subset_pool_size);
    ASSERT_EQ(report.bits.size(), 8u);
    for (const uint8_t bit : report.bits) EXPECT_LE(bit, 1);
  }
}

// With s == domain every subset is the identity, so FLDP degenerates to
// OUE exactly: identical support probabilities and an estimator that
// debiases against full coverage.
TEST(FldpClientTest, FullCoverageMatchesOueProbabilities) {
  constexpr uint64_t kDomain = 8;
  const FldpOptions options{.report_bits = 8, .subset_pool_size = 16};
  FldpClient fldp_client(1.0, kDomain, options);
  OueClient oue_client(1.0, kDomain);
  EXPECT_EQ(fldp_client.p(), oue_client.p());
  EXPECT_EQ(fldp_client.q(), oue_client.q());
  EXPECT_EQ(fldp_client.subset_size(), kDomain);
}

std::vector<FldpReport> MakeReports(const FldpClient& client,
                                    uint64_t domain, size_t count,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<FldpReport> reports;
  reports.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    reports.push_back(client.Perturb(i % domain, rng));
  }
  return reports;
}

TEST(FldpServerTest, RestoreStateContinuesBitIdentically) {
  constexpr uint64_t kDomain = 40;
  const FldpOptions options{.report_bits = 8, .subset_pool_size = 64};
  FldpClient client(1.0, kDomain, options);
  const std::vector<FldpReport> reports =
      MakeReports(client, kDomain, 8000, 9);
  FldpServer reference(1.0, kDomain, options);
  for (const FldpReport& r : reports) reference.Add(r);

  FldpServer first_half(1.0, kDomain, options);
  for (size_t i = 0; i < reports.size() / 2; ++i) {
    first_half.Add(reports[i]);
  }
  FldpServer resumed(1.0, kDomain, options);
  resumed.RestoreState(first_half.counts(), first_half.coverage_counts(),
                       first_half.num_reports());
  for (size_t i = reports.size() / 2; i < reports.size(); ++i) {
    resumed.Add(reports[i]);
  }
  EXPECT_EQ(resumed.counts(), reference.counts());
  EXPECT_EQ(resumed.coverage_counts(), reference.coverage_counts());
  const std::vector<double> a = reference.EstimateFrequencies();
  const std::vector<double> b = resumed.EstimateFrequencies();
  for (size_t v = 0; v < a.size(); ++v) EXPECT_EQ(a[v], b[v]);
}

// Bucket indices are uint32; a wider domain would silently truncate the
// rejection-sampled draws, so construction must refuse it outright.
TEST(FldpSubsetDeathTest, RejectsDomainPastUint32) {
  EXPECT_DEATH(FldpSubset(1, 0, 5'000'000'000ull, 8),
               "does not fit uint32");
  EXPECT_DEATH(FldpClient(1.0, 5'000'000'000ull, FldpOptions{}),
               "does not fit uint32");
}

TEST(FldpServerDeathTest, EstimateWithoutReportsAborts) {
  FldpServer server(1.0, 10);
  EXPECT_EQ(server.num_reports(), 0u);
  EXPECT_DEATH(server.EstimateFrequencies(), "no FLDP reports");
}

}  // namespace
}  // namespace felip::fo
