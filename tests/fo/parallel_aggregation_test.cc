// Batch aggregation must leave exactly the state an Add() loop leaves: for
// every protocol, one batch handed to AggregateReports in uneven chunks
// (test_support::AggregateUnevenly) is compared with a per-report Add loop,
// field by field in the exported accumulator state (PGR and FLDP run the
// same check in their own suites). Also covers the facade buffer/flush
// path, and a TSan-friendly stress loop on OUE, whose aggregation still
// shards over the host's cores.

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/fo/frequency_oracle.h"
#include "felip/fo/oue.h"
#include "felip/fo/protocol_pair.h"
#include "felip/fo/registry.h"
#include "felip/fo/square_wave.h"
#include "support/uneven_split.h"

namespace felip::fo {
namespace {

constexpr double kEpsilon = 1.2;
constexpr uint64_t kDomain = 32;
// Longer than the uneven chunks, and several 16384-report blocks.
constexpr size_t kNumReports = 50000;

std::vector<uint64_t> TrueValues(uint64_t domain = kDomain) {
  std::vector<uint64_t> values;
  values.reserve(kNumReports);
  for (size_t i = 0; i < kNumReports; ++i) values.push_back((i * 7) % domain);
  return values;
}

// Bitwise equality for double vectors — EXPECT_EQ would accept -0.0 == 0.0
// and reject NaN == NaN; determinism means the bytes match.
void ExpectBitwiseEqual(const std::vector<double>& got,
                        const std::vector<double>& want, const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        want.size() * sizeof(double)),
            0)
      << label;
}

template <Protocol P>
void ExpectUnevenBatchesMatchAddLoop(const ProtocolOptions& options,
                                     uint64_t seed) {
  using Pair = ProtocolPair<P>;
  const auto client = Pair::MakeClient(kEpsilon, kDomain, options);
  Rng rng(seed);
  std::vector<ReportOf<P>> reports;
  for (const uint64_t v : TrueValues()) {
    reports.push_back(client.Perturb(v, rng));
  }

  auto serial = Pair::MakeServer(kEpsilon, kDomain, options);
  for (const auto& r : reports) serial.Add(r);
  auto batched = Pair::MakeServer(kEpsilon, kDomain, options);
  test_support::AggregateUnevenly(batched, reports);

  EXPECT_EQ(batched.num_reports(), serial.num_reports());
  OracleState got;
  OracleState want;
  Pair::Export(batched, &got);
  Pair::Export(serial, &want);
  EXPECT_EQ(got.counts, want.counts);
  EXPECT_EQ(got.pool_counts, want.pool_counts);
  EXPECT_EQ(got.reports, want.reports);
}

TEST(BatchAggregationTest, GrrUnevenBatchesMatchAddLoop) {
  ExpectUnevenBatchesMatchAddLoop<Protocol::kGrr>({}, 101);
}

TEST(BatchAggregationTest, OlhPerUserUnevenBatchesMatchAddLoop) {
  ExpectUnevenBatchesMatchAddLoop<Protocol::kOlh>({}, 102);
}

TEST(BatchAggregationTest, OlhPoolUnevenBatchesMatchAddLoop) {
  ExpectUnevenBatchesMatchAddLoop<Protocol::kOlh>(
      {.olh = {.seed_pool_size = 512}}, 102);
}

TEST(BatchAggregationTest, OueUnevenBatchesMatchAddLoop) {
  ExpectUnevenBatchesMatchAddLoop<Protocol::kOue>({}, 103);
}

TEST(BatchAggregationTest, SquareWaveUnevenBatchesMatchAddLoop) {
  SwClient client(kEpsilon, kDomain);
  Rng rng(105);
  std::vector<double> reports;
  for (const uint64_t v : TrueValues()) {
    reports.push_back(client.Perturb(static_cast<uint32_t>(v), rng));
  }

  SwServer serial(kEpsilon, kDomain);
  for (const double r : reports) serial.Add(r);
  SwServer batched(kEpsilon, kDomain);
  test_support::AggregateUnevenly(batched, reports);

  EXPECT_EQ(batched.num_reports(), serial.num_reports());
  EXPECT_EQ(batched.bucket_counts(), serial.bucket_counts());
}

TEST(ParallelAggregationTest, FacadeBufferFlushMatchesIngest) {
  // The simulation path (buffer + batch flush) and the untrusted network
  // path (report client + IngestReport, one report at a time) must give
  // bit-identical estimates for the same rng trajectory.
  for (const Protocol protocol :
       {Protocol::kGrr, Protocol::kOlh, Protocol::kOue, Protocol::kPgr,
        Protocol::kFldp}) {
    const std::vector<uint64_t> values = TrueValues();
    const auto client = MakeReportClient(protocol, kEpsilon, kDomain, {});
    auto ingested = MakeFrequencyOracle(protocol, kEpsilon, kDomain);
    Rng rng_a(107);
    for (const uint64_t v : values) {
      ASSERT_TRUE(ingested->IngestReport(client->Perturb(v, rng_a)).ok());
    }

    auto buffered = MakeFrequencyOracle(protocol, kEpsilon, kDomain);
    Rng rng_b(107);  // same seed => identical perturbation trajectory
    for (const uint64_t v : values) buffered->BufferUserValue(v, rng_b);
    EXPECT_EQ(buffered->buffered_reports(), values.size());
    buffered->FlushReports();
    EXPECT_EQ(buffered->buffered_reports(), 0u);
    EXPECT_EQ(buffered->num_reports(), values.size());
    ExpectBitwiseEqual(buffered->EstimateFrequencies().value(),
                       ingested->EstimateFrequencies().value(),
                       ProtocolName(protocol).data());
  }
}

TEST(ParallelAggregationTest, EstimateFrequenciesRequiresFlush) {
  auto oracle = MakeFrequencyOracle(Protocol::kGrr, kEpsilon, kDomain);
  Rng rng(108);
  oracle->BufferUserValue(3, rng);
  const StatusOr<std::vector<double>> est = oracle->EstimateFrequencies();
  ASSERT_FALSE(est.ok());
  EXPECT_EQ(est.status().code(), StatusCode::kFailedPrecondition);
  oracle->FlushReports();
  EXPECT_TRUE(oracle->EstimateFrequencies().ok());
}

// Stress for TSan: hammer one OUE server with repeated multi-shard
// batches; any cross-shard write overlap shows up as a race, and the final
// counts must equal a serially built server's.
TEST(ParallelAggregationTest, RepeatedShardedBatchesStress) {
  OueClient client(kEpsilon, kDomain);
  Rng rng(109);
  std::vector<std::vector<uint8_t>> batch;
  for (size_t i = 0; i < 20000; ++i) {
    batch.push_back(client.Perturb(i % kDomain, rng));
  }

  OueServer sharded(kEpsilon, kDomain);
  OueServer serial(kEpsilon, kDomain);
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    sharded.AggregateReports(batch);
    for (const auto& r : batch) serial.Add(r);
  }
  EXPECT_EQ(sharded.num_reports(), batch.size() * kRounds);
  EXPECT_EQ(sharded.counts(), serial.counts());
}

}  // namespace
}  // namespace felip::fo
