// Determinism tests for the sharded AggregateReports path: for every
// integer-count protocol the estimates must be BITWISE identical whether
// reports are added one by one or aggregated with 1/2/4/8 threads — shard
// boundaries are a function of the report count only and partials fold in
// shard order. Also covers the facade buffer/flush path, the pipeline-level
// aggregation_threads knob, and a TSan-friendly stress loop.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/fo/frequency_oracle.h"
#include "felip/fo/grr.h"
#include "felip/fo/olh.h"
#include "felip/fo/oue.h"
#include "felip/fo/registry.h"
#include "felip/fo/square_wave.h"
#include "felip/query/query.h"
#include "felip/stream/streaming.h"

namespace felip::fo {
namespace {

constexpr double kEpsilon = 1.2;
constexpr uint64_t kDomain = 32;
// Large enough for several shards (shards = count / 4096, capped at 64).
constexpr size_t kNumReports = 50000;
constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

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

TEST(ParallelAggregationTest, GrrBitIdenticalAcrossThreadCounts) {
  GrrClient client(kEpsilon, kDomain);
  Rng rng(101);
  std::vector<uint64_t> reports;
  for (const uint64_t v : TrueValues()) reports.push_back(client.Perturb(v, rng));

  GrrServer serial(kEpsilon, kDomain);
  for (const uint64_t r : reports) serial.Add(r);
  const std::vector<double> want = serial.EstimateFrequencies();

  for (const unsigned threads : kThreadCounts) {
    GrrServer sharded(kEpsilon, kDomain);
    sharded.AggregateReports(reports, threads);
    EXPECT_EQ(sharded.num_reports(), serial.num_reports());
    ExpectBitwiseEqual(sharded.EstimateFrequencies(), want, "GRR");
  }
}

void RunOlhCase(OlhOptions options, const char* label) {
  OlhClient client(kEpsilon, kDomain, options);
  Rng rng(102);
  std::vector<OlhReport> reports;
  for (const uint64_t v : TrueValues()) reports.push_back(client.Perturb(v, rng));

  OlhServer serial(kEpsilon, kDomain, options);
  for (const OlhReport& r : reports) serial.Add(r);
  const std::vector<double> want = serial.EstimateFrequencies();

  for (const unsigned threads : kThreadCounts) {
    OlhServer sharded(kEpsilon, kDomain, options);
    sharded.AggregateReports(reports, threads);
    EXPECT_EQ(sharded.num_reports(), serial.num_reports());
    // Estimation is sharded too; sweep its thread count independently.
    ExpectBitwiseEqual(sharded.EstimateFrequencies(threads), want, label);
  }
}

TEST(ParallelAggregationTest, OlhPerUserBitIdenticalAcrossThreadCounts) {
  RunOlhCase(OlhOptions{}, "OLH/per-user");
}

TEST(ParallelAggregationTest, OlhPoolBitIdenticalAcrossThreadCounts) {
  RunOlhCase(OlhOptions{.seed_pool_size = 512}, "OLH/pool");
}

TEST(ParallelAggregationTest, OueBitIdenticalAcrossThreadCounts) {
  OueClient client(kEpsilon, kDomain);
  Rng rng(103);
  std::vector<std::vector<uint8_t>> reports;
  for (const uint64_t v : TrueValues()) reports.push_back(client.Perturb(v, rng));

  OueServer serial(kEpsilon, kDomain);
  for (const auto& r : reports) serial.Add(r);
  const std::vector<double> want = serial.EstimateFrequencies();

  for (const unsigned threads : kThreadCounts) {
    OueServer sharded(kEpsilon, kDomain);
    sharded.AggregateReports(reports, threads);
    ExpectBitwiseEqual(sharded.EstimateFrequencies(), want, "OUE");
  }
}

TEST(ParallelAggregationTest, SquareWaveBitIdenticalAcrossThreadCounts) {
  SwClient client(kEpsilon, kDomain);
  Rng rng(105);
  std::vector<double> reports;
  for (const uint64_t v : TrueValues()) {
    reports.push_back(client.Perturb(static_cast<uint32_t>(v), rng));
  }

  SwServer serial(kEpsilon, kDomain);
  for (const double r : reports) serial.Add(r);
  const std::vector<double> want = serial.EstimateFrequencies();

  for (const unsigned threads : kThreadCounts) {
    SwServer sharded(kEpsilon, kDomain);
    sharded.AggregateReports(reports, threads);
    ExpectBitwiseEqual(sharded.EstimateFrequencies(), want, "SW");
  }
}

TEST(ParallelAggregationTest, FacadeBufferFlushMatchesIngest) {
  // The simulation path (buffer + sharded flush) and the untrusted network
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

    for (const unsigned threads : kThreadCounts) {
      auto buffered = MakeFrequencyOracle(protocol, kEpsilon, kDomain);
      Rng rng_b(107);  // same seed => identical perturbation trajectory
      for (const uint64_t v : values) buffered->BufferUserValue(v, rng_b);
      EXPECT_EQ(buffered->buffered_reports(), values.size());
      buffered->FlushReports(threads);
      EXPECT_EQ(buffered->buffered_reports(), 0u);
      EXPECT_EQ(buffered->num_reports(), values.size());
      ExpectBitwiseEqual(buffered->EstimateFrequencies().value(),
                         ingested->EstimateFrequencies().value(),
                         ProtocolName(protocol).data());
    }
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

TEST(ParallelAggregationTest, PipelineBitIdenticalAcrossAggregationThreads) {
  const data::Dataset ds = data::MakeIpumsLike(20000, 4, 32, 6, 99);
  std::vector<std::vector<std::vector<double>>> per_setting;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    core::FelipConfig config;
    config.epsilon = 1.0;
    config.seed = 7;
    config.aggregation_threads = threads;
    core::FelipPipeline pipeline(ds.attributes(), ds.num_rows(), config);
    pipeline.Collect(ds);
    pipeline.Finalize();
    per_setting.push_back(pipeline.ExportGridFrequencies());
  }
  for (size_t s = 1; s < per_setting.size(); ++s) {
    ASSERT_EQ(per_setting[s].size(), per_setting[0].size());
    for (size_t g = 0; g < per_setting[0].size(); ++g) {
      ExpectBitwiseEqual(per_setting[s][g], per_setting[0][g], "pipeline");
    }
  }
}

TEST(ParallelAggregationTest, StreamingOverrideKeepsAnswersIdentical) {
  const data::Dataset epoch = data::MakeIpumsLike(8000, 3, 16, 4, 31);
  const query::Query q(
      {{.attr = 0, .op = query::Op::kBetween, .lo = 1, .hi = 3}});
  double baseline = 0.0;
  for (const unsigned threads : {0u, 1u, 8u}) {
    stream::StreamConfig config;
    config.felip.epsilon = 1.0;
    config.felip.seed = 11;
    config.aggregation_threads = threads;
    stream::StreamingCollector collector(epoch.attributes(), config);
    collector.IngestEpoch(epoch);
    const double answer = collector.AnswerQuery(q).value();
    if (threads == 0) {
      baseline = answer;
    } else {
      EXPECT_EQ(answer, baseline) << "threads " << threads;
    }
  }
}

// Stress for TSan: hammer one server with repeated max-width batches; any
// cross-shard write overlap shows up as a race, and the final counts must
// equal a serially built server's.
TEST(ParallelAggregationTest, RepeatedShardedBatchesStress) {
  OlhOptions options{.seed_pool_size = 256};
  OlhClient client(kEpsilon, kDomain, options);
  Rng rng(109);
  std::vector<OlhReport> batch;
  for (size_t i = 0; i < 20000; ++i) {
    batch.push_back(client.Perturb(i % kDomain, rng));
  }

  OlhServer sharded(kEpsilon, kDomain, options);
  OlhServer serial(kEpsilon, kDomain, options);
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    sharded.AggregateReports(batch, 8);
    for (const OlhReport& r : batch) serial.Add(r);
  }
  EXPECT_EQ(sharded.num_reports(), batch.size() * kRounds);
  ExpectBitwiseEqual(sharded.EstimateFrequencies(8),
                     serial.EstimateFrequencies(), "stress");
}

}  // namespace
}  // namespace felip::fo
