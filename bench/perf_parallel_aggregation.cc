// Aggregation throughput (google-benchmark): the server Add() loop of GRR,
// pooled OLH and OUE (the loop every oracle's IngestReports runs after its
// checks), per-user OLH estimation, and the sharded wire batch decode at
// 1/2/4/8 threads feeding that Add() loop. Per-user OLH estimation shards
// over the host's cores; everything else runs on the calling thread.
//
// Record results with:
//   FELIP_BENCH_JSON_DIR=results FELIP_GIT_SHA=$(git rev-parse --short HEAD) \
//       ./bench/perf_parallel_aggregation --benchmark_repetitions=5
// which writes the machine-readable results/BENCH_perf_parallel_aggregation.json
// (median ns/op and its MAD, workload, SIMD dispatch level, sha); see
// docs/simd.md. The committed results/parallel_aggregation.txt carries
// only seed-stable text.
//
// The sharded paths only speed up on multi-core hosts; record the core
// count (the JSON `threads` field) with the numbers.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <variant>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json_reporter.h"
#include "felip/common/rng.h"
#include "felip/simd/dispatch.h"
#include "felip/fo/grr.h"
#include "felip/fo/olh.h"
#include "felip/fo/oue.h"
#include "felip/wire/wire.h"

namespace felip {
namespace {

constexpr double kEpsilon = 1.0;
constexpr uint64_t kDomain = 1024;
constexpr size_t kNumReports = 1000000;
constexpr fo::OlhOptions kPool{.seed_pool_size = 4096};

const std::vector<fo::OlhReport>& OlhPoolReports() {
  static const std::vector<fo::OlhReport>* reports = [] {
    fo::OlhClient client(kEpsilon, kDomain, kPool);
    Rng rng(1234);
    auto* out = new std::vector<fo::OlhReport>;
    out->reserve(kNumReports);
    for (size_t i = 0; i < kNumReports; ++i) {
      out->push_back(client.Perturb(i % kDomain, rng));
    }
    return out;
  }();
  return *reports;
}

const std::vector<uint64_t>& GrrReports() {
  static const std::vector<uint64_t>* reports = [] {
    fo::GrrClient client(kEpsilon, kDomain);
    Rng rng(5678);
    auto* out = new std::vector<uint64_t>;
    out->reserve(kNumReports);
    for (size_t i = 0; i < kNumReports; ++i) {
      out->push_back(client.Perturb(i % kDomain, rng));
    }
    return out;
  }();
  return *reports;
}

// OUE reports are |D| bytes each; use a smaller batch and domain to keep
// the resident set modest (200k * 128B = 25.6 MB).
constexpr uint64_t kOueDomain = 128;
constexpr size_t kOueReports = 200000;

const std::vector<std::vector<uint8_t>>& OueReports() {
  static const std::vector<std::vector<uint8_t>>* reports = [] {
    fo::OueClient client(kEpsilon, kOueDomain);
    Rng rng(91011);
    auto* out = new std::vector<std::vector<uint8_t>>;
    out->reserve(kOueReports);
    for (size_t i = 0; i < kOueReports; ++i) {
      out->push_back(client.Perturb(i % kOueDomain, rng));
    }
    return out;
  }();
  return *reports;
}

// Per-user OLH: the parallel work is the O(n * |D|) support count in
// EstimateFrequencies, so size n * |D| comparably to the other benches.
constexpr uint64_t kPerUserDomain = 256;
constexpr size_t kPerUserReports = 100000;

const std::vector<fo::OlhReport>& OlhPerUserReports() {
  static const std::vector<fo::OlhReport>* reports = [] {
    fo::OlhClient client(kEpsilon, kPerUserDomain);
    Rng rng(1213);
    auto* out = new std::vector<fo::OlhReport>;
    out->reserve(kPerUserReports);
    for (size_t i = 0; i < kPerUserReports; ++i) {
      out->push_back(client.Perturb(i % kPerUserDomain, rng));
    }
    return out;
  }();
  return *reports;
}

const std::vector<uint8_t>& WireBatch() {
  static const std::vector<uint8_t>* buffer = [] {
    const auto& reports = OlhPoolReports();
    std::vector<wire::ReportMessage> messages(reports.size());
    for (size_t i = 0; i < reports.size(); ++i) {
      messages[i].payload = reports[i];
    }
    return new std::vector<uint8_t>(wire::EncodeReportBatch(messages));
  }();
  return *buffer;
}

void BM_OlhPoolAddLoop(benchmark::State& state) {
  const auto& reports = OlhPoolReports();
  for (auto _ : state) {
    fo::OlhServer server(kEpsilon, kDomain, kPool);
    for (const fo::OlhReport& r : reports) server.Add(r);
    benchmark::DoNotOptimize(server.num_reports());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reports.size()));
}
BENCHMARK(BM_OlhPoolAddLoop)->Unit(benchmark::kMillisecond);

void BM_OlhPerUserEstimate(benchmark::State& state) {
  fo::OlhServer server(kEpsilon, kPerUserDomain);
  for (const fo::OlhReport& r : OlhPerUserReports()) server.Add(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.EstimateFrequencies());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kPerUserReports));
}
BENCHMARK(BM_OlhPerUserEstimate)->Unit(benchmark::kMillisecond);

void BM_GrrAddLoop(benchmark::State& state) {
  const auto& reports = GrrReports();
  for (auto _ : state) {
    fo::GrrServer server(kEpsilon, kDomain);
    for (const uint64_t r : reports) server.Add(r);
    benchmark::DoNotOptimize(server.num_reports());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reports.size()));
}
BENCHMARK(BM_GrrAddLoop)->Unit(benchmark::kMillisecond);

void BM_OueAddLoop(benchmark::State& state) {
  const auto& reports = OueReports();
  for (auto _ : state) {
    fo::OueServer server(kEpsilon, kOueDomain);
    for (const std::vector<uint8_t>& r : reports) server.Add(r);
    benchmark::DoNotOptimize(server.num_reports());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reports.size()));
}
BENCHMARK(BM_OueAddLoop)->Unit(benchmark::kMillisecond);

void BM_WireDecodeAggregate(benchmark::State& state) {
  const auto& buffer = WireBatch();
  const auto threads = static_cast<unsigned>(state.range(0));
  const size_t shards = wire::ReportBatchShardCount(kNumReports);
  for (auto _ : state) {
    fo::OlhServer server(kEpsilon, kDomain, kPool);
    std::vector<std::vector<fo::OlhReport>> shard_reports(shards);
    const auto count = wire::DecodeReportBatchSharded(
        buffer,
        [&shard_reports](size_t shard, size_t /*index*/,
                         wire::ReportMessage&& m) {
          shard_reports[shard].push_back(std::get<fo::OlhReport>(m.payload));
        },
        threads);
    for (const auto& batch : shard_reports) {
      for (const fo::OlhReport& r : batch) server.Add(r);
    }
    benchmark::DoNotOptimize(count);
    benchmark::DoNotOptimize(server.num_reports());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kNumReports));
}
BENCHMARK(BM_WireDecodeAggregate)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace felip

int main(int argc, char** argv) {
  std::printf("simd dispatch: %s\n", felip::simd::DescribeDispatch().c_str());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  felip::bench::BenchJsonReporter reporter(
      "perf_parallel_aggregation",
      "reports=1000000;domain=1024;pool=4096;oue_reports=200000;"
      "oue_domain=128;per_user_reports=100000;per_user_domain=256");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  felip::bench::DumpObsJsonIfRequested();
  return 0;
}
