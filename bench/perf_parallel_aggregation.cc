// Sharded aggregation throughput (google-benchmark): serial Add() loop vs
// AggregateReports() at 1/2/4/8 threads for the frequency oracles, plus the
// sharded wire batch decode. Before any timing runs, main() verifies the
// determinism guarantee — estimates bit-identical across thread counts —
// and aborts if it does not hold, so recorded numbers always come from a
// configuration whose outputs were just proven equivalent.
//
// Record results with:
//   FELIP_BENCH_JSON_DIR=results FELIP_GIT_SHA=$(git rev-parse --short HEAD) \
//       ./bench/perf_parallel_aggregation
// which writes the machine-readable results/BENCH_perf_parallel_aggregation.json
// (ns/op, workload, SIMD dispatch level, sha); see docs/simd.md. The
// committed results/parallel_aggregation.txt carries only seed-stable text.
//
// Parallel speedup only shows on multi-core hosts; on a single-core
// container all thread counts collapse to serial throughput minus shard
// overhead, while the bit-identical guarantee still holds.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
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

void BM_OlhPoolAggregate(benchmark::State& state) {
  const auto& reports = OlhPoolReports();
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    fo::OlhServer server(kEpsilon, kDomain, kPool);
    server.AggregateReports(reports, threads);
    benchmark::DoNotOptimize(server.num_reports());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reports.size()));
}
BENCHMARK(BM_OlhPoolAggregate)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

void BM_OlhPerUserEstimate(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  fo::OlhServer server(kEpsilon, kPerUserDomain);
  server.AggregateReports(OlhPerUserReports(), /*thread_count=*/1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.EstimateFrequencies(threads));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kPerUserReports));
}
BENCHMARK(BM_OlhPerUserEstimate)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

void BM_GrrAggregate(benchmark::State& state) {
  const auto& reports = GrrReports();
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    fo::GrrServer server(kEpsilon, kDomain);
    server.AggregateReports(reports, threads);
    benchmark::DoNotOptimize(server.num_reports());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reports.size()));
}
BENCHMARK(BM_GrrAggregate)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

void BM_OueAggregate(benchmark::State& state) {
  const auto& reports = OueReports();
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    fo::OueServer server(kEpsilon, kOueDomain);
    server.AggregateReports(reports, threads);
    benchmark::DoNotOptimize(server.num_reports());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reports.size()));
}
BENCHMARK(BM_OueAggregate)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

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
      server.AggregateReports(batch, /*thread_count=*/1);
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

// Fails fast unless AggregateReports is bit-identical to the serial Add()
// loop at every benchmarked thread count.
void VerifyDeterminismOrDie() {
  fo::OlhServer serial(kEpsilon, kDomain, kPool);
  for (const fo::OlhReport& r : OlhPoolReports()) serial.Add(r);
  const std::vector<double> want = serial.EstimateFrequencies();
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    fo::OlhServer sharded(kEpsilon, kDomain, kPool);
    sharded.AggregateReports(OlhPoolReports(), threads);
    const std::vector<double> got = sharded.EstimateFrequencies();
    if (std::memcmp(got.data(), want.data(),
                    want.size() * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "FATAL: OLH estimates not bit-identical at %u threads\n",
                   threads);
      std::abort();
    }
  }
  std::printf("determinism: OLH estimates bit-identical to serial Add loop "
              "at 1/2/4/8 threads over %zu reports\n", kNumReports);
  std::printf("simd dispatch: %s\n", simd::DescribeDispatch().c_str());
}

}  // namespace
}  // namespace felip

int main(int argc, char** argv) {
  felip::VerifyDeterminismOrDie();
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
