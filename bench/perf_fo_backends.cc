// Throughput of the extension frequency-oracle backends (google-benchmark):
// PGR and FLDP client perturbation, the server Add() loop (what every
// oracle's IngestReports runs after its checks), and estimation —
// including PGR's direct vs fast decode paths, whose crossover is the
// reason the oracle offers both. Before any timing runs, main() verifies
// that the two PGR decode paths agree bitwise and aborts if not, so
// recorded numbers always come from a configuration whose outputs were
// just proven equivalent.
//
// Record results with:
//   FELIP_BENCH_JSON_DIR=results FELIP_GIT_SHA=$(git rev-parse --short HEAD) \
//       ./bench/perf_fo_backends --benchmark_repetitions=5
// which writes the machine-readable results/BENCH_perf_fo_backends.json
// (median ns/op and its MAD, workload, SIMD dispatch level, sha).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json_reporter.h"
#include "felip/common/rng.h"
#include "felip/fo/fldp.h"
#include "felip/fo/pgr.h"
#include "felip/simd/dispatch.h"

namespace felip {
namespace {

constexpr double kEpsilon = 1.0;
constexpr uint64_t kDomain = 1024;
constexpr size_t kNumReports = 1000000;
constexpr fo::FldpOptions kFldpOptions{.report_bits = 8,
                                       .subset_pool_size = 2048};

const std::vector<uint32_t>& PgrReports() {
  static const std::vector<uint32_t>* reports = [] {
    fo::PgrClient client(kEpsilon, kDomain);
    Rng rng(424242);
    auto* out = new std::vector<uint32_t>;
    out->reserve(kNumReports);
    for (size_t i = 0; i < kNumReports; ++i) {
      out->push_back(client.Perturb(i % kDomain, rng));
    }
    return out;
  }();
  return *reports;
}

const std::vector<fo::FldpReport>& FldpReports() {
  static const std::vector<fo::FldpReport>* reports = [] {
    fo::FldpClient client(kEpsilon, kDomain, kFldpOptions);
    Rng rng(434343);
    auto* out = new std::vector<fo::FldpReport>;
    out->reserve(kNumReports);
    for (size_t i = 0; i < kNumReports; ++i) {
      out->push_back(client.Perturb(i % kDomain, rng));
    }
    return out;
  }();
  return *reports;
}

void BM_PgrPerturb(benchmark::State& state) {
  fo::PgrClient client(kEpsilon, kDomain);
  Rng rng(7);
  uint64_t value = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.Perturb(value, rng));
    value = (value + 1) % kDomain;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PgrPerturb);

void BM_FldpPerturb(benchmark::State& state) {
  fo::FldpClient client(kEpsilon, kDomain, kFldpOptions);
  Rng rng(8);
  uint64_t value = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.Perturb(value, rng));
    value = (value + 1) % kDomain;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FldpPerturb);

void BM_PgrAddLoop(benchmark::State& state) {
  const auto& reports = PgrReports();
  for (auto _ : state) {
    fo::PgrServer server(kEpsilon, kDomain);
    for (const uint32_t r : reports) server.Add(r);
    benchmark::DoNotOptimize(server.num_reports());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reports.size()));
}
BENCHMARK(BM_PgrAddLoop)->Unit(benchmark::kMillisecond);

void BM_FldpAddLoop(benchmark::State& state) {
  const auto& reports = FldpReports();
  for (auto _ : state) {
    fo::FldpServer server(kEpsilon, kDomain, kFldpOptions);
    for (const fo::FldpReport& r : reports) server.Add(r);
    benchmark::DoNotOptimize(server.num_reports());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reports.size()));
}
BENCHMARK(BM_FldpAddLoop)->Unit(benchmark::kMillisecond);

void BM_PgrEstimate(benchmark::State& state) {
  const auto decode = static_cast<fo::PgrDecode>(state.range(0));
  fo::PgrServer server(kEpsilon, kDomain, {.decode = decode});
  for (const uint32_t r : PgrReports()) server.Add(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.EstimateFrequencies());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kDomain));
}
BENCHMARK(BM_PgrEstimate)
    ->Arg(static_cast<int>(fo::PgrDecode::kDirect))
    ->Arg(static_cast<int>(fo::PgrDecode::kFast))
    ->ArgName("decode")
    ->Unit(benchmark::kMillisecond);

void BM_FldpEstimate(benchmark::State& state) {
  fo::FldpServer server(kEpsilon, kDomain, kFldpOptions);
  for (const fo::FldpReport& r : FldpReports()) server.Add(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.EstimateFrequencies());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kDomain));
}
BENCHMARK(BM_FldpEstimate)->Unit(benchmark::kMillisecond);

// Fails fast unless PGR's two decode paths agree bitwise.
void VerifyDeterminismOrDie() {
  fo::PgrServer pgr_direct(kEpsilon, kDomain,
                           {.decode = fo::PgrDecode::kDirect});
  fo::PgrServer pgr_fast(kEpsilon, kDomain, {.decode = fo::PgrDecode::kFast});
  for (const uint32_t r : PgrReports()) {
    pgr_direct.Add(r);
    pgr_fast.Add(r);
  }
  const std::vector<double> direct = pgr_direct.EstimateFrequencies();
  const std::vector<double> fast = pgr_fast.EstimateFrequencies();
  if (std::memcmp(fast.data(), direct.data(),
                  direct.size() * sizeof(double)) != 0) {
    std::fprintf(stderr,
                 "FATAL: PGR fast decode differs from direct decode\n");
    std::abort();
  }
  std::printf("determinism: PGR direct == fast decode over %zu reports\n",
              kNumReports);
  std::printf("simd dispatch: %s\n", simd::DescribeDispatch().c_str());
}

}  // namespace
}  // namespace felip

int main(int argc, char** argv) {
  felip::VerifyDeterminismOrDie();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  felip::bench::BenchJsonReporter reporter(
      "perf_fo_backends",
      "reports=1000000;domain=1024;fldp_bits=8;fldp_pool=2048");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  felip::bench::DumpObsJsonIfRequested();
  return 0;
}
