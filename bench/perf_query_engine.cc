// Query-engine throughput (google-benchmark): queries/sec answering a
// 10k mixed point/range workload against one finalized pipeline.
//
// The baseline (BM_PerQueryScan) reproduces the original per-query path:
// one engine call per query on the full-matrix scan
// (PairAnswerPath::kScan, retained for exactly this purpose), paying the
// per-call validation, observability, and scratch setup every time. The
// batch rows answer the whole workload in one AnswerQueries call — the
// per-call costs amortize across the batch and the exact/prefix paths
// replace the O(bx*by) scan with touched-blocks / O(1) corner lookups.
// All paths answer from the same immutable post-Finalize state.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json_reporter.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/eval/harness.h"
#include "felip/query/generator.h"

namespace felip {
namespace {

// FELIP_BENCH_USERS / FELIP_BENCH_QUERIES shrink the fixture for smoke
// runs (CI builds the bench and wants a fast emission, not a stable
// number); the defaults reproduce the committed artifact's workload.
uint64_t FixtureUsers() { return eval::BenchUsers(1000000); }
uint32_t FixtureQueriesPerShape() { return eval::BenchQueries(5000); }

struct Fixture {
  data::Dataset dataset;
  core::FelipPipeline pipeline;
  std::vector<query::Query> queries;
};

// Built once: collection dominates setup and has nothing to do with the
// numbers being measured. The domain is on the large side (4096) so the
// response matrices have enough refinement blocks for the scan's
// per-block work to be visible, as in a deployment with fine-grained
// numerical attributes.
const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    const uint64_t kUsers = FixtureUsers();
    constexpr uint32_t kAttributes = 6;
    constexpr uint64_t kSeed = 7;
    data::Dataset dataset =
        data::MakeIpumsLike(kUsers, kAttributes, 4096, 64, kSeed);
    core::FelipConfig config;
    config.epsilon = 1.0;
    config.seed = kSeed;
    core::FelipPipeline pipeline = core::RunFelip(dataset, config);

    // 10k mixed point/range workload of 2-D pair queries — the path the
    // engine optimizes: half wide ranges (selectivity 0.5), half point
    // lookups (single-value ranges).
    std::vector<query::Query> queries;
    Rng rng(kSeed + 1);
    for (const double selectivity : {0.5, 1e-9}) {
      const auto generated = query::GenerateQueries(
          dataset, FixtureQueriesPerShape(),
          {.dimension = 2, .selectivity = selectivity, .range_only = true},
          rng);
      queries.insert(queries.end(), generated.begin(), generated.end());
    }
    return new Fixture{std::move(dataset), std::move(pipeline),
                       std::move(queries)};
  }();
  return *fixture;
}

// Pre-PR behavior: one engine invocation per query, scan path.
void BM_PerQueryScan(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  core::QueryBatchOptions options;
  options.pair_path = core::PairAnswerPath::kScan;

  uint64_t answered = 0;
  for (auto _ : state) {
    for (const query::Query& q : fixture.queries) {
      std::vector<double> answer = fixture.pipeline.AnswerQueries(
          std::span<const query::Query>(&q, 1), options);
      benchmark::DoNotOptimize(answer.data());
    }
    answered += fixture.queries.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(answered));
  state.counters["queries/s"] = benchmark::Counter(
      static_cast<double>(answered), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PerQueryScan)->Unit(benchmark::kMillisecond);

void RunBatchBench(benchmark::State& state, core::PairAnswerPath path) {
  const Fixture& fixture = GetFixture();
  core::QueryBatchOptions options;
  options.pair_path = path;
  const std::span<const query::Query> workload(fixture.queries);

  uint64_t answered = 0;
  for (auto _ : state) {
    std::vector<double> answers =
        fixture.pipeline.AnswerQueries(workload, options);
    benchmark::DoNotOptimize(answers.data());
    answered += answers.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(answered));
  state.counters["queries/s"] = benchmark::Counter(
      static_cast<double>(answered), benchmark::Counter::kIsRate);
}

void BM_BatchScan(benchmark::State& state) {
  RunBatchBench(state, core::PairAnswerPath::kScan);
}
BENCHMARK(BM_BatchScan)->Unit(benchmark::kMillisecond);

void BM_BatchExact(benchmark::State& state) {
  RunBatchBench(state, core::PairAnswerPath::kExact);
}
BENCHMARK(BM_BatchExact)->Unit(benchmark::kMillisecond);

void BM_BatchPrefix(benchmark::State& state) {
  RunBatchBench(state, core::PairAnswerPath::kPrefix);
}
BENCHMARK(BM_BatchPrefix)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace felip

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::string workload = "users=" + std::to_string(felip::FixtureUsers()) +
                         ";queries=" +
                         std::to_string(2 * felip::FixtureQueriesPerShape()) +
                         ";domain=4096";
  felip::bench::BenchJsonReporter reporter("perf_query_engine", workload);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  felip::bench::DumpObsJsonIfRequested();
  return 0;
}
