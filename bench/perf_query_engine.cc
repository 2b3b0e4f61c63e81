// Query-engine throughput (google-benchmark): queries/sec answering a
// 10k mixed point/range workload against one finalized pipeline.
//
// BM_BatchExact answers the whole 2-D workload in one AnswerQueries call,
// each pair through ResponseMatrix::AnswerExact (the touched blocks only).
//
// BM_BatchLambdaMix answers the round benchmark's query shape (λ uniform
// over 2..6, s = 0.5), where the λ >= 3 queries' Algorithm 4 fits weigh
// more than their pair scans; BM_LambdaFit/λ times those fits alone, one
// post::EstimateLambdaQueries call over the mix's queries of that λ.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json_reporter.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/eval/harness.h"
#include "felip/post/lambda_estimator.h"
#include "felip/query/generator.h"

namespace felip {
namespace {

// FELIP_BENCH_USERS / FELIP_BENCH_QUERIES shrink the fixture for smoke
// runs (CI builds the bench and wants a fast emission, not a stable
// number); the defaults reproduce the committed artifact's workload.
uint64_t FixtureUsers() { return eval::BenchUsers(1000000); }
uint32_t FixtureQueriesPerShape() { return eval::BenchQueries(5000); }
uint32_t FixtureMixQueries() { return FixtureQueriesPerShape() / 5; }

constexpr uint32_t kMinFitLambda = 3;
constexpr uint32_t kMaxFitLambda = 6;

struct Fixture {
  data::Dataset dataset;
  core::FelipPipeline pipeline;
  std::vector<query::Query> queries;
  std::vector<query::Query> mix;
  // fit_pairs[λ]: the pair answers of the mix's λ-dimensional queries,
  // C(λ,2) per query in post::PairIndex order.
  std::vector<std::vector<double>> fit_pairs;
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
    // The round benchmark's query shape: λ = 2 + i % 5, s = 0.5, IN
    // predicates on categorical attributes and BETWEEN on numerical ones.
    std::vector<query::Query> mix;
    std::vector<std::vector<double>> fit_pairs(kMaxFitLambda + 1);
    for (uint32_t i = 0; i < FixtureMixQueries(); ++i) {
      const query::Query q = query::GenerateQuery(
          dataset, {.dimension = 2 + i % 5, .selectivity = 0.5}, rng);
      const std::vector<query::Predicate>& p = q.predicates();
      if (p.size() >= kMinFitLambda) {
        for (size_t a = 0; a < p.size(); ++a) {
          for (size_t b = a + 1; b < p.size(); ++b) {
            fit_pairs[p.size()].push_back(
                pipeline.AnswerQuery(query::Query({p[a], p[b]})));
          }
        }
      }
      mix.push_back(q);
    }
    return new Fixture{std::move(dataset), std::move(pipeline),
                       std::move(queries), std::move(mix),
                       std::move(fit_pairs)};
  }();
  return *fixture;
}

void BM_BatchExact(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  const std::span<const query::Query> workload(fixture.queries);

  uint64_t answered = 0;
  for (auto _ : state) {
    std::vector<double> answers = fixture.pipeline.AnswerQueries(workload);
    benchmark::DoNotOptimize(answers.data());
    answered += answers.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(answered));
  state.counters["queries/s"] = benchmark::Counter(
      static_cast<double>(answered), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchExact)->Unit(benchmark::kMillisecond);

void BM_BatchLambdaMix(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  const std::span<const query::Query> workload(fixture.mix);

  uint64_t answered = 0;
  for (auto _ : state) {
    std::vector<double> answers = fixture.pipeline.AnswerQueries(workload);
    benchmark::DoNotOptimize(answers.data());
    answered += answers.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(answered));
  state.counters["queries/s"] = benchmark::Counter(
      static_cast<double>(answered), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchLambdaMix)->Unit(benchmark::kMillisecond);

// Algorithm 4 alone for the mix's λ-dimensional queries, with the
// threshold the pipeline uses.
void BM_LambdaFit(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  const auto lambda = static_cast<uint32_t>(state.range(0));
  const std::vector<double>& pairs = fixture.fit_pairs[lambda];
  post::LambdaEstimatorOptions options;
  options.threshold =
      std::min(fixture.pipeline.config().lambda_threshold,
               1.0 / static_cast<double>(fixture.pipeline.num_users()));

  uint64_t fitted = 0;
  for (auto _ : state) {
    std::vector<double> estimates =
        post::EstimateLambdaQueries(lambda, pairs, {}, options);
    benchmark::DoNotOptimize(estimates.data());
    fitted += estimates.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(fitted));
}
BENCHMARK(BM_LambdaFit)
    ->DenseRange(kMinFitLambda, kMaxFitLambda)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace felip

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::string workload = "users=" + std::to_string(felip::FixtureUsers()) +
                         ";queries=" +
                         std::to_string(2 * felip::FixtureQueriesPerShape()) +
                         ";mix=" + std::to_string(felip::FixtureMixQueries()) +
                         ";domain=4096";
  felip::bench::BenchJsonReporter reporter("perf_query_engine", workload);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  felip::bench::DumpObsJsonIfRequested();
  return 0;
}
