// Golden end-to-end regression test: a fixed-seed pipeline run compared
// against a checked-in snapshot of query answers. The collection RNG
// trajectory, sharded aggregation, post-processing, and query answering
// are all deterministic by design, so any drift here is a behavior change
// — intentional changes must regenerate the goldens (set
// FELIP_DUMP_GOLDEN=1 and copy the printed arrays).
//
// The tolerance (1e-6 absolute on answers in [0, 1]) absorbs libm ulp
// differences across toolchains while catching real numeric drift.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/query/generator.h"
#include "felip/query/query.h"

namespace felip {
namespace {

constexpr double kTolerance = 1e-6;

data::Dataset GoldenDataset() {
  return data::MakeIpumsLike(/*n=*/3000, /*attributes=*/5,
                             /*num_domain=*/50, /*cat_domain=*/8,
                             /*seed=*/42);
}

core::FelipConfig GoldenConfig() {
  core::FelipConfig config;
  config.epsilon = 1.0;
  config.seed = 7;
  return config;
}

std::vector<query::Query> GoldenQueries(const data::Dataset& dataset,
                                        uint32_t lambda) {
  Rng rng(123 + lambda);
  return query::GenerateQueries(
      dataset, /*count=*/6, {.dimension = lambda, .selectivity = 0.5}, rng);
}

void CheckGolden(uint32_t lambda, const std::vector<double>& golden) {
  const data::Dataset dataset = GoldenDataset();
  const core::FelipPipeline pipeline =
      core::RunFelip(dataset, GoldenConfig());
  const std::vector<query::Query> queries = GoldenQueries(dataset, lambda);
  ASSERT_EQ(queries.size(), golden.size());

  const bool dump = std::getenv("FELIP_DUMP_GOLDEN") != nullptr;
  if (dump) std::printf("lambda %u goldens:\n", lambda);
  for (size_t i = 0; i < queries.size(); ++i) {
    const double answer = pipeline.AnswerQuery(queries[i]);
    if (dump) {
      std::printf("  %.12f,\n", answer);
      continue;
    }
    EXPECT_NEAR(answer, golden[i], kTolerance)
        << "lambda " << lambda << " query " << i;
  }
}

TEST(GoldenPipelineTest, Lambda1MarginalsMatchSnapshot) {
  CheckGolden(1, {
                     0.320585430891,
                     0.633921207673,
                     0.241033687985,
                     0.668066169526,
                     0.590820129341,
                     0.510519866012,
                 });
}

TEST(GoldenPipelineTest, Lambda2PairAnswersMatchSnapshot) {
  CheckGolden(2, {
                     0.099388543369,
                     0.306566648096,
                     0.188810952154,
                     0.070331314303,
                     0.041975393704,
                     0.101898350972,
                 });
}

TEST(GoldenPipelineTest, Lambda3EstimatorAnswersMatchSnapshot) {
  CheckGolden(3, {
                     0.022388564766,
                     0.235843817281,
                     0.026029551983,
                     0.021813150025,
                     0.103007907614,
                     0.138975702483,
                 });
}

}  // namespace
}  // namespace felip
