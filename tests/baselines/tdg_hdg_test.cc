#include "felip/baselines/tdg_hdg.h"

#include <cmath>
#include <iomanip>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/hash.h"
#include "felip/data/synthetic.h"
#include "felip/query/generator.h"

namespace felip::baselines {
namespace {

TdgHdgConfig FastConfig(YangStrategy strategy) {
  TdgHdgConfig config;
  config.strategy = strategy;
  config.epsilon = 1.0;
  config.olh_options.seed_pool_size = 1024;
  config.seed = 3;
  return config;
}

TEST(GranularityTest, NearestPowerOfTwo) {
  EXPECT_EQ(NearestPowerOfTwo(25.0, 1000), 32u);   // log2(25)=4.64 -> 2^5
  EXPECT_EQ(NearestPowerOfTwo(23.0, 1000), 32u);   // log2(23)=4.52 -> 2^5
  EXPECT_EQ(NearestPowerOfTwo(22.0, 1000), 16u);   // log2(22)=4.46 -> 2^4
  EXPECT_EQ(NearestPowerOfTwo(5.0, 1000), 4u);     // log2(5)=2.32 -> 4
  EXPECT_EQ(NearestPowerOfTwo(6.0, 1000), 8u);     // log2(6)=2.58 -> 8
  EXPECT_EQ(NearestPowerOfTwo(0.3, 1000), 1u);
  EXPECT_EQ(NearestPowerOfTwo(300.0, 100), 100u);  // clamped by domain
}

TEST(GranularityTest, RawG1MatchesDerivation) {
  const double e = std::exp(1.0);
  const double g1 = TdgHdgRawG1(1.0, 1000000, 21, 0.7);
  const double expected =
      std::cbrt(1e6 * 0.49 * (e - 1.0) * (e - 1.0) / (21.0 * e));
  EXPECT_NEAR(g1, expected, 1e-9);
}

TEST(GranularityTest, G2ShrinksWithMoreGroups) {
  EXPECT_GT(TdgHdgRawG2(1.0, 1000000, 10, 0.03),
            TdgHdgRawG2(1.0, 1000000, 100, 0.03));
}

TEST(TdgHdgPipelineTest, GroupCounts) {
  const data::Dataset ds = data::MakeUniform(10000, 4, 0, 64, 2, 1);
  const TdgHdgPipeline tdg(ds.attributes(), ds.num_rows(),
                           FastConfig(YangStrategy::kTdg));
  const TdgHdgPipeline hdg(ds.attributes(), ds.num_rows(),
                           FastConfig(YangStrategy::kHdg));
  EXPECT_EQ(tdg.num_groups(), 6u);       // C(4,2)
  EXPECT_EQ(hdg.num_groups(), 10u);      // 4 + C(4,2)
}

TEST(TdgHdgPipelineTest, GranularitiesArePowersOfTwo) {
  const data::Dataset ds = data::MakeUniform(100000, 4, 0, 256, 2, 2);
  const TdgHdgPipeline hdg(ds.attributes(), ds.num_rows(),
                           FastConfig(YangStrategy::kHdg));
  const auto is_pow2 = [](uint32_t v) { return (v & (v - 1)) == 0; };
  EXPECT_TRUE(is_pow2(hdg.g1()));
  EXPECT_TRUE(is_pow2(hdg.g2()));
  EXPECT_GE(hdg.g1(), hdg.g2());  // 1-D grids are finer-grained
}

TEST(TdgHdgPipelineTest, TdgRecoversRangeQueries) {
  const data::Dataset ds = data::MakeUniform(60000, 3, 0, 64, 2, 3);
  TdgHdgPipeline pipeline(ds.attributes(), ds.num_rows(),
                          FastConfig(YangStrategy::kTdg));
  pipeline.Collect(ds);
  pipeline.Finalize();
  const query::Query q(
      {{.attr = 0, .op = query::Op::kBetween, .lo = 0, .hi = 31},
       {.attr = 2, .op = query::Op::kBetween, .lo = 16, .hi = 47}});
  EXPECT_NEAR(pipeline.AnswerQuery(q), 0.25, 0.08);
}

TEST(TdgHdgPipelineTest, HdgRecoversRangeQueries) {
  const data::Dataset ds = data::MakeNormal(60000, 3, 0, 64, 2, 4);
  TdgHdgPipeline pipeline(ds.attributes(), ds.num_rows(),
                          FastConfig(YangStrategy::kHdg));
  pipeline.Collect(ds);
  pipeline.Finalize();
  Rng rng(5);
  const auto queries = query::GenerateQueries(
      ds, 10, {.dimension = 2, .selectivity = 0.5, .range_only = true}, rng);
  double mae = 0.0;
  for (const auto& q : queries) {
    mae += std::fabs(pipeline.AnswerQuery(q) - query::TrueAnswer(ds, q));
  }
  EXPECT_LT(mae / 10.0, 0.08);
}

TEST(TdgHdgPipelineTest, Lambda3Supported) {
  const data::Dataset ds = data::MakeUniform(50000, 4, 0, 32, 2, 6);
  TdgHdgPipeline pipeline(ds.attributes(), ds.num_rows(),
                          FastConfig(YangStrategy::kHdg));
  pipeline.Collect(ds);
  pipeline.Finalize();
  Rng rng(7);
  const auto queries = query::GenerateQueries(
      ds, 5, {.dimension = 3, .selectivity = 0.5, .range_only = true}, rng);
  for (const auto& q : queries) {
    const double estimate = pipeline.AnswerQuery(q);
    EXPECT_GE(estimate, 0.0);
    EXPECT_LE(estimate, 1.0);
    EXPECT_NEAR(estimate, query::TrueAnswer(ds, q), 0.2);
  }
}

TEST(TdgHdgPipelineTest, MarginalQuery) {
  const data::Dataset ds = data::MakeNormal(50000, 2, 0, 64, 2, 8);
  TdgHdgPipeline pipeline(ds.attributes(), ds.num_rows(),
                          FastConfig(YangStrategy::kHdg));
  pipeline.Collect(ds);
  pipeline.Finalize();
  const query::Query q(
      {{.attr = 1, .op = query::Op::kBetween, .lo = 20, .hi = 43}});
  EXPECT_NEAR(pipeline.AnswerQuery(q), query::TrueAnswer(ds, q), 0.08);
}

TEST(TdgHdgPipelineTest, TdgMarginalViaPairGrid) {
  // TDG has no 1-D grids; λ=1 queries marginalize a pair grid.
  const data::Dataset ds = data::MakeNormal(40000, 2, 0, 64, 2, 9);
  TdgHdgPipeline pipeline(ds.attributes(), ds.num_rows(),
                          FastConfig(YangStrategy::kTdg));
  pipeline.Collect(ds);
  pipeline.Finalize();
  const query::Query q(
      {{.attr = 1, .op = query::Op::kBetween, .lo = 16, .hi = 47}});
  EXPECT_NEAR(pipeline.AnswerQuery(q), query::TrueAnswer(ds, q), 0.1);
}

TEST(TdgHdgPipelineTest, HdgBeatsTdgOnSkewedData) {
  // The hybrid 1-D grids + response matrices should pay off on non-uniform
  // data (the HDG paper's headline claim).
  const data::Dataset ds = data::MakeNormal(100000, 4, 0, 128, 2, 10);
  Rng rng(11);
  const auto queries = query::GenerateQueries(
      ds, 15, {.dimension = 2, .selectivity = 0.5, .range_only = true}, rng);
  std::vector<double> truths;
  for (const auto& q : queries) truths.push_back(query::TrueAnswer(ds, q));
  const auto mae = [&](YangStrategy strategy) {
    TdgHdgPipeline pipeline(ds.attributes(), ds.num_rows(),
                            FastConfig(strategy));
    pipeline.Collect(ds);
    pipeline.Finalize();
    double total = 0.0;
    for (size_t i = 0; i < queries.size(); ++i) {
      total += std::fabs(pipeline.AnswerQuery(queries[i]) - truths[i]);
    }
    return total / static_cast<double>(queries.size());
  };
  EXPECT_LT(mae(YangStrategy::kHdg), mae(YangStrategy::kTdg));
}

// Fixed-seed pin of the collected estimates: the xxHash64 of every 2-D
// grid's finalized frequencies (HDG's consistency step folds its 1-D
// grids into them) and one HDG marginal answer from the 1-D grids. Any
// change to the collection round's rng trajectory, to a grid's report
// order (per-user OLH keeps its reports as a list) or to estimation moves
// them.
uint64_t PairGridDigest(const TdgHdgPipeline& pipeline) {
  uint64_t digest = 0;
  for (const grid::Grid2D& g : pipeline.grids_2d()) {
    const std::vector<double>& f = g.frequencies();
    digest = XxHash64Bytes(f.data(), f.size() * sizeof(double), digest);
  }
  return digest;
}

TEST(TdgHdgPipelineTest, FixedSeedEstimatesArePinned) {
  const data::Dataset ds = data::MakeNormal(20000, 4, 0, 32, 2, 12);
  const query::Query marginal(
      {{.attr = 1, .op = query::Op::kBetween, .lo = 4, .hi = 19}});
  struct Row {
    const char* name;
    YangStrategy strategy;
    uint32_t seed_pool_size;  // 0: per-user OLH
    uint64_t digest;
    double marginal;
  };
  const Row rows[] = {
      {"tdg_pooled", YangStrategy::kTdg, 1024, 0xc4ffc21ace8cc06dull,
       0.49054763733319484},
      {"hdg_pooled", YangStrategy::kHdg, 1024, 0x3fcf00f757e1a8c5ull,
       0.77496789798886057},
      {"hdg_per_user", YangStrategy::kHdg, 0, 0xfcca9b57a427db98ull,
       0.77133073563411991},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    TdgHdgConfig config = FastConfig(row.strategy);
    config.olh_options.seed_pool_size = row.seed_pool_size;
    TdgHdgPipeline pipeline(ds.attributes(), ds.num_rows(), config);
    pipeline.Collect(ds);
    pipeline.Finalize();
    const uint64_t digest = PairGridDigest(pipeline);
    const double answer = pipeline.AnswerQuery(marginal);
    EXPECT_EQ(digest, row.digest) << std::hex << "0x" << digest;
    EXPECT_NEAR(answer, row.marginal, 1e-12) << std::setprecision(17)
                                             << answer;
  }
}

TEST(TdgHdgPipelineDeathTest, RequiresTwoAttributes) {
  EXPECT_DEATH(TdgHdgPipeline({{"a", 8, false}}, 100,
                              FastConfig(YangStrategy::kTdg)),
               "2 attributes");
}

}  // namespace
}  // namespace felip::baselines
