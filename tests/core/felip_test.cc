#include "felip/core/felip.h"

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/numeric.h"
#include "felip/data/synthetic.h"
#include "felip/query/generator.h"

namespace felip::core {
namespace {

FelipConfig FastConfig() {
  FelipConfig config;
  config.epsilon = 1.0;
  config.olh_options.seed_pool_size = 1024;
  config.seed = 7;
  return config;
}

TEST(FelipClientTest, ProjectsOntoAssignedGrid) {
  GridAssignment a;
  a.is_2d = true;
  a.attr_x = 0;
  a.attr_y = 1;
  a.plan.lx = 4;
  a.plan.ly = 2;
  const FelipClient client(a, 100, 10);
  EXPECT_EQ(client.cell_domain(), 8u);
  EXPECT_EQ(client.ProjectToCell(0, 0), 0u);
  EXPECT_EQ(client.ProjectToCell(99, 9), 7u);
  EXPECT_TRUE(client.is_2d());
}

TEST(FelipClientTest, OneDimensionalProjection) {
  GridAssignment a;
  a.is_2d = false;
  a.attr_x = 2;
  a.plan.lx = 5;
  const FelipClient client(a, 50);
  EXPECT_EQ(client.cell_domain(), 5u);
  EXPECT_EQ(client.ProjectToCell(49), 4u);
}

TEST(FelipPipelineTest, OhgPlansOneGridPerPairPlusNumerical1D) {
  // 3 numerical + 2 categorical attributes: 3 one-dim + C(5,2)=10 pairs.
  const data::Dataset ds = data::MakeUniform(1000, 3, 2, 50, 4, 1);
  FelipConfig config = FastConfig();
  config.strategy = Strategy::kOhg;
  const FelipPipeline pipeline(ds.attributes(), ds.num_rows(), config);
  EXPECT_EQ(pipeline.num_groups(), 13u);
  EXPECT_EQ(pipeline.grids_1d().size(), 3u);
  EXPECT_EQ(pipeline.grids_2d().size(), 10u);
}

TEST(FelipPipelineTest, OugPlansPairGridsOnly) {
  const data::Dataset ds = data::MakeUniform(1000, 3, 2, 50, 4, 1);
  FelipConfig config = FastConfig();
  config.strategy = Strategy::kOug;
  const FelipPipeline pipeline(ds.attributes(), ds.num_rows(), config);
  EXPECT_EQ(pipeline.num_groups(), 10u);
  EXPECT_TRUE(pipeline.grids_1d().empty());
}

TEST(FelipPipelineTest, CategoricalAxesKeepFullDomain) {
  const data::Dataset ds = data::MakeUniform(5000, 1, 2, 50, 5, 1);
  const FelipPipeline pipeline(ds.attributes(), ds.num_rows(), FastConfig());
  for (const GridAssignment& a : pipeline.assignments()) {
    if (!a.is_2d) continue;
    if (ds.attribute(a.attr_x).categorical) {
      EXPECT_EQ(a.plan.lx, ds.attribute(a.attr_x).domain);
    }
    if (ds.attribute(a.attr_y).categorical) {
      EXPECT_EQ(a.plan.ly, ds.attribute(a.attr_y).domain);
    }
  }
}

TEST(FelipPipelineTest, SingleAttributeDegeneratesToOneGrid) {
  const data::Dataset ds = data::MakeUniform(2000, 1, 0, 64, 2, 2);
  FelipConfig config = FastConfig();
  FelipPipeline pipeline(ds.attributes(), ds.num_rows(), config);
  EXPECT_EQ(pipeline.num_groups(), 1u);
  pipeline.Collect(ds);
  pipeline.Finalize();
  const query::Query q({{.attr = 0, .op = query::Op::kBetween, .lo = 0,
                         .hi = 31}});
  const double estimate = pipeline.AnswerQuery(q);
  EXPECT_NEAR(estimate, 0.5, 0.15);
}

TEST(FelipPipelineTest, AfoMixesProtocolsAcrossGrids) {
  // Small categorical domains favor GRR while large numerical pair grids
  // favor OLH; with defaults both should appear.
  const data::Dataset ds = data::MakeUniform(100000, 3, 3, 200, 4, 3);
  const FelipPipeline pipeline(ds.attributes(), ds.num_rows(), FastConfig());
  std::set<fo::Protocol> protocols;
  for (const GridAssignment& a : pipeline.assignments()) {
    protocols.insert(a.plan.protocol);
  }
  EXPECT_GE(protocols.size(), 2u);
}

TEST(FelipPipelineTest, ReportBudgetSelectsPgrEndToEnd) {
  // Large categorical domains with an 8-byte report budget: OLH's 16-byte
  // triple and OUE's |D|-byte vector are over budget, and PGR's single
  // uint32 beats GRR's domain-linear variance on every big grid. The whole
  // round (plan -> collect -> finalize -> answer) must run under the
  // budgeted plan at a fixed seed.
  const data::Dataset ds = data::MakeUniform(60000, 0, 2, 0, 96, 11);
  FelipConfig config = FastConfig();
  config.allow_oue = true;
  config.allow_pgr = true;
  config.allow_fldp = true;
  config.report_budget_bytes = 8;
  FelipPipeline pipeline(ds.attributes(), ds.num_rows(), config);
  for (const GridAssignment& a : pipeline.assignments()) {
    EXPECT_LE(a.plan.report_bytes, 8u);
  }
  std::set<fo::Protocol> protocols;
  for (const GridAssignment& a : pipeline.assignments()) {
    protocols.insert(a.plan.protocol);
  }
  ASSERT_TRUE(protocols.contains(fo::Protocol::kPgr));
  // The 96x96 pair grid is deep GRR-hostile territory; it must be PGR.
  for (const GridAssignment& a : pipeline.assignments()) {
    if (a.is_2d) EXPECT_EQ(a.plan.protocol, fo::Protocol::kPgr);
  }

  pipeline.Collect(ds);
  pipeline.Finalize();
  Rng rng(12);
  const auto queries =
      query::GenerateQueries(ds, 8, {.dimension = 2, .selectivity = 0.5},
                             rng);
  double mae = 0.0;
  for (const query::Query& q : queries) {
    mae += std::fabs(pipeline.AnswerQuery(q) - query::TrueAnswer(ds, q));
  }
  mae /= static_cast<double>(queries.size());
  EXPECT_LT(mae, 0.08);
}

TEST(FelipPipelineTest, EndToEndRecoversLambda2Answers) {
  const data::Dataset ds = data::MakeUniform(60000, 2, 1, 40, 4, 4);
  FelipConfig config = FastConfig();
  FelipPipeline pipeline(ds.attributes(), ds.num_rows(), config);
  pipeline.Collect(ds);
  pipeline.Finalize();
  Rng rng(9);
  const auto queries =
      query::GenerateQueries(ds, 8, {.dimension = 2, .selectivity = 0.5},
                             rng);
  double mae = 0.0;
  for (const query::Query& q : queries) {
    mae += std::fabs(pipeline.AnswerQuery(q) - query::TrueAnswer(ds, q));
  }
  mae /= static_cast<double>(queries.size());
  EXPECT_LT(mae, 0.08);
}

TEST(FelipPipelineTest, HigherEpsilonGivesLowerError) {
  const data::Dataset ds = data::MakeNormal(50000, 3, 0, 64, 2, 5);
  Rng rng(10);
  const auto queries =
      query::GenerateQueries(ds, 12, {.dimension = 2, .selectivity = 0.5},
                             rng);
  std::vector<double> truths;
  for (const auto& q : queries) truths.push_back(query::TrueAnswer(ds, q));

  const auto run = [&](double eps) {
    FelipConfig config = FastConfig();
    config.epsilon = eps;
    FelipPipeline pipeline(ds.attributes(), ds.num_rows(), config);
    pipeline.Collect(ds);
    pipeline.Finalize();
    double mae = 0.0;
    for (size_t i = 0; i < queries.size(); ++i) {
      mae += std::fabs(pipeline.AnswerQuery(queries[i]) - truths[i]);
    }
    return mae / static_cast<double>(queries.size());
  };
  // Very low vs very high budget: the gap must be decisive.
  EXPECT_LT(run(6.0), run(0.1));
}

TEST(FelipPipelineTest, Lambda3QueriesAnswered) {
  const data::Dataset ds = data::MakeUniform(50000, 2, 2, 32, 4, 6);
  FelipConfig config = FastConfig();
  FelipPipeline pipeline(ds.attributes(), ds.num_rows(), config);
  pipeline.Collect(ds);
  pipeline.Finalize();
  Rng rng(11);
  const auto queries =
      query::GenerateQueries(ds, 6, {.dimension = 3, .selectivity = 0.5},
                             rng);
  for (const query::Query& q : queries) {
    const double estimate = pipeline.AnswerQuery(q);
    EXPECT_GE(estimate, 0.0);
    EXPECT_LE(estimate, 1.0);
    EXPECT_NEAR(estimate, query::TrueAnswer(ds, q), 0.15);
  }
}

TEST(FelipPipelineTest, MarginalQueriesUse1DGridsUnderOhg) {
  const data::Dataset ds = data::MakeNormal(60000, 2, 1, 50, 4, 7);
  FelipConfig config = FastConfig();
  config.strategy = Strategy::kOhg;
  FelipPipeline pipeline(ds.attributes(), ds.num_rows(), config);
  pipeline.Collect(ds);
  pipeline.Finalize();
  // λ = 1 on a numerical attribute (has a 1-D grid) and on a categorical
  // attribute (answered from a pair marginal).
  const query::Query numerical(
      {{.attr = 0, .op = query::Op::kBetween, .lo = 10, .hi = 35}});
  const query::Query categorical(
      {{.attr = 2, .op = query::Op::kIn, .values = {0, 1}}});
  EXPECT_NEAR(pipeline.AnswerQuery(numerical),
              query::TrueAnswer(ds, numerical), 0.08);
  EXPECT_NEAR(pipeline.AnswerQuery(categorical),
              query::TrueAnswer(ds, categorical), 0.08);
}

TEST(FelipPipelineTest, SelectivityPriorChangesPlans) {
  const data::Dataset ds = data::MakeUniform(100000, 4, 0, 256, 2, 8);
  FelipConfig narrow = FastConfig();
  narrow.default_selectivity = 0.1;
  FelipConfig wide = FastConfig();
  wide.default_selectivity = 0.9;
  const FelipPipeline p_narrow(ds.attributes(), ds.num_rows(), narrow);
  const FelipPipeline p_wide(ds.attributes(), ds.num_rows(), wide);
  // Narrow queries justify finer grids.
  uint64_t cells_narrow = 0;
  uint64_t cells_wide = 0;
  for (size_t g = 0; g < p_narrow.assignments().size(); ++g) {
    cells_narrow += static_cast<uint64_t>(p_narrow.assignments()[g].plan.lx) *
                    p_narrow.assignments()[g].plan.ly;
    cells_wide += static_cast<uint64_t>(p_wide.assignments()[g].plan.lx) *
                  p_wide.assignments()[g].plan.ly;
  }
  EXPECT_GT(cells_narrow, cells_wide);
}

TEST(FelipPipelineTest, BudgetSplitModeRuns) {
  const data::Dataset ds = data::MakeUniform(4000, 2, 1, 20, 3, 9);
  FelipConfig config = FastConfig();
  config.partitioning = PartitioningMode::kDivideBudget;
  FelipPipeline pipeline(ds.attributes(), ds.num_rows(), config);
  pipeline.Collect(ds);
  pipeline.Finalize();
  const query::Query q({{.attr = 0, .op = query::Op::kBetween, .lo = 0,
                         .hi = 9}});
  const double estimate = pipeline.AnswerQuery(q);
  EXPECT_GE(estimate, 0.0);
  EXPECT_LE(estimate, 1.0);
}

TEST(FelipPipelineDeathTest, CollectRequiresMatchingPopulation) {
  const data::Dataset ds = data::MakeUniform(1000, 2, 0, 16, 2, 10);
  FelipPipeline pipeline(ds.attributes(), 2000, FastConfig());
  EXPECT_DEATH(pipeline.Collect(ds), "population");
}

TEST(FelipPipelineDeathTest, AnswerBeforeFinalizeAborts) {
  const data::Dataset ds = data::MakeUniform(1000, 2, 0, 16, 2, 11);
  const FelipPipeline pipeline(ds.attributes(), ds.num_rows(), FastConfig());
  const query::Query q({{.attr = 0, .op = query::Op::kEquals, .lo = 1}});
  EXPECT_DEATH(pipeline.AnswerQuery(q), "lifecycle violation");
}

TEST(FelipPipelineDeathTest, DoubleCollectAborts) {
  const data::Dataset ds = data::MakeUniform(1000, 2, 0, 16, 2, 12);
  FelipPipeline pipeline(ds.attributes(), ds.num_rows(), FastConfig());
  pipeline.Collect(ds);
  EXPECT_DEATH(pipeline.Collect(ds), "lifecycle violation");
}

TEST(RunFelipTest, OneCallConvenience) {
  const data::Dataset ds = data::MakeUniform(20000, 2, 1, 32, 4, 13);
  const FelipPipeline pipeline = RunFelip(ds, FastConfig());
  EXPECT_EQ(pipeline.state(), PipelineState::kQueryable);
}

}  // namespace
}  // namespace felip::core
