// The batch query engine's API contract (docs/query_engine.md):
// AnswerQueries is bit-identical to per-query AnswerQuery; the exact pair
// path it answers through is bit-identical to the reference scan on every
// pair of the workload; out-of-domain predicates are fatal in-process; λ
// answers stay in [0, 1] even from adversarially inflated grid
// frequencies; and on shuffled mixed-λ batches the lane-batched
// Algorithm 4 kernel gives every query the bits of the serial fit it
// replaced.

#include "felip/core/felip.h"

#include <algorithm>
#include <bit>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/data/synthetic.h"
#include "felip/post/response_matrix.h"
#include "felip/query/generator.h"
#include "felip/query/query.h"
#include "support/lambda_reference.h"

namespace felip::core {
namespace {

constexpr uint64_t kUsers = 3000;
constexpr uint32_t kAttributes = 4;
constexpr uint32_t kNumDomain = 30;
constexpr uint32_t kCatDomain = 6;
constexpr uint64_t kSeed = 7;

FelipConfig MakeConfig() {
  FelipConfig config;
  config.epsilon = 1.0;
  config.seed = kSeed;
  return config;
}

struct Fixture {
  data::Dataset dataset;
  FelipPipeline pipeline;
  std::vector<query::Query> workload;
};

// Collection is the expensive part and identical for every test; build the
// finalized pipeline and a mixed workload (λ = 1..4, ranges and IN sets,
// wide and point selectivities) once.
const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    data::Dataset dataset =
        data::MakeIpumsLike(kUsers, kAttributes, kNumDomain, kCatDomain, kSeed);
    FelipPipeline pipeline = RunFelip(dataset, MakeConfig());
    std::vector<query::Query> workload;
    Rng rng(kSeed + 1);
    for (uint32_t dimension = 1; dimension <= kAttributes; ++dimension) {
      for (const double selectivity : {0.5, 0.05}) {
        const auto generated = query::GenerateQueries(
            dataset, 25,
            {.dimension = dimension, .selectivity = selectivity}, rng);
        workload.insert(workload.end(), generated.begin(), generated.end());
      }
    }
    return new Fixture{std::move(dataset), std::move(pipeline),
                       std::move(workload)};
  }();
  return *fixture;
}

TEST(QueryBatchTest, BatchBitIdenticalToSerialAnswerQuery) {
  const Fixture& f = GetFixture();
  const std::vector<double> batch =
      f.pipeline.AnswerQueries(std::span<const query::Query>(f.workload));
  ASSERT_EQ(batch.size(), f.workload.size());
  for (size_t i = 0; i < f.workload.size(); ++i) {
    // EXPECT_EQ on doubles: the contract is bit-identity, not closeness.
    EXPECT_EQ(batch[i], f.pipeline.AnswerQuery(f.workload[i]))
        << "query " << i;
  }
}

// The pipeline answers every pair through AnswerExact; the reference scan
// Answer() must give the same bits for every 2-D predicate pair of the
// workload, on matrices rebuilt from the pipeline's grids.
TEST(QueryBatchTest, ScanPathIdenticalToExactPath) {
  const Fixture& f = GetFixture();
  const auto one_dim = [&f](uint32_t attr) -> const grid::Grid1D* {
    for (const grid::Grid1D& g : f.pipeline.grids_1d()) {
      if (g.attr() == attr) return &g;
    }
    return nullptr;
  };
  std::vector<std::vector<post::ResponseMatrix>> matrices(
      kAttributes, std::vector<post::ResponseMatrix>(kAttributes));
  for (const grid::Grid2D& g2 : f.pipeline.grids_2d()) {
    matrices[g2.attr_x()][g2.attr_y()] = post::ResponseMatrix::Build(
        g2, one_dim(g2.attr_x()), one_dim(g2.attr_y()),
        f.pipeline.config().response_matrix_options);
  }
  post::QueryScratch scratch;
  size_t pairs = 0;
  for (size_t q = 0; q < f.workload.size(); ++q) {
    const std::vector<query::Predicate>& predicates =
        f.workload[q].predicates();
    for (size_t a = 0; a < predicates.size(); ++a) {
      for (size_t b = a + 1; b < predicates.size(); ++b) {
        // Predicates are sorted by attribute, as the pair grids are.
        const post::ResponseMatrix& m =
            matrices[predicates[a].attr][predicates[b].attr];
        const grid::AxisSelection sx = predicates[a].ToSelection();
        const grid::AxisSelection sy = predicates[b].ToSelection();
        EXPECT_EQ(std::bit_cast<uint64_t>(m.AnswerExact(sx, sy, &scratch)),
                  std::bit_cast<uint64_t>(m.Answer(sx, sy)))
            << "query " << q << " pair (" << predicates[a].attr << ", "
            << predicates[b].attr << ")";
        ++pairs;
      }
    }
  }
  EXPECT_GT(pairs, 0u);
}

TEST(QueryBatchTest, EmptyBatchReturnsEmpty) {
  const Fixture& f = GetFixture();
  EXPECT_TRUE(
      f.pipeline.AnswerQueries(std::span<const query::Query>()).empty());
}

TEST(QueryBatchTest, AllAnswersWithinUnitInterval) {
  const Fixture& f = GetFixture();
  const std::vector<double> answers =
      f.pipeline.AnswerQueries(std::span<const query::Query>(f.workload));
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_GE(answers[i], 0.0) << "query " << i;
    EXPECT_LE(answers[i], 1.0) << "query " << i;
  }
}

TEST(QueryBatchTest, LambdaClampHoldsForInflatedGridFrequencies) {
  // Adversarial clamp check: rebuild the pipeline from grid frequencies
  // scaled x3 (FromEstimatedGrids stores them verbatim — a snapshot source
  // is not trusted to be normalized). Raw pair answers then exceed 1, and
  // every λ path — marginal, single pair, and the λ >= 3 fit, quadrant or
  // not — must still clamp its final answer into [0, 1].
  const Fixture& f = GetFixture();
  std::vector<std::vector<double>> inflated =
      f.pipeline.ExportGridFrequencies();
  for (auto& grid : inflated) {
    for (double& v : grid) v *= 3.0;
  }
  for (const bool quadrant_fit : {false, true}) {
    FelipConfig config = MakeConfig();
    config.lambda_quadrant_fit = quadrant_fit;
    const FelipPipeline pipeline = FelipPipeline::FromEstimatedGrids(
        f.dataset.attributes(), kUsers, config, inflated);

    // Wide full-ish ranges maximize the raw (unclamped) mass.
    std::vector<query::Query> wide;
    for (uint32_t dimension = 1; dimension <= kAttributes; ++dimension) {
      std::vector<query::Predicate> predicates;
      for (uint32_t attr = 0; attr < dimension; ++attr) {
        const uint32_t domain = f.dataset.attributes()[attr].domain;
        predicates.push_back({.attr = attr,
                              .op = query::Op::kBetween,
                              .lo = 0,
                              .hi = domain - 1});
      }
      wide.emplace_back(std::move(predicates));
    }
    std::vector<query::Query> workload = wide;
    Rng rng(kSeed + 2);
    for (uint32_t dimension = 2; dimension <= kAttributes; ++dimension) {
      const auto generated = query::GenerateQueries(
          f.dataset, 20, {.dimension = dimension, .selectivity = 0.8}, rng);
      workload.insert(workload.end(), generated.begin(), generated.end());
    }

    const std::vector<double> answers = pipeline.AnswerQueries(
        std::span<const query::Query>(workload));
    bool saw_saturated = false;
    for (size_t i = 0; i < answers.size(); ++i) {
      EXPECT_GE(answers[i], 0.0) << "query " << i;
      EXPECT_LE(answers[i], 1.0) << "query " << i;
      saw_saturated = saw_saturated || answers[i] == 1.0;
    }
    // The x3 inflation must actually have pushed something against the
    // clamp, or this test exercises nothing.
    EXPECT_TRUE(saw_saturated);
  }
}

// Expected answer of `query` from the serial Algorithm 4 loop
// (support/lambda_reference.h), fed by the pipeline's own 2-D and 1-D
// answers — which AnswerQuery clamps, as the fit clamps its inputs.
double ReferenceAnswer(const FelipPipeline& pipeline,
                       const query::Query& query) {
  const std::vector<query::Predicate>& predicates = query.predicates();
  const auto lambda = static_cast<uint32_t>(predicates.size());
  if (lambda <= 2) return pipeline.AnswerQuery(query);
  std::vector<double> pairs;
  std::vector<double> marginals;
  for (uint32_t a = 0; a < lambda; ++a) {
    for (uint32_t b = a + 1; b < lambda; ++b) {
      pairs.push_back(
          pipeline.AnswerQuery(query::Query({predicates[a], predicates[b]})));
    }
    marginals.push_back(pipeline.AnswerQuery(query::Query({predicates[a]})));
  }
  post::LambdaEstimatorOptions options;
  options.threshold =
      std::min(pipeline.config().lambda_threshold,
               1.0 / static_cast<double>(pipeline.num_users()));
  const double estimate =
      pipeline.config().lambda_quadrant_fit
          ? test_support::ReferenceEstimateLambdaQueryQuadrants(
                lambda, pairs, marginals, options)
          : test_support::ReferenceEstimateLambdaQuery(lambda, pairs,
                                                       options);
  return std::clamp(estimate, 0.0, 1.0);
}

// λ = 1..7 over eight attributes (IN on categorical, BETWEEN on numerical
// ones), shuffled, under both fits: every batch split — the whole
// workload and random chunks of it — carries the same bits per query as
// AnswerQuery and as the serial reference.
TEST(QueryBatchPropertyTest, ShuffledMixedLambdaBatchesMatchSerialFit) {
  constexpr uint32_t kWideAttributes = 8;
  const data::Dataset dataset = data::MakeIpumsLike(
      kUsers, kWideAttributes, kNumDomain, kCatDomain, kSeed);
  std::vector<query::Query> workload;
  Rng rng(kSeed + 3);
  for (uint32_t dimension = 1; dimension <= 7; ++dimension) {
    for (const double selectivity : {0.5, 0.1}) {
      const auto generated = query::GenerateQueries(
          dataset, 6, {.dimension = dimension, .selectivity = selectivity},
          rng);
      workload.insert(workload.end(), generated.begin(), generated.end());
    }
  }
  bool saw_in = false;
  bool saw_between = false;
  for (const query::Query& q : workload) {
    for (const query::Predicate& p : q.predicates()) {
      saw_in = saw_in || p.op == query::Op::kIn;
      saw_between = saw_between || p.op == query::Op::kBetween;
    }
  }
  ASSERT_TRUE(saw_in && saw_between);

  std::mt19937_64 shuffle(kSeed + 4);
  for (const bool quadrant_fit : {false, true}) {
    FelipConfig config = MakeConfig();
    config.lambda_quadrant_fit = quadrant_fit;
    const FelipPipeline pipeline = RunFelip(dataset, config);
    for (int round = 0; round < 3; ++round) {
      std::shuffle(workload.begin(), workload.end(), shuffle);
      const std::vector<double> whole =
          pipeline.AnswerQueries(std::span<const query::Query>(workload));
      ASSERT_EQ(whole.size(), workload.size());
      std::vector<double> chunked;
      for (size_t begin = 0; begin < workload.size();) {
        const size_t len = std::min<size_t>(1 + shuffle() % 11,
                                            workload.size() - begin);
        const std::vector<double> part = pipeline.AnswerQueries(
            std::span<const query::Query>(workload).subspan(begin, len));
        chunked.insert(chunked.end(), part.begin(), part.end());
        begin += len;
      }
      for (size_t i = 0; i < workload.size(); ++i) {
        const uint64_t bits = std::bit_cast<uint64_t>(whole[i]);
        EXPECT_EQ(bits, std::bit_cast<uint64_t>(chunked[i]))
            << "quadrant_fit=" << quadrant_fit << " query " << i;
        EXPECT_EQ(bits,
                  std::bit_cast<uint64_t>(pipeline.AnswerQuery(workload[i])))
            << "quadrant_fit=" << quadrant_fit << " query " << i;
        EXPECT_EQ(bits, std::bit_cast<uint64_t>(
                            ReferenceAnswer(pipeline, workload[i])))
            << "quadrant_fit=" << quadrant_fit << " query " << i
            << " lambda=" << workload[i].dimension();
      }
    }
  }
}

TEST(QueryBatchDeathTest, RejectsBetweenUpperBoundAtDomain) {
  const Fixture& f = GetFixture();
  const query::Query bad(
      {{.attr = 0, .op = query::Op::kBetween, .lo = 0, .hi = kNumDomain}});
  EXPECT_DEATH(f.pipeline.AnswerQuery(bad), "outside domain");
  EXPECT_DEATH(f.pipeline.AnswerQueries(
                   std::span<const query::Query>(&bad, 1)),
               "outside domain");
}

TEST(QueryBatchDeathTest, RejectsInValueOutsideDomain) {
  const Fixture& f = GetFixture();
  const query::Query bad(
      {{.attr = 1, .op = query::Op::kIn, .values = {0, kCatDomain}}});
  EXPECT_DEATH(f.pipeline.AnswerQuery(bad), "outside domain");
}

TEST(QueryBatchDeathTest, RejectsAttributeBeyondSchema) {
  const Fixture& f = GetFixture();
  const query::Query bad(
      {{.attr = kAttributes, .op = query::Op::kEquals, .lo = 0}});
  EXPECT_DEATH(f.pipeline.AnswerQuery(bad), "references attribute");
  // A valid query does not shield an invalid one later in the batch.
  const std::vector<query::Query> batch = {
      query::Query({{.attr = 0, .op = query::Op::kBetween, .lo = 0, .hi = 5}}),
      bad};
  EXPECT_DEATH(f.pipeline.AnswerQueries(
                   std::span<const query::Query>(batch)),
               "references attribute");
}

}  // namespace
}  // namespace felip::core
