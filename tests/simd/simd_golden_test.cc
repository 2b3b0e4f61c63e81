// End-to-end dispatch-equivalence tests: the SAME workload, re-run under
// every compiled-and-supported SIMD dispatch level, must produce
// BIT-IDENTICAL estimates — not "close", identical.
// This is the golden gate for the kernel layer: if an AVX2/NEON kernel
// deviates from the canonical scalar accumulation order anywhere in the
// FO aggregation or query path, one of these EXPECT_EQs trips.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/fo/grr.h"
#include "felip/fo/olh.h"
#include "felip/fo/oue.h"
#include "felip/query/generator.h"
#include "felip/query/query.h"
#include "felip/simd/dispatch.h"

namespace felip {
namespace {

std::vector<simd::Level> RunnableLevels() {
  std::vector<simd::Level> levels;
  for (const simd::Level level : simd::CompiledLevels()) {
    if (simd::LevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

// Bitwise comparison of estimate vectors; EXPECT_EQ on doubles is exact.
void ExpectIdentical(const std::vector<double>& got,
                     const std::vector<double>& want,
                     const char* what, simd::Level level) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i])
        << what << " level=" << simd::LevelName(level) << " i=" << i;
  }
}

TEST(SimdGoldenTest, GrrEstimatesIdenticalAcrossLevels) {
  constexpr uint64_t kDomain = 97;
  constexpr uint64_t kUsers = 20000;
  const fo::GrrClient client(/*epsilon=*/1.0, kDomain);
  Rng rng(11);
  std::vector<uint64_t> reports(kUsers);
  for (uint64_t u = 0; u < kUsers; ++u) {
    reports[u] = client.Perturb(u % kDomain, rng);
  }

  std::vector<double> baseline;
  {
    simd::ScopedLevelOverride pin(simd::Level::kScalar);
    fo::GrrServer server(1.0, kDomain);
    for (const auto& r : reports) server.Add(r);
    baseline = server.EstimateFrequencies();
  }
  for (const simd::Level level : RunnableLevels()) {
    simd::ScopedLevelOverride pin(level);
    fo::GrrServer server(1.0, kDomain);
    for (const auto& r : reports) server.Add(r);
    ExpectIdentical(server.EstimateFrequencies(), baseline, "grr", level);
  }
}

TEST(SimdGoldenTest, OueEstimatesIdenticalAcrossLevels) {
  constexpr uint64_t kDomain = 61;
  constexpr uint64_t kUsers = 3000;
  const fo::OueClient client(/*epsilon=*/1.0, kDomain);
  Rng rng(12);
  std::vector<std::vector<uint8_t>> reports(kUsers);
  for (uint64_t u = 0; u < kUsers; ++u) {
    reports[u] = client.Perturb(u % kDomain, rng);
  }

  std::vector<double> baseline;
  {
    simd::ScopedLevelOverride pin(simd::Level::kScalar);
    fo::OueServer server(1.0, kDomain);
    for (const auto& r : reports) server.Add(r);
    baseline = server.EstimateFrequencies();
  }
  for (const simd::Level level : RunnableLevels()) {
    simd::ScopedLevelOverride pin(level);
    fo::OueServer server(1.0, kDomain);
    for (const auto& r : reports) server.Add(r);
    ExpectIdentical(server.EstimateFrequencies(), baseline, "oue", level);
  }
}

TEST(SimdGoldenTest, OlhPerUserEstimatesIdenticalAcrossLevels) {
  constexpr uint64_t kDomain = 211;
  constexpr uint64_t kUsers = 4000;
  const fo::OlhClient client(/*epsilon=*/1.0, kDomain);
  Rng rng(13);
  std::vector<fo::OlhReport> reports(kUsers);
  for (uint64_t u = 0; u < kUsers; ++u) {
    reports[u] = client.Perturb(u % kDomain, rng);
  }

  std::vector<double> baseline;
  {
    simd::ScopedLevelOverride pin(simd::Level::kScalar);
    fo::OlhServer server(1.0, kDomain);
    for (const auto& r : reports) server.Add(r);
    baseline = server.EstimateFrequencies();
  }
  for (const simd::Level level : RunnableLevels()) {
    simd::ScopedLevelOverride pin(level);
    fo::OlhServer server(1.0, kDomain);
    for (const auto& r : reports) server.Add(r);
    ExpectIdentical(server.EstimateFrequencies(), baseline, "olh-per-user",
                    level);
  }
}

TEST(SimdGoldenTest, OlhPoolEstimatesIdenticalAcrossLevels) {
  constexpr uint64_t kDomain = 211;
  constexpr uint64_t kUsers = 20000;
  const fo::OlhOptions options{.seed_pool_size = 64, .pool_salt = 99};
  const fo::OlhClient client(/*epsilon=*/1.0, kDomain, options);
  Rng rng(14);
  std::vector<fo::OlhReport> reports(kUsers);
  for (uint64_t u = 0; u < kUsers; ++u) {
    reports[u] = client.Perturb(u % kDomain, rng);
  }

  std::vector<double> baseline;
  {
    simd::ScopedLevelOverride pin(simd::Level::kScalar);
    fo::OlhServer server(1.0, kDomain, options);
    for (const auto& r : reports) server.Add(r);
    baseline = server.EstimateFrequencies();
  }
  for (const simd::Level level : RunnableLevels()) {
    simd::ScopedLevelOverride pin(level);
    fo::OlhServer server(1.0, kDomain, options);
    for (const auto& r : reports) server.Add(r);
    ExpectIdentical(server.EstimateFrequencies(), baseline, "olh-pool", level);
  }
}

// Full pipeline: dataset -> perturbation -> aggregation -> consistency ->
// response matrices -> query answers, re-run per dispatch level. Covers
// the post/ kernel (Dot in ScanRect) and the query engine's FitIpf on top
// of the FO ones. The IPF sweeps of the
// response-matrix build run the same scalar loops at every level;
// ResponseMatrixPinTest pins their bits.
TEST(SimdGoldenTest, PipelineAnswersIdenticalAcrossLevels) {
  const data::Dataset dataset = data::MakeIpumsLike(
      /*n=*/1500, /*attributes=*/4, /*num_domain=*/40, /*cat_domain=*/6,
      /*seed=*/21);
  core::FelipConfig config;
  config.epsilon = 1.0;
  config.seed = 5;
  config.olh_options.seed_pool_size = 128;

  std::vector<query::Query> queries;
  for (const uint32_t lambda : {2u, 3u}) {
    Rng rng(77 + lambda);
    auto batch = query::GenerateQueries(
        dataset, /*count=*/4, {.dimension = lambda, .selectivity = 0.5},
        rng);
    queries.insert(queries.end(), batch.begin(), batch.end());
  }

  const auto answers_at = [&](simd::Level level) {
    simd::ScopedLevelOverride pin(level);
    const core::FelipPipeline pipeline = core::RunFelip(dataset, config);
    std::vector<double> answers;
    answers.reserve(queries.size());
    for (const query::Query& q : queries) {
      answers.push_back(pipeline.AnswerQuery(q));
    }
    return answers;
  };

  const std::vector<double> baseline = answers_at(simd::Level::kScalar);
  ASSERT_EQ(baseline.size(), queries.size());
  for (const simd::Level level : RunnableLevels()) {
    ExpectIdentical(answers_at(level), baseline, "pipeline", level);
  }
}

}  // namespace
}  // namespace felip
