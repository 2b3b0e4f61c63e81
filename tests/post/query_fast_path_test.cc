// Exactness contract of the fast answer path (docs/query_engine.md).
//
// AnswerExact must be bit-identical to the reference scan Answer() for
// every selection type, and both must agree with a brute-force sum over
// the dense export. Partitions are chosen with coprime cell counts so the
// refinement blocks are genuinely unequal.

#include "felip/post/response_matrix.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/grid/grid.h"

namespace felip::post {
namespace {

using grid::AxisSelection;
using grid::Grid1D;
using grid::Grid2D;
using grid::Partition1D;

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

Grid2D RandomGrid2D(uint32_t dx, uint32_t dy, uint32_t lx, uint32_t ly,
                    uint64_t seed) {
  Grid2D g(0, 1, Partition1D(dx, lx), Partition1D(dy, ly));
  Rng rng(seed);
  std::vector<double> f(g.num_cells());
  for (double& v : f) v = rng.UniformDouble() + 0.01;
  const double total = Sum(f);
  for (double& v : f) v /= total;
  g.SetFrequencies(f);
  return g;
}

Grid1D RandomGrid1D(uint32_t attr, uint32_t domain, uint32_t cells,
                    uint64_t seed) {
  Grid1D g(attr, Partition1D(domain, cells));
  Rng rng(seed);
  std::vector<double> f(cells);
  for (double& v : f) v = rng.UniformDouble() + 0.01;
  const double total = Sum(f);
  for (double& v : f) v /= total;
  g.SetFrequencies(f);
  return g;
}

// A matrix whose refinement blocks have many distinct widths: 2-D cell
// counts (7, 5) against 1-D cell counts (11, 9) over domains (60, 48).
ResponseMatrix UnequalBlockMatrix(uint64_t seed, Grid2D* g2_out = nullptr) {
  const Grid2D g2 = RandomGrid2D(60, 48, 7, 5, seed);
  const Grid1D gx = RandomGrid1D(0, 60, 11, seed + 10);
  const Grid1D gy = RandomGrid1D(1, 48, 9, seed + 20);
  if (g2_out != nullptr) *g2_out = g2;
  return ResponseMatrix::Build(g2, &gx, &gy);
}

AxisSelection RandomRange(Rng& rng, uint32_t domain) {
  const uint32_t lo = static_cast<uint32_t>(rng.UniformU64(domain));
  const uint32_t hi =
      lo + static_cast<uint32_t>(rng.UniformU64(domain - lo));
  return AxisSelection::MakeRange(lo, hi);
}

AxisSelection RandomSet(Rng& rng, uint32_t domain) {
  const uint64_t count = 1 + rng.UniformU64(8);
  std::vector<uint32_t> values;
  values.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    values.push_back(static_cast<uint32_t>(rng.UniformU64(domain)));
  }
  return AxisSelection::MakeSet(values);
}

TEST(QueryFastPathTest, ExactBitIdenticalToScanOnRanges) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    const ResponseMatrix m = UnequalBlockMatrix(seed);
    QueryScratch scratch;
    Rng rng(seed + 100);
    for (int trial = 0; trial < 300; ++trial) {
      const AxisSelection sx = RandomRange(rng, m.domain_x());
      const AxisSelection sy = RandomRange(rng, m.domain_y());
      // EXPECT_EQ on doubles: bit-identity, not approximate agreement.
      EXPECT_EQ(m.AnswerExact(sx, sy, &scratch), m.Answer(sx, sy))
          << "seed=" << seed << " trial=" << trial;
    }
  }
}

TEST(QueryFastPathTest, ExactBitIdenticalToScanOnSetsAndMixed) {
  const ResponseMatrix m = UnequalBlockMatrix(4);
  QueryScratch scratch;
  Rng rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    const AxisSelection sx = (trial % 2 == 0)
                                 ? RandomSet(rng, m.domain_x())
                                 : RandomRange(rng, m.domain_x());
    const AxisSelection sy = (trial % 3 == 0)
                                 ? RandomRange(rng, m.domain_y())
                                 : RandomSet(rng, m.domain_y());
    EXPECT_EQ(m.AnswerExact(sx, sy, &scratch), m.Answer(sx, sy))
        << "trial=" << trial;
  }
}

TEST(QueryFastPathTest, ExactHandlesBoundaryRanges) {
  const ResponseMatrix m = UnequalBlockMatrix(5);
  QueryScratch scratch;
  const std::vector<std::pair<AxisSelection, AxisSelection>> cases = {
      // Single values at the domain corners.
      {AxisSelection::MakeRange(0, 0), AxisSelection::MakeRange(0, 0)},
      {AxisSelection::MakeRange(59, 59), AxisSelection::MakeRange(47, 47)},
      // Full domain, expressed as a range.
      {AxisSelection::MakeRange(0, 59), AxisSelection::MakeRange(0, 47)},
      // Upper bound beyond the domain: clamped, not out-of-bounds.
      {AxisSelection::MakeRange(30, 100), AxisSelection::MakeRange(40, 200)},
      // Whole selection past the domain: exactly zero.
      {AxisSelection::MakeRange(90, 100), AxisSelection::MakeRange(0, 47)},
  };
  for (const auto& [sx, sy] : cases) {
    EXPECT_EQ(m.AnswerExact(sx, sy, &scratch), m.Answer(sx, sy));
  }
  EXPECT_EQ(m.AnswerExact(AxisSelection::MakeRange(90, 100),
                          AxisSelection::MakeRange(0, 47), &scratch),
            0.0);
}

TEST(QueryFastPathTest, AllPathsMatchDenseBruteForce) {
  // Ground truth from the dense export: every selected (x, y) value's
  // individual frequency, summed. Pins the block-coverage arithmetic
  // itself, not just path-vs-path consistency.
  const ResponseMatrix m = UnequalBlockMatrix(9);
  const std::vector<double> dense = m.ToDense();
  const uint32_t dy = m.domain_y();
  QueryScratch scratch;
  Rng rng(91);
  for (int trial = 0; trial < 60; ++trial) {
    const AxisSelection sx = (trial % 2 == 0) ? RandomRange(rng, m.domain_x())
                                              : RandomSet(rng, m.domain_x());
    const AxisSelection sy = (trial % 3 == 0) ? RandomSet(rng, m.domain_y())
                                              : RandomRange(rng, m.domain_y());
    double brute = 0.0;
    for (uint32_t x = 0; x < m.domain_x(); ++x) {
      if (!sx.Contains(x)) continue;
      for (uint32_t y = 0; y < dy; ++y) {
        if (sy.Contains(y)) brute += dense[x * dy + y];
      }
    }
    EXPECT_NEAR(m.Answer(sx, sy), brute, 1e-9) << "trial=" << trial;
    EXPECT_NEAR(m.AnswerExact(sx, sy, &scratch), brute, 1e-9);
  }
}

TEST(QueryFastPathTest, OneScratchServesMatricesOfDifferentSizes) {
  // The batch engine reuses one scratch per batch across every pair
  // matrix a query touches; shrinking from a large matrix to a small one
  // must not leave stale coverage behind.
  const ResponseMatrix big = UnequalBlockMatrix(10);
  const Grid2D small_grid = RandomGrid2D(6, 4, 3, 2, 11);
  const ResponseMatrix small =
      ResponseMatrix::Build(small_grid, nullptr, nullptr);
  QueryScratch scratch;
  Rng rng(111);
  for (int trial = 0; trial < 50; ++trial) {
    const AxisSelection bx = RandomRange(rng, big.domain_x());
    const AxisSelection by = RandomRange(rng, big.domain_y());
    EXPECT_EQ(big.AnswerExact(bx, by, &scratch), big.Answer(bx, by));
    const AxisSelection cx = RandomSet(rng, small.domain_x());
    const AxisSelection cy = RandomRange(rng, small.domain_y());
    EXPECT_EQ(small.AnswerExact(cx, cy, &scratch), small.Answer(cx, cy));
  }
}

}  // namespace
}  // namespace felip::post
