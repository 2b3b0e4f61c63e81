#include "felip/post/response_matrix.h"

#include <algorithm>
#include <cmath>

#include "felip/common/check.h"
#include "felip/simd/dispatch.h"
#include "felip/simd/kernels.h"
#include "felip/simd/kernels_internal.h"

namespace felip::post {

namespace {

using grid::Grid1D;
using grid::Grid2D;
using grid::Partition1D;

// One proportional-fitting constraint: the blocks in the rectangle
// [x0, x1) x [y0, y1) (block indices) must sum to `target`.
struct Constraint {
  uint32_t x0, x1, y0, y1;
  double target;
};

// Index of `value` in the block boundary list `b` (first i with
// b[i] <= value < b[i+1]).
uint32_t BlockOf(const std::vector<uint32_t>& b, uint32_t value) {
  const auto it = std::upper_bound(b.begin(), b.end(), value);
  FELIP_CHECK(it != b.begin());
  return static_cast<uint32_t>(it - b.begin()) - 1;
}

// Maps a cell's half-open value interval to a half-open block range.
// Boundaries refine the cells, so the mapping is exact.
std::pair<uint32_t, uint32_t> BlockRange(const std::vector<uint32_t>& b,
                                         uint32_t begin, uint32_t end) {
  const uint32_t b0 = BlockOf(b, begin);
  const uint32_t b1 = BlockOf(b, end - 1) + 1;
  FELIP_CHECK(b[b0] == begin);
  FELIP_CHECK(b[b1] == end);
  return {b0, b1};
}

// Builds all constraints for the related grids, in Γ order (1-D x, 1-D y,
// then the 2-D grid) — the order the dense reference also uses.
std::vector<Constraint> BuildConstraints(const Grid2D& g2, const Grid1D* gx,
                                         const Grid1D* gy,
                                         const std::vector<uint32_t>& bx,
                                         const std::vector<uint32_t>& by) {
  std::vector<Constraint> constraints;
  const auto nby = static_cast<uint32_t>(by.size() - 1);
  const auto nbx = static_cast<uint32_t>(bx.size() - 1);
  if (gx != nullptr) {
    for (uint32_t c = 0; c < gx->num_cells(); ++c) {
      const auto [x0, x1] = BlockRange(bx, gx->partition().CellBegin(c),
                                       gx->partition().CellEnd(c));
      constraints.push_back({x0, x1, 0, nby, gx->frequencies()[c]});
    }
  }
  if (gy != nullptr) {
    for (uint32_t c = 0; c < gy->num_cells(); ++c) {
      const auto [y0, y1] = BlockRange(by, gy->partition().CellBegin(c),
                                       gy->partition().CellEnd(c));
      constraints.push_back({0, nbx, y0, y1, gy->frequencies()[c]});
    }
  }
  for (uint32_t cx = 0; cx < g2.px().num_cells(); ++cx) {
    const auto [x0, x1] =
        BlockRange(bx, g2.px().CellBegin(cx), g2.px().CellEnd(cx));
    for (uint32_t cy = 0; cy < g2.py().num_cells(); ++cy) {
      const auto [y0, y1] =
          BlockRange(by, g2.py().CellBegin(cy), g2.py().CellEnd(cy));
      constraints.push_back(
          {x0, x1, y0, y1, g2.frequencies()[g2.CellIndex(cx, cy)]});
    }
  }
  return constraints;
}

// Inclusive block interval [*first, *last] that `sel` can touch in the
// boundary list `b` over `domain`, or false when the selection lies
// entirely at or above the domain (zero coverage everywhere). Selections
// are contiguous (ranges) or sorted (sets), so the touched blocks are the
// ones between the blocks of the smallest and largest selected values;
// blocks outside contribute exactly-zero coverage.
bool TouchedBlocks(const std::vector<uint32_t>& b, uint32_t domain,
                   const grid::AxisSelection& sel, uint32_t* first,
                   uint32_t* last) {
  const uint32_t lo = sel.is_range() ? sel.lo() : sel.values().front();
  const uint32_t hi = sel.is_range() ? sel.hi() : sel.values().back();
  if (lo >= domain) return false;
  *first = BlockOf(b, lo);
  *last = BlockOf(b, std::min(hi, domain - 1));
  return true;
}

// One per-axis run of blocks [b0, b1) sharing a coverage weight: the
// fractional first block, the fully-covered interior, the fractional last
// block. At most three per axis for a range selection.
struct Segment {
  uint32_t b0, b1;
  double w;
};

int RangeSegments(const std::vector<uint32_t>& b,
                  const grid::AxisSelection& sel, uint32_t first,
                  uint32_t last, Segment out[3]) {
  int n = 0;
  out[n++] = {first, first + 1, sel.CoverageOfInterval(b[first], b[first + 1])};
  if (first == last) return n;
  if (last > first + 1) out[n++] = {first + 1, last, 1.0};
  out[n++] = {last, last + 1, sel.CoverageOfInterval(b[last], b[last + 1])};
  return n;
}

void ValidateInputs(const Grid2D& g2, const Grid1D* gx, const Grid1D* gy) {
  if (gx != nullptr) {
    FELIP_CHECK_MSG(gx->attr() == g2.attr_x(), "gx is not the x attribute");
    FELIP_CHECK(gx->partition().domain() == g2.px().domain());
  }
  if (gy != nullptr) {
    FELIP_CHECK_MSG(gy->attr() == g2.attr_y(), "gy is not the y attribute");
    FELIP_CHECK(gy->partition().domain() == g2.py().domain());
  }
}

}  // namespace

ResponseMatrix ResponseMatrix::Build(const Grid2D& g2, const Grid1D* gx,
                                     const Grid1D* gy,
                                     const ResponseMatrixOptions& options) {
  ValidateInputs(g2, gx, gy);
  ResponseMatrix m;
  m.domain_x_ = g2.px().domain();
  m.domain_y_ = g2.py().domain();

  std::vector<const Partition1D*> parts_x = {&g2.px()};
  if (gx != nullptr) parts_x.push_back(&gx->partition());
  std::vector<const Partition1D*> parts_y = {&g2.py()};
  if (gy != nullptr) parts_y.push_back(&gy->partition());
  m.bx_ = grid::CommonRefinementBoundaries(parts_x);
  m.by_ = grid::CommonRefinementBoundaries(parts_y);

  const auto nbx = static_cast<uint32_t>(m.bx_.size() - 1);
  const auto nby = static_cast<uint32_t>(m.by_.size() - 1);
  m.mass_.resize(static_cast<size_t>(nbx) * nby);

  // Uniform joint start: block mass proportional to block area.
  const double inv_total =
      1.0 / (static_cast<double>(m.domain_x_) * m.domain_y_);
  for (uint32_t i = 0; i < nbx; ++i) {
    const double w = m.bx_[i + 1] - m.bx_[i];
    for (uint32_t j = 0; j < nby; ++j) {
      const double h = m.by_[j + 1] - m.by_[j];
      m.mass_[static_cast<size_t>(i) * nby + j] = w * h * inv_total;
    }
  }

  const std::vector<Constraint> constraints =
      BuildConstraints(g2, gx, gy, m.bx_, m.by_);

  // A constraint's row holds 2.5 blocks on average, so the canonical
  // lane-folded loops run inline: a dispatched call per row cost more
  // than its arithmetic.
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double total_change = 0.0;
    for (const Constraint& c : constraints) {
      double sum = 0.0;
      for (uint32_t i = c.x0; i < c.x1; ++i) {
        const double* row = &m.mass_[static_cast<size_t>(i) * nby];
        sum += simd::scalar_impl::Sum(row + c.y0, c.y1 - c.y0);
      }
      if (sum <= 0.0) continue;  // Algorithm 3 line 8: skip S == 0
      const double scale = c.target / sum;
      if (scale == 1.0) continue;
      for (uint32_t i = c.x0; i < c.x1; ++i) {
        double* row = &m.mass_[static_cast<size_t>(i) * nby];
        total_change +=
            simd::scalar_impl::ScaleAbsDelta(row + c.y0, c.y1 - c.y0, scale);
      }
    }
    if (total_change < options.threshold) break;
  }
  m.BuildPrefixSums();
  return m;
}

double ResponseMatrix::ScanRect(const grid::AxisSelection& sel_x,
                                const grid::AxisSelection& sel_y,
                                uint32_t x0, uint32_t x1, uint32_t y0,
                                uint32_t y1, QueryScratch* scratch) const {
  const auto nby = static_cast<uint32_t>(by_.size() - 1);
  const uint32_t ny = y1 - y0 + 1;
  if (scratch->cover_y.size() < ny) scratch->cover_y.resize(ny);
  if (scratch->cols_y.size() < ny) scratch->cols_y.resize(ny);
  double* cover_y = scratch->cover_y.data();
  uint32_t* cols_y = scratch->cols_y.data();
  // Compact the nonzero-coverage columns. Both callers end up with the
  // same (column, weight) sequence: blocks outside the touched interval
  // have exactly-zero coverage and are dropped here either way.
  size_t m = 0;
  for (uint32_t j = 0; j < ny; ++j) {
    const double w = sel_y.CoverageOfInterval(by_[y0 + j], by_[y0 + j + 1]);
    if (w != 0.0) {
      cover_y[m] = w;
      cols_y[m] = y0 + j;
      ++m;
    }
  }
  if (m == 0) return 0.0;
  // Range selections compact to one contiguous column run, which the dot
  // kernel can read straight out of the row; set selections gather first.
  const bool contiguous = cols_y[m - 1] - cols_y[0] + 1 == m;
  if (!contiguous && scratch->gathered.size() < m) {
    scratch->gathered.resize(m);
  }
  const simd::Level level = simd::ActiveLevel();
  double total = 0.0;
  for (uint32_t i = x0; i <= x1; ++i) {
    const double cx = sel_x.CoverageOfInterval(bx_[i], bx_[i + 1]);
    if (cx == 0.0) continue;
    const double* row = &mass_[static_cast<size_t>(i) * nby];
    double row_sum;
    if (contiguous) {
      row_sum = simd::Dot(level, row + cols_y[0], cover_y, m);
    } else {
      double* gathered = scratch->gathered.data();
      for (size_t k = 0; k < m; ++k) gathered[k] = row[cols_y[k]];
      row_sum = simd::Dot(level, gathered, cover_y, m);
    }
    total += row_sum * cx;
  }
  return total;
}

double ResponseMatrix::Answer(const grid::AxisSelection& sel_x,
                              const grid::AxisSelection& sel_y) const {
  const auto nbx = static_cast<uint32_t>(bx_.size() - 1);
  const auto nby = static_cast<uint32_t>(by_.size() - 1);
  QueryScratch scratch;
  return ScanRect(sel_x, sel_y, 0, nbx - 1, 0, nby - 1, &scratch);
}

double ResponseMatrix::AnswerExact(const grid::AxisSelection& sel_x,
                                   const grid::AxisSelection& sel_y,
                                   QueryScratch* scratch) const {
  FELIP_CHECK(scratch != nullptr);
  uint32_t x0 = 0, x1 = 0, y0 = 0, y1 = 0;
  if (!TouchedBlocks(bx_, domain_x_, sel_x, &x0, &x1) ||
      !TouchedBlocks(by_, domain_y_, sel_y, &y0, &y1)) {
    return 0.0;
  }
  return ScanRect(sel_x, sel_y, x0, x1, y0, y1, scratch);
}

double ResponseMatrix::AnswerPrefix(const grid::AxisSelection& sel_x,
                                    const grid::AxisSelection& sel_y,
                                    QueryScratch* scratch) const {
  if (!sel_x.is_range() || !sel_y.is_range()) {
    return AnswerExact(sel_x, sel_y, scratch);
  }
  uint32_t x0 = 0, x1 = 0, y0 = 0, y1 = 0;
  if (!TouchedBlocks(bx_, domain_x_, sel_x, &x0, &x1) ||
      !TouchedBlocks(by_, domain_y_, sel_y, &y0, &y1)) {
    return 0.0;
  }
  Segment segs_x[3];
  Segment segs_y[3];
  const int nx = RangeSegments(bx_, sel_x, x0, x1, segs_x);
  const int ny = RangeSegments(by_, sel_y, y0, y1, segs_y);
  double total = 0.0;
  for (int a = 0; a < nx; ++a) {
    for (int b = 0; b < ny; ++b) {
      total += segs_x[a].w * segs_y[b].w *
               PrefixRect(segs_x[a].b0, segs_x[a].b1, segs_y[b].b0,
                          segs_y[b].b1);
    }
  }
  return total;
}

void ResponseMatrix::BuildPrefixSums() {
  const auto nbx = static_cast<uint32_t>(bx_.size() - 1);
  const auto nby = static_cast<uint32_t>(by_.size() - 1);
  const size_t stride = nby + 1;
  prefix_.assign((static_cast<size_t>(nbx) + 1) * stride, 0.0);
  // Two passes per row: the serial running row sum (a true dependency
  // chain), then the element-wise vectorizable propagation from the
  // previous prefix row. Same additions on the same values as the old
  // interleaved loop, so the table is bit-identical — and row i + 1 is
  // written in one streaming pass instead of strided row hops.
  std::vector<double> running(stride);
  const simd::Level level = simd::ActiveLevel();
  for (uint32_t i = 0; i < nbx; ++i) {
    const double* row = &mass_[static_cast<size_t>(i) * nby];
    running[0] = 0.0;
    for (uint32_t j = 0; j < nby; ++j) running[j + 1] = running[j] + row[j];
    simd::AddF64(level, &prefix_[static_cast<size_t>(i) * stride],
                 running.data(),
                 &prefix_[(static_cast<size_t>(i) + 1) * stride], stride);
  }
}

double ResponseMatrix::PrefixRect(uint32_t x0, uint32_t x1, uint32_t y0,
                                  uint32_t y1) const {
  const size_t stride = by_.size();
  const double* s = prefix_.data();
  return s[x1 * stride + y1] - s[x0 * stride + y1] - s[x1 * stride + y0] +
         s[x0 * stride + y0];
}

ResponseMatrix::Blocks ResponseMatrix::ExportBlocks() const {
  Blocks blocks;
  blocks.domain_x = domain_x_;
  blocks.domain_y = domain_y_;
  blocks.bx = bx_;
  blocks.by = by_;
  blocks.mass = mass_;
  return blocks;
}

bool ResponseMatrix::FromBlocks(Blocks blocks, ResponseMatrix* out) {
  if (out == nullptr) return false;
  if (blocks.domain_x == 0 || blocks.domain_y == 0) return false;
  const auto valid_boundaries = [](const std::vector<uint32_t>& b,
                                   uint32_t domain) {
    if (b.size() < 2 || b.front() != 0 || b.back() != domain) return false;
    for (size_t i = 0; i + 1 < b.size(); ++i) {
      if (b[i] >= b[i + 1]) return false;
    }
    return true;
  };
  if (!valid_boundaries(blocks.bx, blocks.domain_x)) return false;
  if (!valid_boundaries(blocks.by, blocks.domain_y)) return false;
  const size_t nbx = blocks.bx.size() - 1;
  const size_t nby = blocks.by.size() - 1;
  if (blocks.mass.size() != nbx * nby) return false;
  for (const double m : blocks.mass) {
    if (!std::isfinite(m) || m < 0.0) return false;
  }
  ResponseMatrix matrix;
  matrix.domain_x_ = blocks.domain_x;
  matrix.domain_y_ = blocks.domain_y;
  matrix.bx_ = std::move(blocks.bx);
  matrix.by_ = std::move(blocks.by);
  matrix.mass_ = std::move(blocks.mass);
  matrix.BuildPrefixSums();
  *out = std::move(matrix);
  return true;
}

std::vector<double> ResponseMatrix::ToDense() const {
  const auto nby = static_cast<uint32_t>(by_.size() - 1);
  std::vector<double> dense(static_cast<size_t>(domain_x_) * domain_y_);
  for (uint32_t i = 0; i + 1 < bx_.size(); ++i) {
    const double w = bx_[i + 1] - bx_[i];
    for (uint32_t j = 0; j + 1 < by_.size(); ++j) {
      const double h = by_[j + 1] - by_[j];
      const double density = mass_[static_cast<size_t>(i) * nby + j] / (w * h);
      for (uint32_t x = bx_[i]; x < bx_[i + 1]; ++x) {
        for (uint32_t y = by_[j]; y < by_[j + 1]; ++y) {
          dense[static_cast<size_t>(x) * domain_y_ + y] = density;
        }
      }
    }
  }
  return dense;
}

std::vector<double> BuildResponseMatrixDense(
    const Grid2D& g2, const Grid1D* gx, const Grid1D* gy,
    const ResponseMatrixOptions& options) {
  ValidateInputs(g2, gx, gy);
  const uint32_t dx = g2.px().domain();
  const uint32_t dy = g2.py().domain();
  std::vector<double> m(static_cast<size_t>(dx) * dy,
                        1.0 / (static_cast<double>(dx) * dy));

  // Value-space constraints in the same Γ order as the block version.
  struct Region {
    uint32_t x0, x1, y0, y1;  // half-open value ranges
    double target;
  };
  std::vector<Region> regions;
  if (gx != nullptr) {
    for (uint32_t c = 0; c < gx->num_cells(); ++c) {
      regions.push_back({gx->partition().CellBegin(c),
                         gx->partition().CellEnd(c), 0, dy,
                         gx->frequencies()[c]});
    }
  }
  if (gy != nullptr) {
    for (uint32_t c = 0; c < gy->num_cells(); ++c) {
      regions.push_back({0, dx, gy->partition().CellBegin(c),
                         gy->partition().CellEnd(c), gy->frequencies()[c]});
    }
  }
  for (uint32_t cx = 0; cx < g2.px().num_cells(); ++cx) {
    for (uint32_t cy = 0; cy < g2.py().num_cells(); ++cy) {
      regions.push_back({g2.px().CellBegin(cx), g2.px().CellEnd(cx),
                         g2.py().CellBegin(cy), g2.py().CellEnd(cy),
                         g2.frequencies()[g2.CellIndex(cx, cy)]});
    }
  }

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double total_change = 0.0;
    for (const Region& r : regions) {
      double sum = 0.0;
      for (uint32_t x = r.x0; x < r.x1; ++x) {
        const double* row = &m[static_cast<size_t>(x) * dy];
        for (uint32_t y = r.y0; y < r.y1; ++y) sum += row[y];
      }
      if (sum <= 0.0) continue;
      const double scale = r.target / sum;
      if (scale == 1.0) continue;
      for (uint32_t x = r.x0; x < r.x1; ++x) {
        double* row = &m[static_cast<size_t>(x) * dy];
        for (uint32_t y = r.y0; y < r.y1; ++y) {
          const double updated = row[y] * scale;
          total_change += std::fabs(updated - row[y]);
          row[y] = updated;
        }
      }
    }
    if (total_change < options.threshold) break;
  }
  return m;
}

}  // namespace felip::post
