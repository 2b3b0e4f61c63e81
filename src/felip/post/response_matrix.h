// Response matrix construction (Algorithm 3, Weighted Update).
//
// For an attribute pair (a_i, a_j), the response matrix M estimates the
// joint frequency of every 2-D value from the pair's related grids
// Γ = {G(i), G(j), G(i,j)} (the 1-D grids are absent under OUG and for
// categorical attributes). Starting from the uniform joint, each grid cell
// imposes "mass of my region == my frequency"; iterating the proportional
// rescale converges to a joint consistent with all grids.
//
// Every rescale preserves piecewise-constancy of M on the common refinement
// of the related grids' partitions, so the production implementation
// (ResponseMatrix) stores one mass per refined *block* — O(blocks) per
// sweep instead of O(d_i * d_j). BuildResponseMatrixDense is the literal
// Algorithm 3 over the dense matrix, kept as the reference implementation;
// property tests assert the two agree.

#ifndef FELIP_POST_RESPONSE_MATRIX_H_
#define FELIP_POST_RESPONSE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "felip/grid/grid.h"

namespace felip::post {

// Reusable workspace for the allocation-free answer path. ResponseMatrix
// never writes beyond the block counts of the matrix being queried, so one
// scratch serves matrices of any size; the batch query engine keeps one
// per batch.
struct QueryScratch {
  // Compacted nonzero y-coverage weights, their block columns, and the
  // gathered row values for non-contiguous (set-selection) columns.
  std::vector<double> cover_y;
  std::vector<uint32_t> cols_y;
  std::vector<double> gathered;
};

struct ResponseMatrixOptions {
  // Convergence: total absolute mass change per sweep below this. The
  // paper recommends < 1/n; callers pass their population size.
  double threshold = 1e-7;
  int max_iterations = 200;
};

class ResponseMatrix {
 public:
  // An empty placeholder; assign a Build() result before use.
  ResponseMatrix() = default;

  // Builds the matrix for `g2`'s attribute pair from the related grids.
  // `gx` / `gy` are the 1-D grids of the x / y attributes, or nullptr when
  // absent. All grids must carry non-negative post-processed frequencies.
  static ResponseMatrix Build(const grid::Grid2D& g2, const grid::Grid1D* gx,
                              const grid::Grid1D* gy,
                              const ResponseMatrixOptions& options = {});

  uint32_t domain_x() const { return domain_x_; }
  uint32_t domain_y() const { return domain_y_; }

  // Estimated frequency of the conjunction of two per-axis selections.
  // Reference scan: walks every block, allocating coverage storage per
  // call. AnswerExact below is the production path.
  double Answer(const grid::AxisSelection& sel_x,
                const grid::AxisSelection& sel_y) const;

  // Allocation-free covered-rectangle scan: binary-searches the block
  // interval each selection touches and accumulates only those blocks, in
  // the same floating-point operation order as Answer() — blocks outside
  // the interval have exactly-zero coverage and contribute nothing to the
  // scan either — so the result is bit-identical to Answer() for every
  // selection type.
  double AnswerExact(const grid::AxisSelection& sel_x,
                     const grid::AxisSelection& sel_y,
                     QueryScratch* scratch) const;

  // Dense d_i x d_j export (row-major, x-major); for tests and small
  // domains.
  std::vector<double> ToDense() const;

  // Block structure introspection (tests, benchmarks).
  size_t num_blocks() const { return mass_.size(); }

  // The converged block structure, which is the matrix's entire state
  // (tests pin its bits).
  struct Blocks {
    uint32_t domain_x = 0;
    uint32_t domain_y = 0;
    std::vector<uint32_t> bx;  // x block boundaries, size nbx + 1
    std::vector<uint32_t> by;  // y block boundaries, size nby + 1
    std::vector<double> mass;  // nbx * nby, row-major
  };
  Blocks ExportBlocks() const;

 private:
  // Shared scan over the inclusive block rectangle [x0, x1] x [y0, y1]:
  // compacts the nonzero-coverage columns, then runs the dispatched dot
  // kernel per surviving row. Answer() passes the full block rectangle and
  // AnswerExact() the touched one; zero-coverage blocks contribute nothing
  // either way, so both produce identical compacted inputs — and therefore
  // bit-identical results — for every selection and dispatch level.
  double ScanRect(const grid::AxisSelection& sel_x,
                  const grid::AxisSelection& sel_y, uint32_t x0, uint32_t x1,
                  uint32_t y0, uint32_t y1, QueryScratch* scratch) const;

  uint32_t domain_x_ = 0;
  uint32_t domain_y_ = 0;
  std::vector<uint32_t> bx_;   // x block boundaries, size nbx + 1
  std::vector<uint32_t> by_;   // y block boundaries, size nby + 1
  std::vector<double> mass_;   // nbx * nby, row-major, total mass per block
};

// Literal Algorithm 3 over the dense d_i x d_j matrix (reference
// implementation; O(d_i * d_j) per sweep).
std::vector<double> BuildResponseMatrixDense(
    const grid::Grid2D& g2, const grid::Grid1D* gx, const grid::Grid1D* gy,
    const ResponseMatrixOptions& options = {});

}  // namespace felip::post

#endif  // FELIP_POST_RESPONSE_MATRIX_H_
