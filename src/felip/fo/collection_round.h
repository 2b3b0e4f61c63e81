// The device loop of a collection round, written once for
// FelipPipeline::Collect, svc::PopulationSimulator and the TDG/HDG
// baselines: one Rng(seed), rows in order, then one drawn grid per row
// (user division) or every grid in index order (budget division), each
// report the grid's ReportClient perturbing the row's cell with that Rng.
//
// Reports are grouped by grid where they are made, and each report's
// grid_index is its grid's from the moment it enters the grid's slot, so
// a consumer can hand the runs on as they are. Every `batch_size`
// reports (the last batch may be shorter) the loop hands on the batch as
// one run per grid, each in row order: the next `batch_size` reports of
// the row-order stream, grouped, so no consumer groups them again. A
// batch is not one grid's run: a grid whose reports are all alike (a
// one-cell GRR grid) would then send byte-identical frames, which the
// ingest server's checksum-keyed dedup window takes for resends.

#ifndef FELIP_FO_COLLECTION_ROUND_H_
#define FELIP_FO_COLLECTION_ROUND_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "felip/common/rng.h"
#include "felip/fo/report.h"

namespace felip::fo {

// Runs one round over `num_rows` rows and the grids of `clients`
// (`every_grid`: budget division). cell_of(g, row) is the row's cell in
// grid g; flush(slots, counts) hands on a batch whose grid g reports are
// slots[g][0, counts[g]), each with grid_index g, and may move them out:
// the slots are reused, a slot already holding a report's alternative
// only move-assigned, and grid_index set once when the slot is made. Returns
// the reports made, or nullopt once a flush returns false.
template <typename CellOf, typename Flush>
std::optional<uint64_t> RunCollectionRound(
    uint64_t seed, uint64_t num_rows, bool every_grid,
    const std::vector<std::unique_ptr<ReportClient>>& clients,
    size_t batch_size, const CellOf& cell_of, const Flush& flush) {
  const size_t m = clients.size();
  batch_size = std::max<size_t>(batch_size, 1);
  std::vector<std::vector<ReportData>> slots(m);
  std::vector<size_t> counts(m, 0);
  size_t filled = 0;
  const auto hand_on = [&] {
    const bool delivered = flush(slots, std::as_const(counts));
    std::fill(counts.begin(), counts.end(), 0);
    filled = 0;
    return delivered;
  };
  Rng rng(seed);
  const auto report = [&](size_t g, uint64_t row) {
    if (counts[g] == slots[g].size()) {
      slots[g].push_back(ReportData{{}, static_cast<uint32_t>(g)});
    }
    slots[g][counts[g]++].payload =
        clients[g]->Perturb(cell_of(g, row), rng).payload;
    return ++filled < batch_size || hand_on();
  };
  for (uint64_t row = 0; row < num_rows; ++row) {
    const size_t first =
        every_grid ? 0 : static_cast<size_t>(rng.UniformU64(m));
    for (size_t g = first; g < (every_grid ? m : first + 1); ++g) {
      if (!report(g, row)) return std::nullopt;
    }
  }
  if (filled > 0 && !hand_on()) return std::nullopt;
  return num_rows * (every_grid ? m : 1);
}

}  // namespace felip::fo

#endif  // FELIP_FO_COLLECTION_ROUND_H_
