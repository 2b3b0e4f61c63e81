// Device-population simulator for the networked ingest path.
//
// PopulationSimulator runs FelipPipeline::Collect's device loop
// (fo::RunCollectionRound) on the *client side of the wire*: it rebuilds
// each grid's device (FelipClient projection + the grid's frequency-oracle
// client) from the public GridConfigMessages and emits each batch, grouped
// by grid, as wire reports instead of aggregating them locally.
//
// Because the aggregator counts integers, a server that accepts this
// report multiset — in any order, over any number of connections —
// produces estimates bit-identical to Collect() on the same dataset and
// seed. That equivalence is the ingest service's end-to-end test.

#ifndef FELIP_SVC_SIMULATOR_H_
#define FELIP_SVC_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "felip/core/felip.h"
#include "felip/data/dataset.h"
#include "felip/fo/report.h"
#include "felip/wire/wire.h"

namespace felip::svc {

struct SimulatorOptions {
  // Must match the pipeline's FelipConfig (seed drives the shared
  // assignment/perturbation trajectory; partitioning selects it).
  uint64_t seed = 1;
  core::PartitioningMode partitioning = core::PartitioningMode::kDivideUsers;
  // Reports per emitted batch (0 acts as 1). Batch boundaries cannot
  // affect estimates — only the report multiset matters.
  size_t batch_size = 1024;
};

// Receives each batch; false aborts the run (delivery failed). The
// batch's storage is reused for the next batch once the call returns, so
// a consumer copies whatever it keeps.
using BatchConsumer =
    std::function<bool(const std::vector<wire::ReportMessage>& batch)>;

class PopulationSimulator {
 public:
  // `grid_configs` must cover grid indices 0..m-1 in order, with epsilon
  // already set to the per-grid budget (wire::MakeGridConfig does both).
  PopulationSimulator(std::vector<wire::GridConfigMessage> grid_configs,
                      SimulatorOptions options);

  // Replays the collection round over `dataset`, handing batches to
  // `consume`. Returns the number of reports emitted, or nullopt if a
  // consume call failed.
  std::optional<uint64_t> Run(const data::Dataset& dataset,
                              const BatchConsumer& consume) const;

 private:
  std::vector<wire::GridConfigMessage> configs_;
  SimulatorOptions options_;
  // Each grid's device-side state, rebuilt from its public config. The
  // registry's ReportClient wraps the grid's protocol client with an
  // identical rng trajectory, so the simulator needs no per-protocol
  // branches (fo/registry.h).
  std::vector<core::FelipClient> projectors_;
  std::vector<std::unique_ptr<fo::ReportClient>> clients_;
};

}  // namespace felip::svc

#endif  // FELIP_SVC_SIMULATOR_H_
