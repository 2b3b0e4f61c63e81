#include "felip/svc/simulator.h"

#include <utility>

#include "felip/common/check.h"
#include "felip/fo/collection_round.h"
#include "felip/fo/registry.h"

namespace felip::svc {

namespace {

core::GridAssignment AssignmentOf(const wire::GridConfigMessage& config) {
  core::GridAssignment assignment;
  assignment.is_2d = config.is_2d;
  assignment.attr_x = config.attr_x;
  assignment.attr_y = config.attr_y;
  assignment.plan.lx = config.lx;
  assignment.plan.ly = config.ly;
  assignment.plan.protocol = config.protocol;
  return assignment;
}

}  // namespace

PopulationSimulator::PopulationSimulator(
    std::vector<wire::GridConfigMessage> grid_configs, SimulatorOptions options)
    : configs_(std::move(grid_configs)), options_(options) {
  FELIP_CHECK_MSG(!configs_.empty(), "simulator needs at least one grid");
  projectors_.reserve(configs_.size());
  clients_.reserve(configs_.size());
  for (size_t g = 0; g < configs_.size(); ++g) {
    const wire::GridConfigMessage& config = configs_[g];
    FELIP_CHECK_MSG(config.grid_index == g,
                    "grid configs must cover indices 0..m-1 in order");
    projectors_.emplace_back(AssignmentOf(config), config.domain_x,
                             config.domain_y);
    // Rehydrate the per-protocol options devices need from the public
    // config fields; protocols that carry none ignore them.
    fo::ProtocolOptions options;
    options.olh.seed_pool_size = config.seed_pool_size;
    options.olh.pool_salt = config.pool_salt;
    options.fldp.report_bits = config.fldp_report_bits;
    options.fldp.subset_pool_size = config.fldp_pool_size;
    options.fldp.pool_salt = config.fldp_salt;
    clients_.push_back(fo::MakeReportClient(config.protocol, config.epsilon,
                                            projectors_.back().cell_domain(),
                                            options));
  }
}

std::optional<uint64_t> PopulationSimulator::Run(
    const data::Dataset& dataset, const BatchConsumer& consume) const {
  const auto cell_of = [&](size_t g, uint64_t row) -> uint64_t {
    const wire::GridConfigMessage& config = configs_[g];
    const uint32_t x = dataset.Value(row, config.attr_x);
    const uint32_t y = config.is_2d ? dataset.Value(row, config.attr_y) : 0;
    return projectors_[g].ProjectToCell(x, y);
  };
  // Each batch is moved out of its grid runs, in grid order, into one
  // vector of slots reused across batches; the device loop has already
  // addressed every report to its grid.
  std::vector<wire::ReportMessage> batch;
  return fo::RunCollectionRound(
      options_.seed, dataset.num_rows(),
      options_.partitioning == core::PartitioningMode::kDivideBudget,
      clients_, options_.batch_size, cell_of,
      [&](std::vector<std::vector<fo::ReportData>>& runs,
          const std::vector<size_t>& counts) {
        size_t at = 0;
        for (uint32_t g = 0; g < runs.size(); ++g) {
          for (size_t k = 0; k < counts[g]; ++k, ++at) {
            if (at == batch.size()) batch.emplace_back();
            batch[at] = std::move(runs[g][k]);
          }
        }
        batch.resize(at);
        return consume(batch);
      });
}

}  // namespace felip::svc
