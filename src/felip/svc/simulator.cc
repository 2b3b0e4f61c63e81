#include "felip/svc/simulator.h"

#include <algorithm>
#include <utility>

#include "felip/common/check.h"
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
  devices_.reserve(configs_.size());
  for (size_t g = 0; g < configs_.size(); ++g) {
    const wire::GridConfigMessage& config = configs_[g];
    FELIP_CHECK_MSG(config.grid_index == g,
                    "grid configs must cover indices 0..m-1 in order");
    const core::GridAssignment assignment = AssignmentOf(config);
    Device device{core::FelipClient(assignment, config.domain_x,
                                    config.domain_y),
                  nullptr};
    const uint64_t cells = device.projector.cell_domain();
    // Rehydrate the per-protocol options devices need from the public
    // config fields; protocols that carry none ignore them.
    fo::ProtocolOptions options;
    options.olh.seed_pool_size = config.seed_pool_size;
    options.olh.pool_salt = config.pool_salt;
    options.fldp.report_bits = config.fldp_report_bits;
    options.fldp.subset_pool_size = config.fldp_pool_size;
    options.fldp.pool_salt = config.fldp_salt;
    device.client =
        fo::MakeReportClient(config.protocol, config.epsilon, cells, options);
    devices_.push_back(std::move(device));
  }
}

std::optional<uint64_t> PopulationSimulator::Run(
    const data::Dataset& dataset, const BatchConsumer& consume) const {
  const size_t m = devices_.size();
  const auto cell_of = [&](size_t g, uint64_t row) -> uint64_t {
    const wire::GridConfigMessage& config = configs_[g];
    const Device& device = devices_[g];
    const uint32_t x = dataset.Value(row, config.attr_x);
    const uint32_t y = config.is_2d ? dataset.Value(row, config.attr_y) : 0;
    return device.projector.ProjectToCell(x, y);
  };

  // Every report is perturbed straight into its slot of one batch that
  // lives across consume calls: a slot that already holds the report's
  // alternative is only move-assigned, and no message is built, copied
  // or destroyed per report.
  std::vector<wire::ReportMessage> batch(
      std::max<size_t>(options_.batch_size, 1));
  size_t filled = 0;
  uint64_t emitted = 0;

  // The exact trajectory of FelipPipeline::Collect: one Rng, row order,
  // group draw then perturbation (kDivideUsers), or every grid per row
  // (kDivideBudget).
  const bool divide_users =
      options_.partitioning == core::PartitioningMode::kDivideUsers;
  Rng rng(options_.seed);
  for (uint64_t row = 0; row < dataset.num_rows(); ++row) {
    const size_t first =
        divide_users ? static_cast<size_t>(rng.UniformU64(m)) : 0;
    const size_t end = divide_users ? first + 1 : m;
    for (size_t g = first; g < end; ++g) {
      wire::ReportMessage& slot = batch[filled];
      static_cast<fo::ReportData&>(slot) =
          devices_[g].client->Perturb(cell_of(g, row), rng);
      slot.grid_index = static_cast<uint32_t>(g);
      ++emitted;
      if (++filled < batch.size()) continue;
      filled = 0;
      if (!consume(batch)) return std::nullopt;
    }
  }
  // Only the final partial batch is trimmed to its filled count.
  if (filled > 0) {
    batch.resize(filled);
    if (!consume(batch)) return std::nullopt;
  }
  return emitted;
}

}  // namespace felip::svc
