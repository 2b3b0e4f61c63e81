// Differential test of PopulationSimulator's batches: every report goes
// to its grid's run, and each batch is moved out of those runs, grid by
// grid, into one vector reused across consume calls, so a batch slot
// switches between scalar payloads (GRR, PGR), the OLH struct and bit
// vectors (OUE, FLDP). Each emitted batch must be the same span of a
// report-by-report reference built from fo::MakeReportClient with an
// identically seeded Rng, stably grouped by grid, for both partitioning
// modes and for batch sizes that do not divide the report count.

#include "felip/svc/simulator.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/fo/pgr.h"
#include "felip/fo/registry.h"
#include "felip/wire/wire.h"

namespace felip::svc {
namespace {

constexpr uint64_t kRows = 1000;
constexpr uint64_t kSeed = 29;

wire::GridConfigMessage Grid(uint32_t index, fo::Protocol protocol,
                             const data::Dataset& dataset, uint32_t attr_x,
                             uint32_t lx, std::optional<uint32_t> attr_y = {},
                             uint32_t ly = 1) {
  wire::GridConfigMessage m;
  m.grid_index = index;
  m.protocol = protocol;
  m.epsilon = 1.0;
  m.attr_x = attr_x;
  m.domain_x = dataset.attributes()[attr_x].domain;
  m.lx = lx;
  m.is_2d = attr_y.has_value();
  m.attr_y = attr_y.value_or(0);
  m.domain_y = m.is_2d ? dataset.attributes()[*attr_y].domain : 1;
  m.ly = m.is_2d ? ly : 1;
  return m;
}

// Attributes 0 and 1 are numerical (domain 64), 2 and 3 categorical
// (domain 6). One grid of every payload shape, OLH in both modes.
std::vector<wire::GridConfigMessage> MixedGrids(const data::Dataset& dataset) {
  std::vector<wire::GridConfigMessage> grids;
  grids.push_back(Grid(0, fo::Protocol::kGrr, dataset, 2, 6));
  grids.push_back(Grid(1, fo::Protocol::kOlh, dataset, 0, 8, 1, 8));
  grids.back().seed_pool_size = 64;
  grids.back().pool_salt = 0x5eed;
  grids.push_back(Grid(2, fo::Protocol::kOlh, dataset, 0, 8, 2, 6));
  grids.push_back(Grid(3, fo::Protocol::kOue, dataset, 1, 16));
  grids.push_back(Grid(4, fo::Protocol::kPgr, dataset, 1, 4, 3, 6));
  grids.push_back(Grid(5, fo::Protocol::kFldp, dataset, 0, 32));
  grids.back().fldp_report_bits = 8;
  grids.back().fldp_pool_size = 16;
  grids.back().fldp_salt = 0xf1d9;
  return grids;
}

// FelipPipeline::Collect's trajectory, one report at a time: each report
// is a fresh value from the grid's registry client.
std::vector<wire::ReportMessage> ReferenceReports(
    const std::vector<wire::GridConfigMessage>& grids,
    const data::Dataset& dataset, core::PartitioningMode partitioning) {
  std::vector<core::FelipClient> projectors;
  std::vector<std::unique_ptr<fo::ReportClient>> clients;
  for (const wire::GridConfigMessage& config : grids) {
    core::GridAssignment assignment;
    assignment.is_2d = config.is_2d;
    assignment.attr_x = config.attr_x;
    assignment.attr_y = config.attr_y;
    assignment.plan.lx = config.lx;
    assignment.plan.ly = config.ly;
    assignment.plan.protocol = config.protocol;
    projectors.emplace_back(assignment, config.domain_x, config.domain_y);
    fo::ProtocolOptions options;
    options.olh.seed_pool_size = config.seed_pool_size;
    options.olh.pool_salt = config.pool_salt;
    options.fldp.report_bits = config.fldp_report_bits;
    options.fldp.subset_pool_size = config.fldp_pool_size;
    options.fldp.pool_salt = config.fldp_salt;
    clients.push_back(fo::MakeReportClient(
        config.protocol, config.epsilon,
        projectors.back().cell_domain(), options));
  }
  std::vector<wire::ReportMessage> reports;
  Rng rng(kSeed);
  const auto perturb = [&](size_t g, uint64_t row) {
    const wire::GridConfigMessage& config = grids[g];
    const uint32_t x = dataset.Value(row, config.attr_x);
    const uint32_t y = config.is_2d ? dataset.Value(row, config.attr_y) : 0;
    const uint64_t cell = projectors[g].ProjectToCell(x, y);
    // The grid goes on after the payload: Perturb() returns grid 0.
    wire::ReportMessage m = clients[g]->Perturb(cell, rng);
    m.grid_index = static_cast<uint32_t>(g);
    reports.push_back(std::move(m));
  };
  for (uint64_t row = 0; row < dataset.num_rows(); ++row) {
    if (partitioning == core::PartitioningMode::kDivideUsers) {
      perturb(static_cast<size_t>(rng.UniformU64(grids.size())), row);
    } else {
      for (size_t g = 0; g < grids.size(); ++g) perturb(g, row);
    }
  }
  return reports;
}

// The reports of [first, last), stably grouped by grid index, ascending.
std::vector<wire::ReportMessage> StableGridGrouping(
    std::vector<wire::ReportMessage>::const_iterator first,
    std::vector<wire::ReportMessage>::const_iterator last) {
  std::vector<wire::ReportMessage> grouped(first, last);
  std::stable_sort(grouped.begin(), grouped.end(),
                   [](const wire::ReportMessage& a,
                      const wire::ReportMessage& b) {
                     return a.grid_index < b.grid_index;
                   });
  return grouped;
}

TEST(PopulationSimulatorTest, ReusedBatchSlotsMatchReportByReportReference) {
  const data::Dataset dataset = data::MakeUniform(kRows, 2, 2, 64, 6, 3);
  const std::vector<wire::GridConfigMessage> grids = MixedGrids(dataset);
  ASSERT_TRUE(fo::PgrFeasible(1.0, 4 * 6));
  for (const core::PartitioningMode partitioning :
       {core::PartitioningMode::kDivideUsers,
        core::PartitioningMode::kDivideBudget}) {
    const std::vector<wire::ReportMessage> expected =
        ReferenceReports(grids, dataset, partitioning);
    // 37 and 1024 divide neither 1000 nor 6000 reports; 1 makes every
    // batch full; 8192 leaves only the final partial batch.
    for (const size_t batch_size : {size_t{1}, size_t{37}, size_t{1024},
                                    size_t{8192}}) {
      SCOPED_TRACE(testing::Message()
                   << "partitioning " << static_cast<int>(partitioning)
                   << " batch_size " << batch_size);
      SimulatorOptions options;
      options.seed = kSeed;
      options.partitioning = partitioning;
      options.batch_size = batch_size;
      size_t offset = 0;
      size_t batches = 0;
      const std::optional<uint64_t> emitted =
          PopulationSimulator(grids, options)
              .Run(dataset,
                   [&](const std::vector<wire::ReportMessage>& batch) {
                     ++batches;
                     const size_t left = expected.size() - offset;
                     EXPECT_EQ(batch.size(), std::min(batch_size, left));
                     const size_t end =
                         offset + std::min(batch.size(), left);
                     const std::vector<wire::ReportMessage> grouped =
                         StableGridGrouping(expected.begin() + offset,
                                            expected.begin() + end);
                     for (size_t i = 0; i < grouped.size(); ++i) {
                       EXPECT_EQ(batch[i], grouped[i])
                           << "report " << i << " of the batch at "
                           << offset;
                     }
                     offset += batch.size();
                     return true;
                   });
      ASSERT_TRUE(emitted.has_value());
      EXPECT_EQ(*emitted, expected.size());
      EXPECT_EQ(offset, expected.size());
      EXPECT_EQ(batches, (expected.size() + batch_size - 1) / batch_size);
    }
  }
}

TEST(PopulationSimulatorTest, RefusedBatchStopsTheRun) {
  const data::Dataset dataset = data::MakeUniform(kRows, 2, 2, 64, 6, 3);
  SimulatorOptions options;
  options.seed = kSeed;
  options.batch_size = 100;
  int calls = 0;
  const std::optional<uint64_t> emitted =
      PopulationSimulator(MixedGrids(dataset), options)
          .Run(dataset, [&](const std::vector<wire::ReportMessage>&) {
            return ++calls < 2;
          });
  EXPECT_FALSE(emitted.has_value());
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace felip::svc
