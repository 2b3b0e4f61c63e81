// Shared helpers for the round-level tests: the report stream devices send
// for a planned pipeline, and the bit-identity check every service test
// ends with.

#ifndef FELIP_TESTS_SUPPORT_ROUNDS_H_
#define FELIP_TESTS_SUPPORT_ROUNDS_H_

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "felip/core/felip.h"
#include "felip/data/dataset.h"
#include "felip/svc/simulator.h"
#include "felip/wire/wire.h"

namespace felip::test_support {

using Batch = std::vector<wire::ReportMessage>;

// The device-side report stream for `dataset` under `planned`'s grid
// layout and config, in batches of `batch_size` reports.
inline std::vector<Batch> MakeBatches(const data::Dataset& dataset,
                                      const core::FelipPipeline& planned,
                                      size_t batch_size) {
  const core::FelipConfig& config = planned.config();
  std::vector<wire::GridConfigMessage> grid_configs;
  for (uint32_t g = 0; g < planned.num_groups(); ++g) {
    grid_configs.push_back(wire::MakeGridConfig(
        planned, planned.schema(), g, planned.per_grid_epsilon(),
        config.protocol_options()));
  }
  svc::SimulatorOptions options;
  options.seed = config.seed;
  options.partitioning = config.partitioning;
  options.batch_size = batch_size;
  const svc::PopulationSimulator simulator(grid_configs, options);
  std::vector<Batch> batches;
  const auto sent = simulator.Run(dataset, [&](const Batch& batch) {
    batches.push_back(batch);
    return true;
  });
  EXPECT_TRUE(sent.has_value());
  return batches;
}

// Bitwise comparison of two finalized pipelines: every grid frequency,
// the grid digest, and every attribute's marginal.
inline void ExpectIdenticalEstimates(const core::FelipPipeline& expected,
                                     const core::FelipPipeline& actual) {
  const auto a = expected.ExportGridFrequencies();
  const auto b = actual.ExportGridFrequencies();
  ASSERT_EQ(a.size(), b.size());
  for (size_t g = 0; g < a.size(); ++g) {
    ASSERT_EQ(a[g].size(), b[g].size());
    for (size_t c = 0; c < a[g].size(); ++c) {
      EXPECT_EQ(a[g][c], b[g][c]) << "grid " << g << " cell " << c;
    }
  }
  EXPECT_EQ(core::GridFrequencyDigest(expected),
            core::GridFrequencyDigest(actual));
  for (uint32_t attr = 0; attr < expected.schema().size(); ++attr) {
    const std::vector<double> ma = expected.EstimateMarginal(attr);
    const std::vector<double> mb = actual.EstimateMarginal(attr);
    ASSERT_EQ(ma.size(), mb.size());
    for (size_t v = 0; v < ma.size(); ++v) {
      EXPECT_EQ(ma[v], mb[v]) << "attr " << attr << " value " << v;
    }
  }
}

}  // namespace felip::test_support

#endif  // FELIP_TESTS_SUPPORT_ROUNDS_H_
