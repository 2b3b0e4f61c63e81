// End-to-end acceptance: a fixed-seed population reporting through the
// ingest service must produce estimates BIT-IDENTICAL to the in-process
// FelipPipeline::Collect round with the same seed — on a clean transport,
// over real TCP, and under injected drops/truncations/resets.
//
// Why exact equality is achievable: the PopulationSimulator replays
// Collect's RNG trajectory report-for-report, aggregation is integer
// counts (order- and batching-invariant), and the checksum-keyed dedup
// guarantees each batch is counted exactly once no matter how many times
// faults force it to be resent.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/query/query.h"
#include "felip/svc/client.h"
#include "felip/svc/fault_injection.h"
#include "felip/svc/loopback.h"
#include "felip/svc/server.h"
#include "felip/svc/simulator.h"
#include "felip/svc/sink.h"
#include "felip/svc/tcp.h"
#include "felip/wire/wire.h"

namespace felip::svc {
namespace {

constexpr uint64_t kUsers = 3000;
constexpr uint32_t kAttributes = 4;
constexpr uint32_t kNumDomain = 30;
constexpr uint32_t kCatDomain = 6;
constexpr uint64_t kSeed = 7;

core::FelipConfig MakeConfig(core::PartitioningMode partitioning =
                                 core::PartitioningMode::kDivideUsers) {
  core::FelipConfig config;
  config.strategy = core::Strategy::kOhg;
  config.partitioning = partitioning;
  config.epsilon = 1.0;
  config.seed = kSeed;
  return config;
}

data::Dataset MakeData() {
  return data::MakeIpumsLike(kUsers, kAttributes, kNumDomain, kCatDomain,
                             kSeed);
}

// The reference: the whole round simulated in-process.
core::FelipPipeline RunInProcess(const data::Dataset& dataset,
                                 const core::FelipConfig& config) {
  core::FelipPipeline pipeline(dataset.attributes(), kUsers, config);
  pipeline.Collect(dataset);
  pipeline.Finalize();
  return pipeline;
}

struct NetworkedRun {
  core::FelipPipeline pipeline;
  uint64_t reports = 0;
  uint64_t client_retries = 0;
  uint64_t faults = 0;
};

// The same round through transport -> IngestServer -> PipelineSink.
NetworkedRun RunNetworked(const data::Dataset& dataset,
                          const core::FelipConfig& config,
                          Transport* transport, const std::string& endpoint,
                          const FaultOptions* faults = nullptr) {
  NetworkedRun run{
      core::FelipPipeline(dataset.attributes(), kUsers, config)};

  PipelineSink sink(&run.pipeline);
  IngestServerOptions server_options;
  server_options.queue_capacity = 8;
  server_options.worker_threads = 3;
  IngestServer server(transport, endpoint, &sink, server_options);
  EXPECT_TRUE(server.Start());

  std::unique_ptr<FaultInjectingTransport> faulty;
  Transport* client_transport = transport;
  if (faults != nullptr) {
    faulty = std::make_unique<FaultInjectingTransport>(transport, *faults);
    client_transport = faulty.get();
  }
  IngestClientOptions client_options;
  client_options.connect_timeout_ms = 500;
  client_options.response_timeout_ms = 250;
  client_options.max_attempts = 64;
  IngestClient client(client_transport, server.endpoint(), client_options);

  std::vector<wire::GridConfigMessage> grid_configs;
  for (uint32_t g = 0; g < run.pipeline.num_groups(); ++g) {
    grid_configs.push_back(wire::MakeGridConfig(
        run.pipeline, dataset.attributes(), g,
        run.pipeline.per_grid_epsilon(), config.protocol_options()));
  }
  SimulatorOptions simulator_options;
  simulator_options.seed = config.seed;
  simulator_options.partitioning = config.partitioning;
  simulator_options.batch_size = 128;
  const PopulationSimulator simulator(grid_configs, simulator_options);

  const std::optional<uint64_t> sent = simulator.Run(
      dataset, [&](const std::vector<wire::ReportMessage>& batch) {
        return client.SendBatch(batch).ok();
      });
  EXPECT_TRUE(sent.has_value()) << "delivery failed after retries";

  EXPECT_TRUE(server.WaitForReports(sent.value_or(0), 30000));
  server.Stop();
  sink.Finish();
  EXPECT_EQ(sink.rejected(), 0u) << "simulator reports must all validate";
  run.pipeline.Finalize();

  run.reports = sent.value_or(0);
  run.client_retries = client.retries();
  run.faults = faulty ? faulty->faults_injected() : 0;
  return run;
}

// Exact (bit-identical) comparison of everything estimation produces.
void ExpectIdenticalEstimates(const core::FelipPipeline& expected,
                              const core::FelipPipeline& actual) {
  const auto expected_grids = expected.ExportGridFrequencies();
  const auto actual_grids = actual.ExportGridFrequencies();
  ASSERT_EQ(expected_grids.size(), actual_grids.size());
  for (size_t g = 0; g < expected_grids.size(); ++g) {
    ASSERT_EQ(expected_grids[g].size(), actual_grids[g].size());
    for (size_t c = 0; c < expected_grids[g].size(); ++c) {
      // EXPECT_EQ on doubles: bitwise-equal estimates, not merely close.
      EXPECT_EQ(expected_grids[g][c], actual_grids[g][c])
          << "grid " << g << " cell " << c;
    }
  }
  for (uint32_t attr = 0; attr < kAttributes; ++attr) {
    const std::vector<double> expected_marginal =
        expected.EstimateMarginal(attr);
    const std::vector<double> actual_marginal = actual.EstimateMarginal(attr);
    ASSERT_EQ(expected_marginal.size(), actual_marginal.size());
    for (size_t v = 0; v < expected_marginal.size(); ++v) {
      EXPECT_EQ(expected_marginal[v], actual_marginal[v])
          << "attr " << attr << " value " << v;
    }
  }
  // Attribute 1 is categorical (domain kCatDomain); its bound must stay
  // inside that domain now that AnswerQuery validates predicates.
  const query::Query q(
      {{0, query::Op::kBetween, 0, kNumDomain / 2, {}},
       {1, query::Op::kBetween, 0, kCatDomain / 2, {}}});
  EXPECT_EQ(expected.AnswerQuery(q), actual.AnswerQuery(q));
}

TEST(LoopbackE2eTest, CleanRunIsBitIdenticalToInProcessPipeline) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config = MakeConfig();
  const core::FelipPipeline reference = RunInProcess(dataset, config);

  LoopbackTransport transport;
  const NetworkedRun run =
      RunNetworked(dataset, config, &transport, "ingest");
  EXPECT_EQ(run.reports, kUsers);
  EXPECT_EQ(run.pipeline.reports_ingested(), kUsers);
  ExpectIdenticalEstimates(reference, run.pipeline);
}

TEST(LoopbackE2eTest, FaultSoakStaysBitIdentical) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config = MakeConfig();
  const core::FelipPipeline reference = RunInProcess(dataset, config);

  LoopbackTransport transport;
  FaultOptions faults;
  faults.drop_prob = 0.12;
  faults.truncate_prob = 0.08;
  faults.reset_prob = 0.05;
  faults.drop_response_prob = 0.08;
  faults.seed = kSeed + 99;
  const NetworkedRun run =
      RunNetworked(dataset, config, &transport, "ingest", &faults);
  EXPECT_EQ(run.reports, kUsers);
  EXPECT_EQ(run.pipeline.reports_ingested(), kUsers);
  // The soak must actually have exercised the recovery paths.
  EXPECT_GT(run.faults, 0u);
  EXPECT_GT(run.client_retries, 0u);
  ExpectIdenticalEstimates(reference, run.pipeline);
}

TEST(LoopbackE2eTest, DivideBudgetModeAlsoMatches) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config =
      MakeConfig(core::PartitioningMode::kDivideBudget);
  const core::FelipPipeline reference = RunInProcess(dataset, config);

  LoopbackTransport transport;
  const NetworkedRun run =
      RunNetworked(dataset, config, &transport, "ingest");
  // Every user reports to every grid when dividing budget.
  EXPECT_EQ(run.reports, kUsers * reference.num_groups());
  ExpectIdenticalEstimates(reference, run.pipeline);
}

TEST(TcpE2eTest, RealSocketsAreBitIdenticalToo) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config = MakeConfig();
  const core::FelipPipeline reference = RunInProcess(dataset, config);

  TcpTransport transport;
  const NetworkedRun run =
      RunNetworked(dataset, config, &transport, "127.0.0.1:0");
  EXPECT_EQ(run.reports, kUsers);
  ExpectIdenticalEstimates(reference, run.pipeline);
}

}  // namespace
}  // namespace felip::svc
