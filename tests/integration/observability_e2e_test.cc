// End-to-end observability acceptance: after a full pipeline run, a
// snapshot and a wire round-trip, a streaming ingest, and an eval-harness
// run, the default registry's RenderText exposition must contain counters
// and spans from every instrumented subsystem (core, fo, wire, stream,
// eval). After a served round on top — faulted on the way in, logged and
// checkpointed on the drain path, then replayed, recovered, sealed as an
// epoch and pulled by a root — every name it renders must have a row in
// docs/observability.md.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/dist/accumulator.h"
#include "felip/dist/root.h"
#include "felip/eval/harness.h"
#include "felip/obs/metrics.h"
#include "felip/query/generator.h"
#include "felip/query/query.h"
#include "felip/replaylog/replay.h"
#include "felip/replaylog/store.h"
#include "felip/snapshot/checkpoint.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/snapshot/store.h"
#include "felip/stream/epoch_service.h"
#include "felip/stream/epoch_store.h"
#include "felip/stream/streaming.h"
#include "felip/svc/client.h"
#include "felip/svc/fault_injection.h"
#include "felip/svc/loopback.h"
#include "felip/svc/query_service.h"
#include "felip/svc/server.h"
#include "felip/svc/sink.h"
#include "felip/wire/wire.h"
#include "support/rounds.h"

namespace felip {
namespace {

#ifndef FELIP_OBS_NOOP

TEST(ObservabilityE2eTest, EverySubsystemReportsToTheDefaultRegistry) {
  obs::Registry& registry = obs::Registry::Default();
  registry.Reset();

  const data::Dataset dataset =
      data::MakeIpumsLike(800, 4, 20, 6, /*seed=*/9);
  core::FelipConfig config;
  config.epsilon = 1.0;
  config.seed = 3;

  // core + fo: collection, aggregation, estimation, queries.
  const core::FelipPipeline pipeline = core::RunFelip(dataset, config);
  // Every user sends exactly one report to one grid (kDivideUsers), and
  // every report reaches an oracle through IngestReports.
  EXPECT_EQ(registry.CounterValue("felip_core_reports_total"),
            dataset.num_rows());
  Rng qrng(11);
  const std::vector<query::Query> queries = query::GenerateQueries(
      dataset, 4, {.dimension = 2, .selectivity = 0.5}, qrng);
  for (const query::Query& q : queries) pipeline.AnswerQuery(q);

  // snapshot: FSNP round-trip of the queryable pipeline.
  const std::vector<uint8_t> snapshot =
      snapshot::PipelineCodec::Encode(pipeline, {});
  ASSERT_TRUE(snapshot::PipelineCodec::Decode(snapshot).ok());

  // wire: the query batch round-trip a query server decodes.
  ASSERT_TRUE(wire::DecodeQueryBatch(wire::EncodeQueryBatch(queries)).ok());

  // stream: one epoch.
  stream::StreamConfig stream_config;
  stream_config.felip = config;
  stream::StreamingCollector collector(dataset.attributes(), stream_config);
  collector.IngestEpoch(dataset);

  // eval: one harness run with MAE/MSE gauges.
  std::vector<double> truths;
  for (const query::Query& q : queries) {
    truths.push_back(query::TrueAnswer(dataset, q));
  }
  eval::ExperimentParams params;
  params.epsilon = 1.0;
  params.seed = 3;
  eval::RunMethodMae("OHG", dataset, queries, truths, params);

  // Counters from every instrumented subsystem.
  EXPECT_GT(registry.CounterValue("felip_core_reports_total"), 0u);
  EXPECT_GT(registry.CounterValue("felip_core_cells_estimated_total"), 0u);
  EXPECT_GT(registry.CounterValue("felip_core_queries_total"), 0u);
  EXPECT_GT(registry.CounterValue("felip_wire_decode_bytes_total"), 0u);
  EXPECT_EQ(registry.CounterValue("felip_wire_malformed_total"), 0u);
  EXPECT_EQ(registry.CounterValue("felip_stream_epochs_ingested_total"), 1u);
  EXPECT_EQ(registry.CounterValue("felip_eval_runs_total"), 1u);
  EXPECT_GT(registry.HistogramCount("felip_eval_query_seconds"), 0u);

  // The text exposition carries all subsystem prefixes and span nesting.
  const std::string text = registry.RenderText();
  for (const char* needle :
       {"felip_core_reports_total", "felip_core_collect_seconds",
        "felip_wire_decode_bytes_total", "felip_stream_epochs_ingested_total",
        "felip_eval_runs_total", "felip_span_count_total",
        "felip_core_finalize/felip_core_estimate"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << "missing " << needle;
  }

  // Span nesting: the estimate span sits under the finalize span.
  bool nested_estimate = false;
  for (const std::string& path : registry.SpanPaths()) {
    if (path.find("felip_core_finalize/felip_core_estimate") !=
        std::string::npos) {
      nested_estimate = true;
    }
  }
  EXPECT_TRUE(nested_estimate);
}

// The metric names of a RenderText exposition: one per "# TYPE" line,
// so a histogram's _bucket/_sum/_count samples count as its one name.
std::set<std::string> RenderedNames(const std::string& text) {
  std::set<std::string> names;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string hash, type, name;
    if (fields >> hash >> type >> name && hash == "#" && type == "TYPE") {
      names.insert(name);
    }
  }
  return names;
}

TEST(ObservabilityE2eTest, EveryRenderedMetricHasADocRow) {
  obs::Registry& registry = obs::Registry::Default();
  registry.Reset();
  const data::Dataset dataset =
      data::MakeIpumsLike(800, 4, 20, 6, /*seed=*/9);
  core::FelipConfig config;
  config.epsilon = 1.0;
  config.seed = 3;

  // In process: collection, estimation, queries, a snapshot codec round
  // trip, one streaming epoch and one harness run.
  const core::FelipPipeline reference = core::RunFelip(dataset, config);
  Rng qrng(11);
  const std::vector<query::Query> queries = query::GenerateQueries(
      dataset, 4, {.dimension = 2, .selectivity = 0.5}, qrng);
  reference.AnswerQueries(std::span<const query::Query>(queries));
  ASSERT_TRUE(snapshot::PipelineCodec::Decode(
                  snapshot::PipelineCodec::Encode(reference, {}))
                  .ok());
  stream::StreamConfig stream_config;
  stream_config.felip = config;
  stream::StreamingCollector(dataset.attributes(), stream_config)
      .IngestEpoch(dataset);
  eval::ExperimentParams params;
  params.epsilon = 1.0;
  params.seed = 3;
  eval::RunMethodMae("OHG", dataset, queries,
                     std::vector<double>(queries.size(), 0.5), params);

  // Served: the device batches over a faulty loopback into an ingest
  // server that logs and checkpoints every drained batch, then the
  // queries through a query server.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "felip_obs_e2e";
  std::filesystem::remove_all(dir);
  const std::vector<test_support::Batch> batches =
      test_support::MakeBatches(dataset, reference, 128);
  core::FelipPipeline served(dataset.attributes(), dataset.num_rows(),
                             config);
  svc::LoopbackTransport transport;
  snapshot::SnapshotStore snapshots((dir / "snapshots").string());
  {
    StatusOr<replaylog::LogWriter> log = replaylog::LogWriter::Open(
        (dir / "log").string(),
        replaylog::EncodePlan(config, dataset.num_rows(),
                              dataset.attributes()));
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    snapshot::Checkpointer checkpointer(&snapshots, &served);
    svc::IngestServerOptions options;
    options.report_log = [&log](uint64_t key,
                                std::span<const uint8_t> frame) {
      return log->Append(replaylog::RecordType::kBatch, key, frame);
    };
    options.checkpoint_every_batches = 2;
    options.checkpoint = [&checkpointer](std::span<const uint64_t> keys) {
      return checkpointer.Checkpoint(keys);
    };
    svc::PipelineSink sink(&served);
    svc::IngestServer server(&transport, "obs-ingest", &sink,
                             std::move(options));
    ASSERT_TRUE(server.Start());
    svc::FaultOptions faults;
    faults.drop_prob = 0.3;
    faults.seed = 5;
    svc::FaultInjectingTransport faulty(&transport, faults);
    svc::IngestClientOptions client_options;
    client_options.response_timeout_ms = 100;
    client_options.max_attempts = 64;
    svc::IngestClient client(&faulty, server.endpoint(), client_options);
    for (const test_support::Batch& batch : batches) {
      ASSERT_TRUE(client.SendBatch(batch).ok());
    }
    EXPECT_GT(faulty.faults_injected(), 0u);
    ASSERT_TRUE(server.WaitForReports(dataset.num_rows(), 30000));
    server.Stop();
    sink.Finish();
    ASSERT_TRUE(log->Seal().ok());
  }
  ASSERT_TRUE(replaylog::ReplayLog((dir / "log").string()).ok());
  ASSERT_TRUE(snapshot::RecoverFromStore(snapshots).ok());
  served.Finalize();
  svc::QueryServer query_server(&transport, "obs-query", &served);
  ASSERT_TRUE(query_server.Start());
  ASSERT_TRUE(svc::QueryClient(&transport, query_server.endpoint())
                  .AnswerQueries(queries)
                  .ok());
  query_server.Stop();

  // The same reports sealed as an epoch, recovered from its segment, and
  // pulled from a one-shard accumulator by a root.
  const auto ingested = [&] {
    auto pipeline = std::make_unique<core::FelipPipeline>(
        dataset.attributes(), dataset.num_rows(), config);
    pipeline->BeginIngest();
    for (const test_support::Batch& batch : batches) {
      pipeline->IngestReports(batch);
    }
    return pipeline;
  };
  {
    stream::EpochStore store((dir / "epochs").string(), 2);
    stream::EpochSet epochs(2);
    stream::EpochRotationService rotation(&store, &epochs);
    ASSERT_TRUE(rotation.SealEpoch(ingested(), {}).ok());
    ASSERT_TRUE(epochs.AnswerWindowed(queries, 0, 1.0).ok());
    stream::EpochSet recovered_epochs(2);
    EXPECT_EQ(stream::EpochRotationService(&store, &recovered_epochs)
                  .RecoverSegments()
                  .segments_loaded,
              1u);
  }
  {
    const std::unique_ptr<core::FelipPipeline> shard = ingested();
    svc::PipelineSink sink(shard.get());
    dist::ShardAccumulatorOptions shard_options;
    shard_options.plan_digest = dist::PlanDigest(*shard);
    dist::ShardAccumulatorServer accumulator(&transport, "obs-shard", &sink,
                                             shard_options);
    ASSERT_TRUE(accumulator.Start());
    dist::RootAggregatorOptions root_options;
    root_options.expected_reports = dataset.num_rows();
    root_options.plan_digest = shard_options.plan_digest;
    dist::RootAggregator root(&transport, {accumulator.endpoint()},
                              root_options);
    ASSERT_TRUE(root.PullUntilComplete(30000).ok());
    core::FelipPipeline merged(dataset.attributes(), dataset.num_rows(),
                               config);
    ASSERT_TRUE(root.MergeInto(&merged).ok());
    accumulator.Stop();
  }
  std::filesystem::remove_all(dir);

  std::ifstream doc_file(std::string(FELIP_SOURCE_DIR) +
                         "/docs/observability.md");
  ASSERT_TRUE(doc_file.good());
  std::stringstream doc;
  doc << doc_file.rdbuf();
  const std::set<std::string> names = RenderedNames(registry.RenderText());
  for (const char* subsystem :
       {"felip_core_", "felip_wire_", "felip_svc_", "felip_fo_",
        "felip_stream_", "felip_eval_", "felip_span_", "felip_epoch_",
        "felip_replay_", "felip_snapshot_", "felip_dist_",
        "felip_svc_fault_"}) {
    EXPECT_TRUE(std::any_of(names.begin(), names.end(),
                            [subsystem](const std::string& name) {
                              return name.rfind(subsystem, 0) == 0;
                            }))
        << "nothing rendered under " << subsystem;
  }
  for (const std::string& name : names) {
    EXPECT_NE(doc.str().find("| `" + name + "` |"), std::string::npos)
        << name << " has no row in docs/observability.md";
  }
}

#else

TEST(ObservabilityE2eTest, NoopBuildRendersPlaceholder) {
  EXPECT_EQ(obs::Registry::Default().RenderJson(), "{}");
}

#endif  // FELIP_OBS_NOOP

}  // namespace
}  // namespace felip
