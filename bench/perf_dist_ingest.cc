// Distributed-ingest throughput (google-benchmark): reports/sec through
// the sharded tier over loopback — consistent-hash routing in the
// client, one full ingest gate chain per shard, and a root pull+merge
// against live accumulator endpoints — at 1, 2, and 4 shards. The
// per-shard sink counts reports without aggregating, so scaling numbers
// isolate the service and routing overhead; the separate BM_RootPull op
// prices one accumulator frame round trip (export under the sink mutex,
// frame encode, transport, decode) against a real pipeline.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json_reporter.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/dist/accumulator.h"
#include "felip/dist/client.h"
#include "felip/dist/root.h"
#include "felip/svc/loopback.h"
#include "felip/svc/server.h"
#include "felip/svc/sink.h"
#include "felip/wire/wire.h"

namespace felip {
namespace {

// Counts reports; no aggregation, no locking on the hot path.
class NullSink final : public svc::ReportSink {
 public:
  size_t IngestBatch(std::span<const wire::ReportMessage> reports) override {
    reports_.fetch_add(reports.size(), std::memory_order_relaxed);
    return reports.size();
  }
  uint64_t reports() const { return reports_.load(); }

 private:
  std::atomic<uint64_t> reports_{0};
};

std::vector<wire::ReportMessage> SampleBatch(size_t count) {
  std::vector<wire::ReportMessage> batch(count);
  for (size_t i = 0; i < count; ++i) {
    batch[i].grid_index = static_cast<uint32_t>(i % 16);
    batch[i].payload = fo::OlhReport{
        .seed = 0x1234u + static_cast<uint32_t>(i),
        .hashed_report = static_cast<uint32_t>(i % 64),
        .seed_index = fo::OlhReport::kNoPool};
  }
  return batch;
}

// One shard of the counting fleet: server + sink, no estimation.
struct BenchShard {
  NullSink sink;
  std::unique_ptr<svc::IngestServer> server;
};

// Sharded-ingest rounds over loopback at `num_shards` shards: the client
// routes every batch by its checksum key, the fleet drains in parallel.
void BM_DistIngestLoopback(benchmark::State& state) {
  constexpr size_t kBatchReports = 1024;
  constexpr size_t kBatches = 64;
  const auto num_shards = static_cast<uint32_t>(state.range(0));

  std::vector<std::vector<wire::ReportMessage>> batches;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<wire::ReportMessage> batch = SampleBatch(kBatchReports);
    for (wire::ReportMessage& m : batch) {
      std::get<fo::OlhReport>(m.payload).seed ^=
          static_cast<uint32_t>(b << 20);
    }
    batches.push_back(std::move(batch));
  }

  svc::LoopbackTransport transport;
  std::vector<std::unique_ptr<BenchShard>> shards;
  std::vector<std::string> endpoints;
  for (uint32_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<BenchShard>();
    svc::IngestServerOptions options;
    options.queue_capacity = 128;
    options.worker_threads = 2;
    shard->server = std::make_unique<svc::IngestServer>(
        &transport, "dist-ingest" + std::to_string(s), &shard->sink,
        options);
    if (!shard->server->Start()) {
      state.SkipWithError("shard failed to bind");
      return;
    }
    endpoints.push_back(shard->server->endpoint());
    shards.push_back(std::move(shard));
  }
  dist::ShardedIngestClient client(&transport, endpoints);

  uint64_t expected = 0;
  uint64_t iteration = 0;
  for (auto _ : state) {
    for (size_t b = 0; b < kBatches; ++b) {
      // Vary one report per batch per iteration: new checksum (so no
      // dedup hit) and a fresh routing draw.
      std::get<fo::OlhReport>(batches[b][0].payload).hashed_report =
          static_cast<uint32_t>(iteration);
      if (!client.SendBatch(batches[b]).ok()) {
        state.SkipWithError("batch delivery failed");
        return;
      }
    }
    expected += kBatches * kBatchReports;
    // Drain barrier across the fleet: every batch is full-size, so shard
    // s owes exactly batches_routed(s) * kBatchReports reports.
    for (uint32_t s = 0; s < num_shards; ++s) {
      if (!shards[s]->server->WaitForReports(
              client.batches_routed(s) * kBatchReports, 60000)) {
        state.SkipWithError("drain timed out");
        return;
      }
    }
    ++iteration;
  }
  for (const auto& shard : shards) shard->server->Stop();
  state.SetItemsProcessed(static_cast<int64_t>(expected));
  state.counters["reports/s"] = benchmark::Counter(
      static_cast<double>(expected), benchmark::Counter::kIsRate);
  state.counters["retries"] = static_cast<double>(client.retries());
}
BENCHMARK(BM_DistIngestLoopback)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// One root pull round trip against a shard holding a real populated
// pipeline: consistent export cut, frame encode + checksum, loopback
// transport, decode + validation at the root.
void BM_RootPull(benchmark::State& state) {
  const uint64_t users = 20000;
  const data::Dataset dataset = data::MakeIpumsLike(users, 4, 50, 6, 5);
  core::FelipConfig config;
  config.seed = 5;
  core::FelipPipeline pipeline(dataset.attributes(), users, config);
  pipeline.BeginIngest();
  svc::PipelineSink sink(&pipeline);

  svc::LoopbackTransport transport;
  dist::ShardAccumulatorOptions options;
  options.plan_digest = dist::PlanDigest(pipeline);
  dist::ShardAccumulatorServer accum(&transport, "dist-accum", &sink,
                                     options);
  if (!accum.Start()) {
    state.SkipWithError("accumulator failed to bind");
    return;
  }

  dist::RootAggregatorOptions root_options;
  root_options.expected_reports = 0;  // complete after the first frame
  root_options.plan_digest = options.plan_digest;
  dist::RootAggregator root(&transport, {accum.endpoint()}, root_options);

  uint64_t pulls = 0;
  for (auto _ : state) {
    const Status status = root.PullUntilComplete(10000);
    if (!status.ok()) {
      state.SkipWithError("pull failed");
      return;
    }
    ++pulls;
  }
  accum.Stop();
  state.SetItemsProcessed(static_cast<int64_t>(pulls));
  state.counters["frames_pulled"] =
      static_cast<double>(root.frames_pulled());
}
BENCHMARK(BM_RootPull)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace felip

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  felip::bench::BenchJsonReporter reporter("perf_dist_ingest",
                                           "shards=1,2,4 over loopback");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  felip::bench::DumpObsJsonIfRequested();
  return 0;
}
