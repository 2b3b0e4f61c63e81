// Ingest-service throughput (google-benchmark): reports/sec through the
// full networked path — encode, frame, transport, checksum + dedup, queue,
// batch decode, sink — over loopback and real TCP sockets, at 1/2/4
// server worker threads. The sink counts reports without aggregating so
// the numbers isolate service overhead from estimation cost.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json_reporter.h"
#include "felip/replaylog/store.h"
#include "felip/svc/client.h"
#include "felip/svc/loopback.h"
#include "felip/svc/server.h"
#include "felip/svc/sink.h"
#include "felip/svc/tcp.h"
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

// One transport round: send kBatches pre-encoded batches, await the drain.
// Each iteration bumps a byte of every frame so the server's dedup never
// collapses iterations into duplicates.
template <typename TransportFactory>
void RunIngestBench(benchmark::State& state, TransportFactory make,
                    const char* endpoint,
                    svc::ReportLogFn report_log = nullptr) {
  constexpr size_t kBatchReports = 1024;
  constexpr size_t kBatches = 64;
  const auto workers = static_cast<unsigned>(state.range(0));

  std::vector<std::vector<wire::ReportMessage>> batches;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<wire::ReportMessage> batch = SampleBatch(kBatchReports);
    for (wire::ReportMessage& m : batch) {
      std::get<fo::OlhReport>(m.payload).seed ^=
          static_cast<uint32_t>(b << 20);
    }
    batches.push_back(std::move(batch));
  }

  const auto transport = make();
  NullSink sink;
  svc::IngestServerOptions options;
  options.queue_capacity = 128;
  options.worker_threads = workers;
  options.report_log = std::move(report_log);
  svc::IngestServer server(transport.get(), endpoint, &sink, options);
  if (!server.Start()) {
    state.SkipWithError("server failed to bind");
    return;
  }
  svc::IngestClient client(transport.get(), server.endpoint());

  uint64_t expected = 0;
  uint64_t iteration = 0;
  for (auto _ : state) {
    for (size_t b = 0; b < kBatches; ++b) {
      // Vary one report per batch per iteration: new checksum, no dedup.
      std::get<fo::OlhReport>(batches[b][0].payload).hashed_report =
          static_cast<uint32_t>(iteration);
      if (!client.SendBatch(batches[b]).ok()) {
        state.SkipWithError("batch delivery failed");
        return;
      }
    }
    expected += kBatches * kBatchReports;
    if (!server.WaitForReports(expected, 60000)) {
      state.SkipWithError("drain timed out");
      return;
    }
    ++iteration;
  }
  server.Stop();
  state.SetItemsProcessed(static_cast<int64_t>(expected));
  state.counters["reports/s"] = benchmark::Counter(
      static_cast<double>(expected), benchmark::Counter::kIsRate);
  state.counters["retries"] = static_cast<double>(client.retries());
}

void BM_IngestLoopback(benchmark::State& state) {
  RunIngestBench(
      state, [] { return std::make_unique<svc::LoopbackTransport>(); },
      "ingest");
}
BENCHMARK(BM_IngestLoopback)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The same loopback rounds with the append-only report log hooked into
// the drain path, exactly as felip_server wires it. The BENCH JSON delta
// between BM_IngestLoopback and this op is the report-log overhead
// evidence (docs/replay.md pins the <5% ns/op budget).
void BM_IngestLoopbackLogged(benchmark::State& state) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "felip_perf_report_log";
  std::filesystem::remove_all(dir);
  StatusOr<replaylog::LogWriter> log =
      replaylog::LogWriter::Open(dir.string(), {0x42});
  if (!log.ok()) {
    state.SkipWithError("cannot open report log");
    return;
  }
  RunIngestBench(
      state, [] { return std::make_unique<svc::LoopbackTransport>(); },
      "ingest",
      [&log](uint64_t key, std::span<const uint8_t> frame) {
        return log->Append(replaylog::RecordType::kBatch, key, frame);
      });
  state.counters["batches_logged"] =
      static_cast<double>(log->records_appended());
  (void)log->Seal();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_IngestLoopbackLogged)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_IngestTcp(benchmark::State& state) {
  RunIngestBench(state, [] { return std::make_unique<svc::TcpTransport>(); },
                 "127.0.0.1:0");
}
BENCHMARK(BM_IngestTcp)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace felip

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  felip::bench::BenchJsonReporter reporter("perf_ingest_service",
                                           "transport=loopback,tcp");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  felip::bench::DumpObsJsonIfRequested();
  return 0;
}
