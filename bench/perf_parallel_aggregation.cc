// Aggregation throughput (google-benchmark): the server Add() loop of GRR,
// pooled OLH and OUE (the loop every oracle's IngestReports runs after its
// checks), per-user OLH estimation, the ingest server's drain of one
// round of 1,024-report pooled-OLH frames through the verified-frame
// chunk decoder into a PipelineSink, the device side that makes such
// frames (simulator plus EncodeReportBatch), and the Finalize that ends a
// paper_round-shaped round. Per-user OLH estimation shards over the
// host's cores; everything else runs on the calling thread.
//
// Record results with:
//   FELIP_BENCH_JSON_DIR=results FELIP_GIT_SHA=$(git rev-parse --short HEAD) \
//       ./bench/perf_parallel_aggregation --benchmark_repetitions=5
// which writes the machine-readable results/BENCH_perf_parallel_aggregation.json
// (median ns/op and its MAD, workload, SIMD dispatch level, sha); see
// docs/simd.md. The committed results/parallel_aggregation.txt carries
// only seed-stable text.
//
// Per-user OLH estimation only speeds up on multi-core hosts; record the
// core count (the JSON `threads` field) with the numbers.

#include <benchmark/benchmark.h>
#include <time.h>

#include <cstdio>
#include <optional>
#include <span>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json_reporter.h"
#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/simd/dispatch.h"
#include "felip/fo/grr.h"
#include "felip/fo/olh.h"
#include "felip/fo/oue.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/svc/simulator.h"
#include "felip/svc/sink.h"
#include "felip/wire/wire.h"

namespace felip {
namespace {

constexpr double kEpsilon = 1.0;
constexpr uint64_t kDomain = 1024;
constexpr size_t kNumReports = 1000000;
constexpr fo::OlhOptions kPool{.seed_pool_size = 4096};

const std::vector<fo::OlhReport>& OlhPoolReports() {
  static const std::vector<fo::OlhReport>* reports = [] {
    fo::OlhClient client(kEpsilon, kDomain, kPool);
    Rng rng(1234);
    auto* out = new std::vector<fo::OlhReport>;
    out->reserve(kNumReports);
    for (size_t i = 0; i < kNumReports; ++i) {
      out->push_back(client.Perturb(i % kDomain, rng));
    }
    return out;
  }();
  return *reports;
}

const std::vector<uint64_t>& GrrReports() {
  static const std::vector<uint64_t>* reports = [] {
    fo::GrrClient client(kEpsilon, kDomain);
    Rng rng(5678);
    auto* out = new std::vector<uint64_t>;
    out->reserve(kNumReports);
    for (size_t i = 0; i < kNumReports; ++i) {
      out->push_back(client.Perturb(i % kDomain, rng));
    }
    return out;
  }();
  return *reports;
}

// OUE reports are |D| bytes each; use a smaller batch and domain to keep
// the resident set modest (200k * 128B = 25.6 MB).
constexpr uint64_t kOueDomain = 128;
constexpr size_t kOueReports = 200000;

const std::vector<std::vector<uint8_t>>& OueReports() {
  static const std::vector<std::vector<uint8_t>>* reports = [] {
    fo::OueClient client(kEpsilon, kOueDomain);
    Rng rng(91011);
    auto* out = new std::vector<std::vector<uint8_t>>;
    out->reserve(kOueReports);
    for (size_t i = 0; i < kOueReports; ++i) {
      out->push_back(client.Perturb(i % kOueDomain, rng));
    }
    return out;
  }();
  return *reports;
}

// Per-user OLH: the parallel work is the O(n * |D|) support count in
// EstimateFrequencies, so size n * |D| comparably to the other benches.
constexpr uint64_t kPerUserDomain = 256;
constexpr size_t kPerUserReports = 100000;

const std::vector<fo::OlhReport>& OlhPerUserReports() {
  static const std::vector<fo::OlhReport>* reports = [] {
    fo::OlhClient client(kEpsilon, kPerUserDomain);
    Rng rng(1213);
    auto* out = new std::vector<fo::OlhReport>;
    out->reserve(kPerUserReports);
    for (size_t i = 0; i < kPerUserReports; ++i) {
      out->push_back(client.Perturb(i % kPerUserDomain, rng));
    }
    return out;
  }();
  return *reports;
}

// One simulated round of kNumReports users over two numerical attributes
// of domain kDomain, every grid planned as pooled OLH (kPool), shipped as
// the 1,024-report frames devices send to the ingest server.
struct DrainInput {
  data::Dataset dataset;
  core::FelipConfig config;
  std::vector<std::vector<uint8_t>> frames;
};

const DrainInput& DrainFrames() {
  static const DrainInput* input = [] {
    auto* in = new DrainInput{
        data::MakeUniform(kNumReports, 2, 0, kDomain, 2, 4321), {}, {}};
    in->config.allow_grr = false;
    in->config.olh_options = kPool;
    const core::FelipPipeline planned(in->dataset.attributes(), kNumReports,
                                      in->config);
    std::vector<wire::GridConfigMessage> grids;
    for (uint32_t g = 0; g < planned.num_groups(); ++g) {
      grids.push_back(wire::MakeGridConfig(
          planned, in->dataset.attributes(), g, planned.per_grid_epsilon(),
          in->config.protocol_options()));
    }
    svc::SimulatorOptions options;
    options.seed = in->config.seed;
    options.batch_size = 1024;
    svc::PopulationSimulator(grids, options)
        .Run(in->dataset, [in](const std::vector<wire::ReportMessage>& batch) {
          in->frames.push_back(wire::EncodeReportBatch(batch));
          return true;
        });
    return in;
  }();
  return *input;
}

void BM_OlhPoolAddLoop(benchmark::State& state) {
  const auto& reports = OlhPoolReports();
  for (auto _ : state) {
    fo::OlhServer server(kEpsilon, kDomain, kPool);
    for (const fo::OlhReport& r : reports) server.Add(r);
    benchmark::DoNotOptimize(server.num_reports());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reports.size()));
}
BENCHMARK(BM_OlhPoolAddLoop)->Unit(benchmark::kMillisecond);

void BM_OlhPerUserEstimate(benchmark::State& state) {
  fo::OlhServer server(kEpsilon, kPerUserDomain);
  for (const fo::OlhReport& r : OlhPerUserReports()) server.Add(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.EstimateFrequencies());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kPerUserReports));
}
BENCHMARK(BM_OlhPerUserEstimate)->Unit(benchmark::kMillisecond);

void BM_GrrAddLoop(benchmark::State& state) {
  const auto& reports = GrrReports();
  for (auto _ : state) {
    fo::GrrServer server(kEpsilon, kDomain);
    for (const uint64_t r : reports) server.Add(r);
    benchmark::DoNotOptimize(server.num_reports());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reports.size()));
}
BENCHMARK(BM_GrrAddLoop)->Unit(benchmark::kMillisecond);

void BM_OueAddLoop(benchmark::State& state) {
  const auto& reports = OueReports();
  for (auto _ : state) {
    fo::OueServer server(kEpsilon, kOueDomain);
    for (const std::vector<uint8_t>& r : reports) server.Add(r);
    benchmark::DoNotOptimize(server.num_reports());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reports.size()));
}
BENCHMARK(BM_OueAddLoop)->Unit(benchmark::kMillisecond);

// The ingest server's drain thread over one round: every frame validated
// (its checksum already verified on the IO thread), decoded in chunks and
// fed to a PipelineSink. A fresh pipeline per iteration, planned outside
// the timed region.
void BM_DrainFrames(benchmark::State& state) {
  const DrainInput& in = DrainFrames();
  wire::ReportChunkDecoder decoder;
  for (auto _ : state) {
    state.PauseTiming();
    core::FelipPipeline pipeline(in.dataset.attributes(), kNumReports,
                                 in.config);
    svc::PipelineSink sink(&pipeline);
    state.ResumeTiming();
    for (const std::vector<uint8_t>& frame : in.frames) {
      if (!decoder.Validate(frame).ok()) {
        state.SkipWithError("a simulated frame failed validation");
        return;
      }
      decoder.Decode([&sink](std::span<const wire::ReportMessage> chunk) {
        sink.IngestBatch(chunk);
      });
    }
    if (sink.accepted() != kNumReports) {
      state.SkipWithError("the sink rejected a simulated report");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kNumReports));
}
BENCHMARK(BM_DrainFrames)->Unit(benchmark::kMillisecond);

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

// A paper_round-shaped round: OHG, eps 1, AFO over GRR and OLH with the
// 4096-seed pool, 6 ipums-like attributes.
const data::Dataset& PaperRoundDataset() {
  static const data::Dataset* dataset = new data::Dataset(
      data::MakeIpumsLike(kNumReports, 6, 100, 8, /*seed=*/8765));
  return *dataset;
}

core::FelipConfig PaperRoundConfig() {
  core::FelipConfig config;
  config.strategy = core::Strategy::kOhg;
  config.epsilon = kEpsilon;
  return config;
}

// The device side of one paper_round-shaped round: the simulator's device
// loop perturbs every user's report into its grid's run and each
// 1,024-report batch is framed by EncodeReportBatch. The simulator and its
// grid configs are built outside the timed region.
void BM_SimulateEncode(benchmark::State& state) {
  const data::Dataset* dataset = &PaperRoundDataset();
  const core::FelipConfig config = PaperRoundConfig();
  const core::FelipPipeline planned(dataset->attributes(), kNumReports,
                                    config);
  std::vector<wire::GridConfigMessage> grids;
  for (uint32_t g = 0; g < planned.num_groups(); ++g) {
    grids.push_back(wire::MakeGridConfig(
        planned, dataset->attributes(), g, planned.per_grid_epsilon(),
        config.protocol_options()));
  }
  svc::SimulatorOptions options;
  options.seed = config.seed;
  options.batch_size = 1024;
  const svc::PopulationSimulator simulator(grids, options);
  size_t bytes = 0;
  for (auto _ : state) {
    bytes = 0;
    const std::optional<uint64_t> emitted = simulator.Run(
        *dataset, [&bytes](const std::vector<wire::ReportMessage>& batch) {
          const std::vector<uint8_t> frame = wire::EncodeReportBatch(batch);
          benchmark::DoNotOptimize(frame.data());
          bytes += frame.size();
          return true;
        });
    if (emitted != kNumReports) {
      state.SkipWithError("the simulator emitted the wrong report count");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kNumReports));
  state.counters["bytes_per_report"] =
      static_cast<double>(bytes) / static_cast<double>(kNumReports);
}
BENCHMARK(BM_SimulateEncode)->Unit(benchmark::kMillisecond);

// Finalize of one paper_round-shaped round: estimation, Norm-Sub,
// consistency and the response matrices. The sealed round is collected
// once and kept as snapshot bytes; each iteration decodes a fresh sealed
// pipeline outside the timed region. The process_cpu_ms counter is the
// CPU time of the whole process per Finalize, the cost roundbench's
// first_answer_cpu_ms_p90 counts.
void BM_Finalize(benchmark::State& state) {
  static const std::vector<uint8_t>* sealed = [] {
    core::FelipPipeline pipeline(PaperRoundDataset().attributes(),
                                 kNumReports, PaperRoundConfig());
    pipeline.Collect(PaperRoundDataset());
    return new std::vector<uint8_t>(
        snapshot::PipelineCodec::Encode(pipeline, {}));
  }();
  double cpu_ms = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    StatusOr<snapshot::RecoveredPipeline> recovered =
        snapshot::PipelineCodec::Decode(*sealed);
    if (!recovered.ok()) {
      state.SkipWithError("the sealed round failed to decode");
      return;
    }
    core::FelipPipeline& pipeline = recovered.value().pipeline;
    state.ResumeTiming();
    const double cpu_start = ProcessCpuMs();
    pipeline.Finalize();
    cpu_ms += ProcessCpuMs() - cpu_start;
    benchmark::DoNotOptimize(pipeline.state());
  }
  state.counters["process_cpu_ms"] =
      cpu_ms / static_cast<double>(state.iterations());
}
BENCHMARK(BM_Finalize)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace felip

int main(int argc, char** argv) {
  std::printf("simd dispatch: %s\n", felip::simd::DescribeDispatch().c_str());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  felip::bench::BenchJsonReporter reporter(
      "perf_parallel_aggregation",
      "reports=1000000;domain=1024;pool=4096;oue_reports=200000;"
      "oue_domain=128;per_user_reports=100000;per_user_domain=256");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  felip::bench::DumpObsJsonIfRequested();
  return 0;
}
