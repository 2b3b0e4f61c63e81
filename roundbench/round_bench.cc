// round_bench — one FELIP collection round, end to end, over TCP on
// 127.0.0.1, against the real library.
//
// A round plans the grids, perturbs and encodes every user's report,
// delivers the encoded frames to an ingest server, drains and aggregates
// them, finalizes, and answers query batches from a query server. Two
// workloads vary what the round stresses (see README.md):
//
//   paper_round   the paper's round: 10^6 users, 6 attributes, GRR/OLH
//   query_mix     8 attributes, domain 256, many query batches per round
//
// Usage:
//   round_bench --workload=paper_round --seed=1 --seconds=10 --trace=0
//       [--work-dir=.bench_build/work] [--out-dir=.bench_build/out]
//
// With --trace=0 the run measures the end-to-end metrics with no tracing.
// With --trace=1 the first half of the time runs untraced and the second
// half traced; the traced half gives the per-layer metrics, and the
// difference between the halves gives the tracing overhead. After the
// traced half, the last round's frames are re-timed through the report
// log, a two-shard accumulator pull and merge, a checkpoint and two
// sealed epochs answering windowed queries. Every run
// ends with a correctness gate outside every timed region; the last line
// of standard output is one JSON object with the result.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "felip/common/flags.h"
#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/dist/accumulator.h"
#include "felip/dist/root.h"
#include "felip/fo/registry.h"
#include "felip/query/generator.h"
#include "felip/query/query.h"
#include "felip/replaylog/replay.h"
#include "felip/replaylog/store.h"
#include "felip/simd/dispatch.h"
#include "felip/snapshot/checkpoint.h"
#include "felip/snapshot/store.h"
#include "felip/stream/epoch_service.h"
#include "felip/stream/epoch_store.h"
#include "felip/stream/streaming.h"
#include "felip/svc/client.h"
#include "felip/svc/query_service.h"
#include "felip/svc/server.h"
#include "felip/svc/simulator.h"
#include "felip/svc/sink.h"
#include "felip/svc/tcp.h"
#include "felip/wire/wire.h"
#include "stats.h"
#include "trace.h"

#ifndef ROUNDBENCH_BUILD_TYPE
#define ROUNDBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace felip;
namespace rb = roundbench;
using rb::kNoSpan;
using rb::NowNs;
using rb::Span;
using rb::Tracer;

constexpr char kAnyPort[] = "127.0.0.1:0";
constexpr size_t kQueryBatchSize = 256;
constexpr int kWaitTimeoutMs = 60000;
constexpr int kSetupRepetitions = 3;
constexpr double kWarmupSeconds = 1.5;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

int64_t CpuNs(clockid_t clock) {
  timespec now{};
  ::clock_gettime(clock, &now);
  return int64_t{now.tv_sec} * 1000000000 + now.tv_nsec;
}

// CPU time used so far by every thread of this process, and by the
// calling thread. Neither counts time the hypervisor gave to other guests
// (steal), which wall time on a shared host does.
int64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }

// ---------------------------------------------------------------------------
// Workload definitions.

struct Workload {
  std::string name;
  uint32_t attributes = 6;
  uint32_t num_domain = 100;
  uint32_t cat_domain = 8;
  uint64_t users = 1000000;  // per round
  // Query batches each round ends with (the first one ends round_s).
  size_t query_batches_per_round = 4;
  // Distinct 256-query batches generated at setup and cycled through.
  size_t pool_batches = 3;
};

// Samples a run collects before it may stop, so that the p90 of its
// rounds and of its batches has ten samples beyond it.
constexpr size_t kMinRounds = 100;
constexpr size_t kMinTracedRounds = 5;
constexpr size_t kMinQueryBatches = 100;
constexpr size_t kMinAcks = 1000;
// Drain workers of the ingest server (the felip_server default).
constexpr unsigned kDrainWorkers = 2;
// Times the last round's frames are re-timed through the report log, the
// two-shard accumulator merge, a checkpoint and two epoch seals after a
// traced phase.
constexpr int kDurableRepetitions = 5;

std::optional<Workload> FindWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "paper_round") {
    w.query_batches_per_round = 4;
    return w;
  }
  if (name == "query_mix") {
    w.attributes = 8;
    w.num_domain = 256;
    w.query_batches_per_round = 16;
    return w;
  }
  return std::nullopt;
}

// The paper configuration: OHG, eps = 1, AFO over GRR/OLH with the
// 4096-seed OLH pool (the FelipConfig defaults).
core::FelipConfig BaseConfig() {
  core::FelipConfig config;
  config.strategy = core::Strategy::kOhg;
  config.epsilon = 1.0;
  return config;
}

uint64_t RoundSeed(uint64_t run_seed, uint64_t round) {
  uint64_t state = run_seed * 0x9e3779b97f4a7c15ull + round + 1;
  return SplitMix64(state);
}

// ---------------------------------------------------------------------------
// Inputs generated at setup.

struct QueryBatch {
  std::vector<query::Query> queries;
  // exact[q]: exact answer of query q on the dataset; filled by the
  // correctness gate, after the timed phases.
  std::vector<double> exact;
};

struct Inputs {
  data::Dataset dataset;
  std::vector<QueryBatch> pool;
};

// λ uniform over 2..6 (every batch holds an equal share of each λ, so
// batches cost alike) and s = 0.5; categorical attributes get IN
// predicates and numerical ones BETWEEN (query::GenerateQuery).
std::vector<query::Query> MakeQueries(const data::Dataset& dataset,
                                      size_t count, Rng& rng) {
  std::vector<query::Query> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    query::GeneratorOptions options;
    options.dimension = 2 + static_cast<uint32_t>(i % 5);
    options.selectivity = 0.5;
    queries.push_back(query::GenerateQuery(dataset, options, rng));
  }
  return queries;
}

// Runs fn(0) .. fn(count - 1) on up to four threads.
void ParallelFor(size_t count, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
}

// Exact answers of every pool query, for mae.
void ComputeExactAnswers(Inputs* inputs) {
  const size_t per_batch = kQueryBatchSize;
  for (QueryBatch& batch : inputs->pool) {
    batch.exact.assign(batch.queries.size(), 0.0);
  }
  ParallelFor(inputs->pool.size() * per_batch, [&](size_t i) {
    QueryBatch& batch = inputs->pool[i / per_batch];
    batch.exact[i % per_batch] =
        query::TrueAnswer(inputs->dataset, batch.queries[i % per_batch]);
  });
}

Inputs BuildInputs(const Workload& w, uint64_t seed) {
  Inputs inputs{data::MakeIpumsLike(w.users, w.attributes, w.num_domain,
                                    w.cat_domain, seed),
                {}};
  Rng rng(seed + 13);
  for (size_t b = 0; b < w.pool_batches; ++b) {
    inputs.pool.push_back(
        QueryBatch{MakeQueries(inputs.dataset, kQueryBatchSize, rng), {}});
  }
  return inputs;
}

// ---------------------------------------------------------------------------
// What a run records.

struct ServedBatch {
  size_t pool_index = 0;
  std::vector<double> answers;
};

// One ingest round, kept for the correctness gate.
struct RoundRecord {
  uint32_t id = 0;
  uint64_t config_seed = 0;
  uint64_t digest = 0;  // GridFrequencyDigest of the served pipeline
  uint64_t reports_rejected = 0;
  std::vector<ServedBatch> served;
};

struct Measurements {
  // CPU time of every thread of the process (ThreadCpuNs for the
  // generator), one sample per round or per steady query batch: what the
  // gated metrics are read from.
  std::vector<double> round_cpu_s;
  std::vector<double> client_cpu_ns;        // per report
  std::vector<double> ingest_cpu_ns;        // first send -> drained, per report
  std::vector<double> first_answer_cpu_ms;  // last ack -> first answer
  std::vector<double> query_cpu_us;         // per query
  // Wall time, printed but not gated.
  std::vector<double> round_s;
  std::vector<double> ack_ms;
  std::vector<double> first_answer_ms;
  std::vector<double> query_batch_ms;
  uint64_t client_reports = 0;
  // Per round: reports perturbed and encoded per second of the generator
  // thread, and reports ingested per second from the first send to the
  // last report drained.
  std::vector<double> client_rate;
  std::vector<double> ingest_rate;
  uint64_t frame_bytes = 0;
  uint64_t delivery_attempts = 0;
  uint64_t retries = 0;
  int64_t drain_wall_ns = 0;  // summed first send -> last report drained
  std::vector<double> segment_bytes;  // epochs sealed by the re-timing
  rb::OpsLedger ops;
};

// ---------------------------------------------------------------------------
// Decorators around the library's extension points.

// Times every PipelineSink::IngestBatch call.
class TimedSink final : public svc::ReportSink {
 public:
  TimedSink(svc::ReportSink* inner, Tracer* tracer, uint32_t round)
      : inner_(inner), tracer_(tracer), round_(round) {}

  size_t IngestBatch(std::span<const wire::ReportMessage> reports) override {
    const int64_t start = NowNs();
    const size_t accepted = inner_->IngestBatch(reports);
    tracer_->Record("svc.sink", start, NowNs(), kNoSpan, round_,
                    reports.size());
    return accepted;
  }

 private:
  svc::ReportSink* const inner_;
  Tracer* const tracer_;
  const uint32_t round_;
};

// ---------------------------------------------------------------------------
// Round stages shared by the workloads.

std::vector<wire::GridConfigMessage> GridConfigs(
    const core::FelipPipeline& pipeline) {
  std::vector<wire::GridConfigMessage> configs;
  for (uint32_t g = 0; g < pipeline.num_groups(); ++g) {
    configs.push_back(wire::MakeGridConfig(
        pipeline, pipeline.schema(), g, pipeline.per_grid_epsilon(),
        pipeline.config().protocol_options()));
  }
  return configs;
}

struct EncodedRound {
  std::vector<std::vector<uint8_t>> frames;
  uint64_t reports = 0;
};

// The newest round's frames and what produced them, kept for
// the offline re-timing after a traced phase.
struct LastRound {
  EncodedRound encoded;
  core::FelipConfig config;
};

// Device side: FelipClient projection, oracle perturbation and
// wire::EncodeReportBatch for every user, before anything is sent.
EncodedRound PerturbAndEncode(const core::FelipPipeline& pipeline,
                              const data::Dataset& dataset, Tracer& tracer,
                              uint32_t parent, uint32_t round,
                              Measurements* m) {
  EncodedRound out;
  svc::SimulatorOptions options;
  options.seed = pipeline.config().seed;
  options.partitioning = pipeline.config().partitioning;
  options.batch_size = 1024;
  const int64_t start = NowNs();
  const int64_t start_cpu = ThreadCpuNs();
  const svc::PopulationSimulator simulator(GridConfigs(pipeline), options);
  Span run(tracer, "fo.simulate", parent, round);
  const std::optional<uint64_t> emitted = simulator.Run(
      dataset, [&](const std::vector<wire::ReportMessage>& batch) {
        Span encode(tracer, "wire.encode", run.id(), round);
        out.frames.push_back(wire::EncodeReportBatch(batch));
        encode.set_items(batch.size());
        return true;
      });
  out.reports = emitted.value_or(0);
  run.set_items(out.reports);
  m->client_rate.push_back(static_cast<double>(out.reports) /
                           Seconds(NowNs() - start));
  m->client_cpu_ns.push_back(static_cast<double>(ThreadCpuNs() - start_cpu) /
                             static_cast<double>(out.reports));
  m->client_reports += out.reports;
  for (const std::vector<uint8_t>& frame : out.frames) {
    m->frame_bytes += frame.size();
  }
  return out;
}

// Sends every frame in order on one closed-loop client; returns the time
// the last batch was acked.
template <typename Client>
int64_t DeliverFrames(Client& client, const EncodedRound& encoded,
                      Tracer& tracer, uint32_t parent, uint32_t round,
                      Measurements* m) {
  uint64_t failed = 0;
  int64_t last_ack = NowNs();
  for (const std::vector<uint8_t>& frame : encoded.frames) {
    Span send(tracer, "svc.send", parent, round);
    const int64_t start = NowNs();
    const svc::SendOutcome outcome = client.SendEncodedBatch(frame);
    last_ack = NowNs();
    m->ack_ms.push_back(Millis(last_ack - start));
    m->delivery_attempts += static_cast<uint64_t>(outcome.attempts);
    if (!outcome.ok()) ++failed;
  }
  m->ops.Add("batch_delivery", encoded.frames.size(), failed);
  return last_ack;
}

// One plain query batch over `client`; records answers, and latency when
// `steady` (every batch but a round's first, which opens the connection
// and is measured by first_answer_ms instead).
bool AnswerBatch(svc::QueryClient& client, const Inputs& inputs,
                 size_t pool_index, bool steady, Tracer& tracer,
                 uint32_t parent, uint32_t round, Measurements* m,
                 RoundRecord* record) {
  const QueryBatch& batch = inputs.pool[pool_index];
  Span span(tracer, "svc.query_batch", parent, round);
  const int64_t start = NowNs();
  const int64_t start_cpu = ProcessCpuNs();
  const svc::QueryOutcome outcome = client.AnswerQueries(batch.queries);
  const int64_t elapsed = NowNs() - start;
  const int64_t elapsed_cpu = ProcessCpuNs() - start_cpu;
  const bool ok =
      outcome.ok() && outcome.answers.size() == batch.queries.size();
  m->ops.Add("query_batch", 1, ok ? 0 : 1);
  if (!ok) return false;
  if (steady) {
    m->query_batch_ms.push_back(Millis(elapsed));
    m->query_cpu_us.push_back(static_cast<double>(elapsed_cpu) * 1e-3 /
                              static_cast<double>(batch.queries.size()));
  }
  record->served.push_back(ServedBatch{pool_index, outcome.answers});
  return true;
}

// Offline re-timing of the layers a round used, on the round's own
// inputs: batch decoding on the server side, in-process answering and the
// query codecs. Runs after the round, outside its timed stages.
void RetimeLayers(const core::FelipPipeline& pipeline,
                  const EncodedRound& encoded, const Inputs& inputs,
                  const RoundRecord& record, Tracer& tracer, uint32_t round) {
  if (!tracer.enabled()) return;
  for (const std::vector<uint8_t>& frame : encoded.frames) {
    const int64_t start = NowNs();
    const StatusOr<size_t> count = wire::DecodeReportBatchSharded(
        frame, [](size_t, size_t, wire::ReportMessage&&) {}, 1);
    tracer.Record("wire.decode", start, NowNs(), kNoSpan, round,
                  count.ok() ? *count : 0);
  }
  for (const ServedBatch& served : record.served) {
    const std::vector<query::Query>& queries =
        inputs.pool[served.pool_index].queries;
    int64_t start = NowNs();
    const std::vector<double> answers =
        pipeline.AnswerQueries(queries);
    tracer.Record("core.answer", start, NowNs(), kNoSpan, round,
                  answers.size());
    start = NowNs();
    const std::vector<uint8_t> request = wire::EncodeQueryBatch(queries);
    const StatusOr<std::vector<query::Query>> decoded =
        wire::DecodeQueryBatch(request);
    wire::QueryResponseMessage response;
    response.status = StatusCode::kOk;
    response.answers = answers;
    const StatusOr<wire::QueryResponseMessage> echoed =
        wire::DecodeQueryResponse(wire::EncodeQueryResponse(response));
    tracer.Record("wire.query_codec", start, NowNs(), kNoSpan, round,
                  decoded.ok() && echoed.ok() ? 1 : 0);
  }
}

// ---------------------------------------------------------------------------
// paper_round / query_mix: one round per iteration.

struct Context {
  const Workload& workload;
  uint64_t seed;
  std::string work_dir;
  const Inputs& inputs;
  svc::TcpTransport& tcp;
};

// Runs one round; returns false when a stage failed outright. Leaves the
// round's frames and config in `last`.
bool RunRound(const Context& ctx, uint32_t round, Tracer& tracer,
              Measurements* m, RoundRecord* record, LastRound* last) {
  const Workload& w = ctx.workload;
  const data::Dataset& dataset = ctx.inputs.dataset;
  core::FelipConfig config = BaseConfig();
  config.seed = RoundSeed(ctx.seed, round);
  *last = LastRound{};  // frees the previous round's frames first
  record->id = round;
  record->config_seed = config.seed;

  const int64_t round_start = NowNs();
  const int64_t round_start_cpu = ProcessCpuNs();
  const uint32_t round_span = tracer.Begin("bench.round", kNoSpan, round);

  // Plan: the aggregator's grids, its server and the device configs.
  const uint32_t plan_span = tracer.Begin("bench.plan", round_span, round);
  std::unique_ptr<core::FelipPipeline> pipeline;
  {
    Span plan(tracer, "grid.plan", plan_span, round);
    pipeline = std::make_unique<core::FelipPipeline>(dataset.attributes(),
                                                     w.users, config);
  }
  svc::PipelineSink sink(pipeline.get());
  svc::ReportSink* ingest_sink = &sink;
  std::unique_ptr<TimedSink> timed_sink;
  if (tracer.enabled()) {
    timed_sink = std::make_unique<TimedSink>(&sink, &tracer, round);
    ingest_sink = timed_sink.get();
  }
  svc::IngestServer server(&ctx.tcp, kAnyPort, ingest_sink);
  if (!server.Start()) {
    std::fprintf(stderr, "error: ingest server did not start\n");
    return false;
  }
  svc::IngestClientOptions client_options;
  client_options.jitter_seed = config.seed;
  svc::IngestClient client(&ctx.tcp, server.endpoint(), client_options);
  tracer.End(plan_span);

  // Perturb and encode every report first, so delivery is not paced by
  // the generator thread.
  const uint32_t encode_span =
      tracer.Begin("bench.perturb_encode", round_span, round);
  EncodedRound encoded =
      PerturbAndEncode(*pipeline, dataset, tracer, encode_span, round, m);
  tracer.End(encode_span, encoded.reports);

  // Deliver on one closed-loop connection.
  const uint32_t deliver_span =
      tracer.Begin("bench.deliver", round_span, round);
  const int64_t first_send = NowNs();
  const int64_t first_send_cpu = ProcessCpuNs();
  const int64_t last_ack =
      DeliverFrames(client, encoded, tracer, deliver_span, round, m);
  const int64_t last_ack_cpu = ProcessCpuNs();
  tracer.End(deliver_span);

  // Drain: every report in the sink.
  const uint32_t drain_span = tracer.Begin("bench.drain", round_span, round);
  const bool drained = server.WaitForReports(w.users, kWaitTimeoutMs);
  const int64_t drained_at = NowNs();
  const int64_t drained_cpu = ProcessCpuNs();
  tracer.Record("svc.drain_tail", last_ack, drained_at, drain_span, round);
  server.Stop();
  tracer.End(drain_span);
  m->ingest_rate.push_back(static_cast<double>(encoded.reports) /
                           Seconds(drained_at - first_send));
  m->ingest_cpu_ns.push_back(static_cast<double>(drained_cpu - first_send_cpu) /
                             static_cast<double>(encoded.reports));
  m->drain_wall_ns += drained_at - first_send;
  if (!drained) {
    std::fprintf(stderr, "error: round %u did not drain\n", round);
    return false;
  }

  // Finish and finalize.
  const uint32_t finalize_span =
      tracer.Begin("bench.finalize", round_span, round);
  {
    Span finalize(tracer, "core.finalize", finalize_span, round);
    sink.Finish();
    pipeline->Finalize();
  }
  tracer.End(finalize_span);

  // Serve queries; the first answered batch ends the round.
  const uint32_t answer_span =
      tracer.Begin("bench.first_answer", round_span, round);
  // Library defaults, as felip_server deploys them: every batch is
  // answered on one thread per core.
  svc::QueryServer query_server(&ctx.tcp, kAnyPort, pipeline.get());
  if (!query_server.Start()) {
    std::fprintf(stderr, "error: query server did not start\n");
    return false;
  }
  svc::QueryClient query_client(&ctx.tcp, query_server.endpoint());
  const size_t pool = ctx.inputs.pool.size();
  bool ok = AnswerBatch(query_client, ctx.inputs, round % pool, false, tracer,
                        answer_span, round, m, record);
  const int64_t first_answer = NowNs();
  const int64_t first_answer_cpu = ProcessCpuNs();
  tracer.End(answer_span);
  tracer.End(round_span);
  m->round_s.push_back(Seconds(first_answer - round_start));
  m->first_answer_ms.push_back(Millis(first_answer - last_ack));
  m->round_cpu_s.push_back(Seconds(first_answer_cpu - round_start_cpu));
  m->first_answer_cpu_ms.push_back(Millis(first_answer_cpu - last_ack_cpu));
  m->retries += client.retries();

  // Outside the round.
  const uint32_t rest_span = tracer.Begin("bench.queries", kNoSpan, round);
  for (size_t b = 1; ok && b < w.query_batches_per_round; ++b) {
    ok = AnswerBatch(query_client, ctx.inputs, (round + b) % pool, true, tracer,
                     rest_span, round, m, record);
  }
  tracer.End(rest_span);
  query_server.Stop();

  record->reports_rejected = sink.rejected();
  m->ops.Add("sink_report", sink.accepted() + sink.rejected(),
             sink.rejected());
  record->digest = core::GridFrequencyDigest(*pipeline);
  RetimeLayers(*pipeline, encoded, ctx.inputs, *record, tracer, round);
  *last = LastRound{std::move(encoded), config};
  return ok;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

// Offline re-timing of the snapshot and stream layers on two pipelines
// fed through the report sink: the first is checkpointed
// (Checkpointer::Checkpoint), then both are sealed as consecutive epochs
// (EpochRotationService::SealEpoch) and the two-epoch window answers every
// pool batch (EpochSet::AnswerWindowed). Each windowed answer must equal
// stream::DecayMix over the two epochs' own answers bit for bit.
void RetimeEpochs(const std::string& dir, const Inputs& inputs,
                  std::vector<std::unique_ptr<core::FelipPipeline>> pipelines,
                  Tracer& tracer, Measurements* m, rb::OpsLedger* ops) {
  constexpr double kDecay = 0.9;
  snapshot::SnapshotStore snapshots(dir + "/snapshots", 3);
  {
    snapshot::Checkpointer checkpointer(&snapshots, pipelines[0].get());
    const int64_t start = NowNs();
    const Status status = checkpointer.Checkpoint({});
    tracer.Record("snapshot.checkpoint", start, NowNs(), kNoSpan, 0, 1);
    ops->Add("checkpoint", 1, status.ok() ? 0 : 1);
  }
  stream::EpochStore store(dir + "/epochs", 8);
  stream::EpochSet epochs(8);
  stream::EpochRotationService rotation(&store, &epochs);
  // own[e][b]: epoch e's answers to pool batch b, from the newest epoch
  // right after e was sealed.
  std::vector<std::vector<std::vector<double>>> own;
  for (std::unique_ptr<core::FelipPipeline>& pipeline : pipelines) {
    const int64_t start = NowNs();
    const StatusOr<std::string> sealed =
        rotation.SealEpoch(std::move(pipeline), {});
    tracer.Record("stream.seal", start, NowNs(), kNoSpan, 0, 1);
    ops->Add("epoch_seal", 1, sealed.ok() ? 0 : 1);
    if (!sealed.ok()) return;
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(*sealed, ec);
    if (!ec) m->segment_bytes.push_back(static_cast<double>(bytes));
    own.emplace_back();
    for (const QueryBatch& batch : inputs.pool) {
      StatusOr<std::vector<double>> latest =
          epochs.AnswerLatest(batch.queries);
      own.back().push_back(latest.ok() ? std::move(*latest)
                                       : std::vector<double>{});
    }
  }
  for (size_t b = 0; b < inputs.pool.size(); ++b) {
    const std::vector<query::Query>& queries = inputs.pool[b].queries;
    const int64_t start = NowNs();
    const StatusOr<std::vector<double>> windowed =
        epochs.AnswerWindowed(queries, 2, kDecay);
    tracer.Record("stream.answer_windowed", start, NowNs(), kNoSpan, 0,
                  queries.size());
    std::vector<double> expected;
    for (size_t q = 0; q < queries.size(); ++q) {
      if (own[0][b].size() != queries.size() ||
          own[1][b].size() != queries.size()) {
        break;
      }
      const double per_epoch[2] = {own[0][b][q], own[1][b][q]};
      expected.push_back(stream::DecayMix(per_epoch, kDecay));
    }
    const bool same = windowed.ok() && SameBits(*windowed, expected);
    if (!same) {
      std::fprintf(stderr, "gate: windowed answers differ from DecayMix\n");
    }
    ops->Add("check_windowed", 1, same ? 0 : 1);
  }
}

// Offline re-timing of the durability and distribution layers on `last`'s
// frames, after a traced phase: every frame appended to a report log
// (LogWriter::Append) and the log sealed, then the frames split
// alternately over two shard pipelines whose accumulators a root pulls
// over TCP (RootAggregator::PullUntilComplete) and merges (MergeInto).
// The merged pipeline must equal an in-process Collect bit for bit. The
// shard pipelines then go to RetimeEpochs.
void RetimeDurability(const Context& ctx, const LastRound& last,
                      Tracer& tracer, Measurements* m, rb::OpsLedger* ops) {
  const Workload& w = ctx.workload;
  const data::Dataset& dataset = ctx.inputs.dataset;
  core::FelipPipeline reference(dataset.attributes(), w.users, last.config);
  reference.Collect(dataset);
  reference.Finalize();
  const uint64_t expected = core::GridFrequencyDigest(reference);
  const uint64_t plan_digest = dist::PlanDigest(reference);
  for (int rep = 0; rep < kDurableRepetitions; ++rep) {
    const std::string dir = ctx.work_dir + "/durable" + std::to_string(rep);
    StatusOr<replaylog::LogWriter> log = replaylog::LogWriter::Open(
        dir + "/log",
        replaylog::EncodePlan(last.config, w.users, reference.schema()));
    if (!log.ok()) {
      std::fprintf(stderr, "error: cannot open report log: %s\n",
                   log.status().ToString().c_str());
      ops->Add("log_open", 1, 1);
      return;
    }
    uint64_t append_failures = 0;
    for (size_t i = 0; i < last.encoded.frames.size(); ++i) {
      const int64_t start = NowNs();
      const Status appended = log->Append(replaylog::RecordType::kBatch,
                                          i + 1, last.encoded.frames[i]);
      tracer.Record("replaylog.append", start, NowNs(), kNoSpan, 0, 1);
      if (!appended.ok()) ++append_failures;
    }
    ops->Add("log_append", last.encoded.frames.size(), append_failures);
    {
      const int64_t start = NowNs();
      const Status sealed = log->Seal();
      tracer.Record("replaylog.seal", start, NowNs(), kNoSpan, 0, 1);
      ops->Add("log_seal", 1, sealed.ok() ? 0 : 1);
    }

    std::vector<std::unique_ptr<core::FelipPipeline>> shards;
    std::vector<std::unique_ptr<svc::PipelineSink>> sinks;
    std::vector<std::unique_ptr<dist::ShardAccumulatorServer>> accums;
    std::vector<std::string> endpoints;
    bool started = true;
    for (uint32_t s = 0; s < 2; ++s) {
      shards.push_back(std::make_unique<core::FelipPipeline>(
          dataset.attributes(), w.users, last.config));
      sinks.push_back(std::make_unique<svc::PipelineSink>(shards[s].get()));
      dist::ShardAccumulatorOptions options;
      options.shard_id = s;
      options.num_shards = 2;
      options.plan_digest = plan_digest;
      accums.push_back(std::make_unique<dist::ShardAccumulatorServer>(
          &ctx.tcp, kAnyPort, sinks[s].get(), options));
      started = accums[s]->Start() && started;
      endpoints.push_back(accums[s]->endpoint());
    }
    uint64_t ingest_failures = 0;
    for (size_t i = 0; i < last.encoded.frames.size(); ++i) {
      const StatusOr<std::vector<wire::ReportMessage>> reports =
          wire::DecodeReportBatch(last.encoded.frames[i]);
      if (!reports.ok() ||
          sinks[i % 2]->IngestBatch(*reports) != reports->size()) {
        ++ingest_failures;
      }
    }
    ops->Add("shard_ingest", last.encoded.frames.size(), ingest_failures);
    dist::RootAggregatorOptions root_options;
    root_options.expected_reports = last.encoded.reports;
    root_options.plan_digest = plan_digest;
    dist::RootAggregator root(&ctx.tcp, endpoints, root_options);
    core::FelipPipeline merged(dataset.attributes(), w.users, last.config);
    Status status = started ? Status::Ok()
                            : Status::Unavailable("accumulator did not start");
    if (status.ok()) {
      Span pull(tracer, "dist.pull", kNoSpan, 0);
      status = root.PullUntilComplete(kWaitTimeoutMs);
    }
    if (status.ok()) {
      Span merge(tracer, "dist.merge", kNoSpan, 0);
      status = root.MergeInto(&merged);
    }
    for (const auto& accum : accums) accum->Stop();
    bool same = false;
    if (status.ok()) {
      merged.Finalize();
      same = core::GridFrequencyDigest(merged) == expected;
    } else {
      std::fprintf(stderr, "error: two-shard merge failed: %s\n",
                   status.ToString().c_str());
    }
    if (status.ok() && !same) {
      std::fprintf(stderr, "gate: two-shard merge differs from Collect\n");
    }
    ops->Add("check_merge", 1, same ? 0 : 1);
    accums.clear();
    if (status.ok()) {
      RetimeEpochs(dir, ctx.inputs, std::move(shards), tracer, m, ops);
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

// The smallest share of a round's wall time that the benchmark's stage
// spans (the round span's direct children) cover, over every round.
double MinRoundCoverage(const std::vector<rb::SpanRecord>& spans) {
  std::map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> stages;
  for (const rb::SpanRecord& span : spans) {
    if (span.parent != kNoSpan) {
      stages[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  double least = 1.0;
  for (const rb::SpanRecord& span : spans) {
    if (std::string_view(span.name) != "bench.round") continue;
    const double wall = static_cast<double>(span.end_ns - span.start_ns);
    if (wall <= 0.0) continue;
    const double covered =
        rb::CoveredNs(span.start_ns, span.end_ns, stages[span.id]);
    least = std::min(least, covered / wall);
  }
  return least;
}

// Runs rounds until `seconds` have passed and, when `min_rounds` is not
// 0, until that many rounds and enough query batches and acks were
// recorded, but never past 2.5 x `seconds`.
bool RunRoundPhase(const Context& ctx, uint32_t* next_round, double seconds,
                   size_t min_rounds, Tracer& tracer, Measurements* m,
                   std::vector<RoundRecord>* rounds, LastRound* last) {
  const int64_t start = NowNs();
  const auto soft = start + static_cast<int64_t>(seconds * 1e9);
  const auto hard = start + static_cast<int64_t>(2.5 * seconds * 1e9);
  size_t done = 0;
  while (true) {
    const int64_t now = NowNs();
    const bool enough = min_rounds == 0 ||
                        (done >= min_rounds &&
                         m->query_batch_ms.size() >= kMinQueryBatches &&
                         m->ack_ms.size() >= kMinAcks);
    if (now >= hard || (now >= soft && enough)) return true;
    RoundRecord record;
    if (!RunRound(ctx, (*next_round)++, tracer, m, &record, last)) {
      return false;
    }
    rounds->push_back(std::move(record));
    ++done;
  }
}

// ---------------------------------------------------------------------------
// Correctness gate (after every timed phase).


struct GateResult {
  double abs_error = 0.0;
  uint64_t answers = 0;
};

// Every round's served digest and answers must equal an in-process
// FelipPipeline::Collect over the same dataset and seed, and the sink
// must have rejected nothing. Rounds are checked on up to four threads.
GateResult CheckRounds(const Context& ctx,
                       const std::vector<RoundRecord>& rounds,
                       rb::OpsLedger* ops) {
  const Workload& w = ctx.workload;
  const data::Dataset& dataset = ctx.inputs.dataset;
  struct Checked {
    bool digest_ok = false;
    size_t batches_wrong = 0;
    double abs_error = 0.0;
  };
  std::vector<Checked> checked(rounds.size());
  ParallelFor(rounds.size(), [&](size_t i) {
    const RoundRecord& record = rounds[i];
    core::FelipConfig config = BaseConfig();
    config.seed = record.config_seed;
    core::FelipPipeline reference(dataset.attributes(), w.users, config);
    reference.Collect(dataset);
    reference.Finalize();
    checked[i].digest_ok =
        core::GridFrequencyDigest(reference) == record.digest;
    for (const ServedBatch& served : record.served) {
      const QueryBatch& batch = ctx.inputs.pool[served.pool_index];
      if (!SameBits(reference.AnswerQueries(batch.queries),
                    served.answers)) {
        ++checked[i].batches_wrong;
      }
      for (size_t q = 0; q < served.answers.size(); ++q) {
        checked[i].abs_error +=
            std::fabs(served.answers[q] - batch.exact[q]);
      }
    }
  });
  GateResult gate;
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundRecord& record = rounds[i];
    if (!checked[i].digest_ok) {
      std::fprintf(stderr, "gate: round %u digest differs from Collect\n",
                   record.id);
    }
    if (checked[i].batches_wrong > 0) {
      std::fprintf(stderr, "gate: round %u served answers differ\n",
                   record.id);
    }
    ops->Add("check_digest", 1, checked[i].digest_ok ? 0 : 1);
    ops->Add("check_rejected", 1, record.reports_rejected == 0 ? 0 : 1);
    ops->Add("check_answers", record.served.size(), checked[i].batches_wrong);
    gate.abs_error += checked[i].abs_error;
    for (const ServedBatch& served : record.served) {
      gate.answers += served.answers.size();
    }
  }
  return gate;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string FilesystemType(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buffer;
    }
  }
}

// CPU time the hypervisor gave to other guests ("steal") and the total
// CPU time of this machine so far, in clock ticks, from /proc/stat; zeros
// where it is unreadable. Their growth over a run says how contended the
// host was, the main source of run-to-run spread on a shared machine.
std::pair<uint64_t, uint64_t> StealAndTotalTicks() {
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  const int read =
      std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(file);
  if (read != 8) return {0, 0};
  uint64_t total = 0;
  for (const unsigned long long x : v) total += x;
  return {v[7], total};
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string Percent(double percentile) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", percentile);
  return buffer;
}

// Stamps the sample count of `samples` and, when one qualifies, its tail
// percentiles into `meta`; appends p90 and the highest qualifying
// percentile, with `unit`, to `tails` unless it is null.
void DescribeTails(const std::vector<double>& samples, const char* what,
                   const char* unit, std::string* meta,
                   std::vector<Metric>* tails) {
  *meta += std::string("\"") + what + "\":{\"samples\":" +
           std::to_string(samples.size());
  const std::optional<rb::Tail> p90 = rb::Percentile(samples, 90.0);
  std::optional<rb::Tail> highest = rb::HighestTail(samples);
  if (p90 && highest && highest->percentile == p90->percentile) {
    highest.reset();
  }
  for (const std::optional<rb::Tail>& tail : {p90, highest}) {
    if (!tail) continue;
    const std::string suffix = "p" + Percent(tail->percentile);
    *meta += ",\"" + suffix + "\":{\"value\":" + Num(tail->value) +
             ",\"beyond\":" + std::to_string(tail->beyond) + "}";
    if (tails != nullptr) {
      tails->push_back({std::string(what) + "_" + suffix, tail->value, unit});
    }
  }
  *meta += "},";
}

// The gated end-to-end metrics: set-up time, the CPU cost of a round and
// of each of its stages, accuracy and memory. Each CPU cost is the p90 of
// its per-round (per-batch for queries) samples. CPU time leaves out
// the time the hypervisor gives to other guests, which on a shared host
// doubled ingest wall time from one 10-second window to the next; the
// p90 leaves out how many rounds happen to run fast: on an idle host a
// share of rounds runs up to 1.6x faster than the rest, and that share
// drifts with the neighbours' load, moving a median with it. A p90
// short of ten samples beyond it counts in `ops` (unless null) as a
// failure. The wall-clock figures a user waits on go to `wall`, printed
// with their tails but not gated.
std::vector<Metric> EndToEndMetrics(const Measurements& m, double setup_s,
                                    double mae, double peak_rss_mb,
                                    std::string* meta,
                                    std::vector<Metric>* wall,
                                    rb::OpsLedger* ops) {
  const auto median = [](const std::vector<double>& v) {
    return rb::Median(v).value_or(0.0);
  };
  const auto p90 = [&](const std::vector<double>& v, const char* what) {
    const std::optional<rb::Tail> tail = rb::Percentile(v, 90.0);
    if (ops != nullptr) {
      ops->Add(std::string("p90_samples_") + what, 1, tail ? 0 : 1);
    }
    return tail ? tail->value : 0.0;
  };
  std::vector<Metric> out;
  out.push_back({"setup_s", setup_s, "s"});
  out.push_back({"round_cpu_s_p90", p90(m.round_cpu_s, "round"), "s"});
  out.push_back({"client_cpu_ns_per_report_p90",
                 p90(m.client_cpu_ns, "client"), "ns"});
  out.push_back({"ingest_cpu_ns_per_report_p90",
                 p90(m.ingest_cpu_ns, "ingest"), "ns"});
  out.push_back({"first_answer_cpu_ms_p90",
                 p90(m.first_answer_cpu_ms, "first_answer"), "ms"});
  out.push_back({"query_cpu_us_per_query_p90",
                 p90(m.query_cpu_us, "query"), "us"});
  out.push_back({"mae", mae, "fraction"});
  out.push_back({"peak_rss_mb", peak_rss_mb, "MB"});

  double query_ms = 0.0;
  for (const double ms : m.query_batch_ms) query_ms += ms;
  wall->push_back({"round_s", median(m.round_s), "s"});
  wall->push_back(
      {"client_reports_per_s", median(m.client_rate), "reports/s"});
  wall->push_back(
      {"ingest_reports_per_s", median(m.ingest_rate), "reports/s"});
  wall->push_back({"batch_ack_ms_p50", median(m.ack_ms), "ms"});
  wall->push_back({"first_answer_ms", median(m.first_answer_ms), "ms"});
  wall->push_back({"queries_per_s",
                   Ratio(static_cast<double>(m.query_batch_ms.size() *
                                             kQueryBatchSize),
                         query_ms * 1e-3),
                   "queries/s"});
  wall->push_back({"query_batch_ms_p50", median(m.query_batch_ms), "ms"});
  DescribeTails(m.ack_ms, "batch_ack_ms", "ms", meta, wall);
  DescribeTails(m.query_batch_ms, "query_batch_ms", "ms", meta, wall);
  DescribeTails(m.first_answer_ms, "first_answer_ms", "ms", meta, nullptr);
  DescribeTails(m.round_s, "round_s", "s", meta, nullptr);
  DescribeTails(m.round_cpu_s, "round_cpu_s", "s", meta, nullptr);
  DescribeTails(m.query_cpu_us, "query_cpu_us", "us", meta, nullptr);
  return out;
}

// Per-layer metrics from the traced phase. `common` gets the metrics every
// run reports; `specific` the tails, reported only when they have ten
// samples beyond them.
void LayerMetrics(const Measurements& traced,
                  const std::vector<rb::SpanRecord>& spans,
                  double overhead_pct, std::vector<Metric>* common,
                  std::vector<Metric>* specific) {
  const std::map<std::string, rb::SpanTotals> totals =
      rb::SummarizeSpans(spans);
  const auto get = [&](const char* name) -> const rb::SpanTotals& {
    static const rb::SpanTotals kEmpty;
    auto it = totals.find(name);
    return it == totals.end() ? kEmpty : it->second;
  };
  const auto median_ms = [&](const char* name) {
    return rb::Median(get(name).durations_ns).value_or(0.0) * 1e-6;
  };
  const auto per_item = [&](const char* name, double scale) {
    const rb::SpanTotals& t = get(name);
    return Ratio(t.total_ns, static_cast<double>(t.items)) * scale;
  };
  const rb::SpanTotals& simulate = get("fo.simulate");
  common->push_back({"grid.plan_ms", median_ms("grid.plan"), "ms"});
  common->push_back(
      {"fo.perturb_ns_per_report",
       Ratio(simulate.self_ns, static_cast<double>(simulate.items)), "ns"});
  common->push_back(
      {"wire.encode_ns_per_report", per_item("wire.encode", 1.0), "ns"});
  common->push_back({"wire.bytes_per_report",
                     Ratio(static_cast<double>(traced.frame_bytes),
                           static_cast<double>(traced.client_reports)),
                     "B"});
  common->push_back(
      {"wire.decode_ns_per_report", per_item("wire.decode", 1.0), "ns"});
  common->push_back(
      {"svc.sink_ns_per_report", per_item("svc.sink", 1.0), "ns"});
  common->push_back(
      {"svc.sink_busy_share",
       rb::BusyShare(get("svc.sink").total_ns,
                     static_cast<double>(traced.drain_wall_ns), kDrainWorkers),
       "fraction"});
  common->push_back({"svc.refused_ratio",
                     Ratio(static_cast<double>(traced.retries),
                           static_cast<double>(traced.delivery_attempts)),
                     "ratio"});
  common->push_back({"svc.drain_tail_ms", median_ms("svc.drain_tail"), "ms"});
  common->push_back({"core.finalize_ms", median_ms("core.finalize"), "ms"});
  common->push_back(
      {"core.answer_us_per_query", per_item("core.answer", 1e-3), "us"});
  common->push_back({"wire.query_codec_us_per_batch",
                     Ratio(get("wire.query_codec").total_ns,
                           static_cast<double>(get("wire.query_codec").count)) *
                         1e-3,
                     "us"});
  common->push_back({"replaylog.append_us_p50",
                     median_ms("replaylog.append") * 1e3, "us"});
  common->push_back({"replaylog.seal_ms", median_ms("replaylog.seal"), "ms"});
  common->push_back({"dist.pull_ms", median_ms("dist.pull"), "ms"});
  common->push_back({"dist.merge_ms", median_ms("dist.merge"), "ms"});
  common->push_back({"snapshot.checkpoint_ms_p50",
                     median_ms("snapshot.checkpoint"), "ms"});
  common->push_back({"stream.seal_ms_p50", median_ms("stream.seal"), "ms"});
  common->push_back({"stream.segment_bytes",
                     rb::Median(traced.segment_bytes).value_or(0.0), "B"});
  common->push_back({"stream.answer_windowed_us_per_query",
                     per_item("stream.answer_windowed", 1e-3), "us"});
  common->push_back({"bench.trace_overhead_pct", overhead_pct, "%"});

  // A p99 is reported only with ten samples beyond it.
  const auto p99_of = [&](const char* name, double scale, const char* metric,
                          const char* unit) {
    const std::optional<rb::Tail> tail =
        rb::Percentile(get(name).durations_ns, 99.0);
    if (tail) specific->push_back({metric, tail->value * scale, unit});
  };
  p99_of("replaylog.append", 1e-3, "replaylog.append_us_p99", "us");
}

// Self time per layer (the span-name prefix before the first '.').
void PrintSelfTimes(const std::vector<rb::SpanRecord>& spans) {
  std::map<std::string, double> self;
  for (const auto& [name, t] : rb::SummarizeSpans(spans)) {
    self[name.substr(0, name.find('.'))] += t.self_ns;
  }
  std::printf("self time by layer (traced phase):\n");
  for (const auto& [layer, ns] : self) {
    std::printf("  %-10s %12.3f ms\n", layer.c_str(), ns * 1e-6);
  }
}

std::string PlanSummary(const Workload& w, const data::Dataset& dataset) {
  core::FelipConfig config = BaseConfig();
  const core::FelipPipeline pipeline(dataset.attributes(), w.users, config);
  std::map<std::string, int> counts;
  for (const core::GridAssignment& a : pipeline.assignments()) {
    ++counts[std::string(fo::ProtocolName(a.plan.protocol))];
  }
  std::string out = "{";
  for (const auto& [name, count] : counts) {
    if (out.size() > 1) out += ",";
    out += "\"" + name + "\":" + std::to_string(count);
  }
  return out + "}";
}

void PrintMetrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& metric : metrics) {
    std::printf("  %-36s %18.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& metric : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + metric.name + "\": {\"value\": " + Num(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: round_bench --workload=<paper_round|query_mix>\n"
               "         [--seed=N] [--seconds=S] [--trace=0|1]\n"
               "         [--work-dir=DIR] [--out-dir=DIR] [--source-id=ID]\n");
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const std::string workload_name = flags.GetString("workload", "");
  const uint64_t seed = flags.GetUint("seed", 1);
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetUint("trace", 0) != 0;
  const std::string work_dir =
      flags.GetString("work-dir", ".bench_build/work");
  const std::string out_dir = flags.GetString("out-dir", ".bench_build/out");
  const std::string source_id = flags.GetString("source-id", "unknown");
  if (!flags.UnconsumedFlags().empty() || !flags.positional().empty() ||
      !(seconds > 0.0 && seconds <= 120.0)) {
    PrintUsage();
    return 2;
  }
  const std::optional<Workload> found = FindWorkload(workload_name);
  if (!found) {
    PrintUsage();
    return 2;
  }
  const Workload& w = *found;

  std::error_code ec;
  const std::string run_dir =
      work_dir + "/" + w.name + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(run_dir, ec);
  std::filesystem::create_directories(run_dir, ec);
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s\n", run_dir.c_str());
    return 1;
  }

  svc::TcpTransport tcp;
  Tracer untraced(false);
  Tracer traced(true);

  // Set-up, repeated: the dataset and the query pool. The last
  // repetition's inputs are the ones used.
  std::vector<double> setup_runs;
  std::optional<Inputs> inputs;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    inputs.reset();
    const int64_t start = NowNs();
    inputs.emplace(BuildInputs(w, seed));
    setup_runs.push_back(Seconds(NowNs() - start));
  }
  const double setup_s = *rb::Median(setup_runs);
  const Context ctx{w, seed, run_dir, *inputs, tcp};

  // Timed phases. An untraced run needs enough rounds for the p90 of its
  // per-round samples; a traced run reports medians only.
  const size_t min_rounds = trace ? kMinTracedRounds : kMinRounds;
  const std::pair<uint64_t, uint64_t> ticks_before = StealAndTotalTicks();
  Measurements phase[2];
  std::vector<RoundRecord> rounds;
  LastRound last;
  uint32_t next_round = 0;
  double coverage = 1.0;
  bool ran = true;
  // A short untimed warm-up first: caches fill and the host's cores
  // settle before anything is recorded. Its rounds are not gated.
  Measurements warmup;
  {
    std::vector<RoundRecord> unused_rounds;
    ran = RunRoundPhase(ctx, &next_round, kWarmupSeconds, 0, untraced,
                        &warmup, &unused_rounds, &last);
  }
  const int phases = trace ? 2 : 1;
  for (int p = 0; p < phases && ran; ++p) {
    Tracer& tracer = trace && p == 1 ? traced : untraced;
    ran = RunRoundPhase(ctx, &next_round, seconds / phases, min_rounds,
                        tracer, &phase[p], &rounds, &last);
  }
  const std::pair<uint64_t, uint64_t> ticks_after = StealAndTotalTicks();
  const double steal_share =
      Ratio(static_cast<double>(ticks_after.first - ticks_before.first),
            static_cast<double>(ticks_after.second - ticks_before.second));
  // Read before the re-timing and the gate build pipelines of their own.
  const double peak_rss_mb = PeakRssMb();
  rb::OpsLedger ops;
  std::vector<Metric> specific;
  std::vector<Metric> layers;
  if (trace && ran) {
    RetimeDurability(ctx, last, traced, &phase[1], &ops);
    // Tracing overhead in CPU time, which host contention moves less
    // than wall time.
    const double untraced_round =
        rb::Median(phase[0].round_cpu_s).value_or(0.0);
    const double traced_round = rb::Median(phase[1].round_cpu_s).value_or(0.0);
    const double overhead_pct =
        untraced_round > 0.0 ? (traced_round / untraced_round - 1.0) * 100.0
                             : 0.0;
    const std::vector<rb::SpanRecord> spans = traced.Spans();
    coverage = MinRoundCoverage(spans);
    LayerMetrics(phase[1], spans, overhead_pct, &layers, &specific);
    PrintSelfTimes(spans);
    const std::string trace_path = out_dir + "/trace-" + w.name + ".csv";
    if (traced.WriteCsv(trace_path)) {
      std::printf("spans written to %s\n", trace_path.c_str());
    }
  }
  // Correctness gate, outside every timed region.
  for (const Measurements* m : {&warmup, &phase[0], &phase[1]}) {
    for (const rb::OpsLedger::Entry& entry : m->ops.entries()) {
      ops.Add(entry.kind, entry.attempted, entry.failed);
    }
  }
  const int64_t gate_start = NowNs();
  ComputeExactAnswers(&*inputs);
  const double reference_s = Seconds(NowNs() - gate_start);
  const GateResult gate = CheckRounds(ctx, rounds, &ops);
  const double gate_s = Seconds(NowNs() - gate_start);
  if (!ran) ops.Add("phase", 1, 1);
  // In a traced paper_round run, the benchmark's stage spans must account
  // for at least 90% of every round's wall time.
  if (trace && w.name == "paper_round") {
    const bool covered = coverage >= 0.9;
    if (!covered) {
      std::fprintf(stderr, "gate: stage spans cover %.1f%% of a round\n",
                   coverage * 100.0);
    }
    ops.Add("check_span_coverage", 1, covered ? 0 : 1);
  }
  const double mae = Ratio(gate.abs_error, static_cast<double>(gate.answers));

  // Report.
  std::string meta = "{\"workload\":\"" + w.name + "\",\"seed\":" +
                     std::to_string(seed) + ",\"source\":\"" +
                     JsonEscape(source_id) + "\",\"nproc\":" +
                     std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
                     ",\"simd\":\"" + JsonEscape(simd::DescribeDispatch()) +
                     "\",\"build_type\":\"" ROUNDBENCH_BUILD_TYPE
                     "\",\"tmp_fs\":\"" + FilesystemType(run_dir) +
                     "\",\"seconds\":" + Num(seconds) +
                     ",\"trace\":" + (trace ? "1" : "0") +
                     ",\"plan\":" + PlanSummary(w, inputs->dataset) +
                     ",\"rounds\":" +
                     std::to_string(phase[0].round_s.size() +
                                    phase[1].round_s.size()) +
                     (trace ? ",\"min_round_span_coverage\":" + Num(coverage)
                            : std::string()) +
                     ",\"setup_runs\":" + std::to_string(setup_runs.size()) +
                     ",\"reference_s\":" + Num(reference_s) +
                     ",\"gate_s\":" + Num(gate_s) +
                     ",\"host_steal_share\":" + Num(steal_share) +
                     ",\"samples\":{";
  // The p90s an untraced run reports must have their samples; a traced
  // run reports per-layer metrics instead.
  std::vector<Metric> wall;
  const std::vector<Metric> end_to_end =
      EndToEndMetrics(phase[0], setup_s, mae, peak_rss_mb, &meta, &wall,
                      trace ? nullptr : &ops);
  meta.pop_back();
  meta += "},\"ops\":{";
  for (const rb::OpsLedger::Entry& entry : ops.entries()) {
    meta += "\"" + entry.kind + "\":[" + std::to_string(entry.attempted) +
            "," + std::to_string(entry.failed) + "],";
  }
  if (meta.back() == ',') meta.pop_back();
  meta += "},\"failed_ops_ratio\":" + Num(ops.failed_ratio()) + "}";
  const bool correct = ops.failed() == 0;

  if (!trace) PrintMetrics("end-to-end (untraced, gated):", end_to_end);
  PrintMetrics("wall clock (untraced, reported, not gated):", wall);
  if (trace) {
    PrintMetrics("per-layer (traced):", layers);
    PrintMetrics("per-layer tails (traced):", specific);
  }
  std::printf("failed_ops_ratio %.17g (%llu of %llu)\n", ops.failed_ratio(),
              static_cast<unsigned long long>(ops.failed()),
              static_cast<unsigned long long>(ops.attempted()));
  std::printf("roundbench-meta %s\n", meta.c_str());
  std::filesystem::remove_all(run_dir, ec);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ops.attempted()),
              static_cast<unsigned long long>(ops.failed()),
              MetricsJson(trace ? layers : end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
