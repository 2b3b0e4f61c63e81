// felip_server — host a FELIP ingest endpoint over TCP.
//
// Plans a pipeline for the shared synthetic schema, listens for perturbed
// report batches from felip_client, drains them through the bounded queue
// into the sharded aggregators, and finalizes once the expected population
// has reported. Both tools must be launched with the same --users,
// --attributes, --num-domain, --cat-domain, --epsilon, --strategy, and
// --seed so that planner and devices agree on the grid layout.
//
// Example (two shells):
//   felip_server --port=7071 --users=50000
//   felip_client --endpoint=127.0.0.1:7071 --users=50000
//
// Distributed topology (docs/distributed.md): each shard serves its
// consistent-hash partition with --shard-id/--num-shards and exposes an
// accumulator endpoint on --accum-port; one more felip_server run with
// --root=<accum-ep,...> pulls and merges the shards, then finalizes —
// bit-identical to the single-node round:
//   felip_server --port=7071 --accum-port=7171 --shard-id=0 --num-shards=2
//   felip_server --port=7072 --accum-port=7172 --shard-id=1 --num-shards=2
//   felip_client --endpoint=127.0.0.1:7071,127.0.0.1:7072
//   felip_server --root=127.0.0.1:7171,127.0.0.1:7172

#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "felip/common/flags.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/fo/registry.h"
#include "felip/node/node.h"
#include "felip/obs/metrics.h"
#include "felip/post/norm_sub.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/stream/epoch_store.h"
#include "felip/svc/tcp.h"

namespace {

using namespace felip;

void PrintUsage() {
  std::fputs(R"(felip_server — FELIP report-ingest endpoint (TCP)

  --port=<int>            listen port, 0 picks one (default 7071)
  --host=<addr>           bind address (default 127.0.0.1)
  --users=<int>           expected population size (default 100000)
  --attributes=<int>      schema attribute count (default 6)
  --num-domain=<int>      numerical domain (default 100)
  --cat-domain=<int>      categorical domain (default 8)
  --epsilon=<float>       privacy budget (default 1.0)
  --strategy=oug|ohg      grid strategy (default ohg)
  --protocols=<p,p,...>   AFO candidate protocols from
                          grr,olh,oue,pgr,fldp (default grr,olh)
  --report-budget-bytes=<int>  per-report wire budget AFO plans
                          under (default 0 = unconstrained)
  --seed=<int>            planning seed (default 1)
  --workers=<int>         queue drain threads (default 2)
  --queue-capacity=<int>  batches buffered before backpressure (default 64)
  --timeout-ms=<int>      max wait for the population (default 60000)
  --serve-queries         serve query batches after finalizing
  --query-port=<int>      query listen port, 0 picks one (default 0)
  --query-batches=<int>   batches to answer before exiting (default 1)
  --query-timeout-ms=<int>  max wait for query batches (default 60000)
  --snapshot-dir=<path>   checkpoint/recover pipeline state here
  --snapshot-interval=<int>  checkpoint every N drained batches (default 8)
  --snapshot-interval-ms=<int>  also checkpoint every T ms (default 0 = off)
  --snapshot-keep=<int>   snapshots retained in rotation (default 3)
  --report-log-dir=<path>  append every drained batch to a replay log here
  --report-log-segment-mb=<int>  rotate log segments at this size (default 64)
  --report-log-keep=<int>  sealed segments retained, 0 = all (default 0)
  --normalization=sub|mul|cut  negativity-removal variant (default sub)
  --metrics               dump observability metrics to stderr

Epoch rotation (see docs/continual.md):
  --epoch-dir=<path>      enable epoch mode; sealed segments land here
  --epoch-users=<int>     reports per epoch; also the count-rotation
                          trigger when no interval is set (default --users)
  --epoch-interval-ms=<int>  clock-driven rotation period (0 = rotate
                          when an epoch reaches --epoch-users)
  --epoch-keep=<int>      sealed epochs retained on disk and served (default 8)
  --epochs=<int>          epochs to seal before exiting (default 4)
  --epoch-inspect         print the sealed segments in --epoch-dir and exit

Distributed topology (see docs/distributed.md):
  --num-shards=<int>      total shards in the topology (default 1)
  --shard-id=<int>        this server's shard, in [0, num-shards)
  --accum-port=<int>      shard accumulator port, 0 picks one (default 0)
  --root=<ep,ep,...>      run as the root aggregator pulling from
                          these shard accumulator endpoints
)",
             stdout);
}

void DumpMetrics(bool enabled) {
  if (!enabled) return;
  std::fputs(obs::Registry::Default().RenderText().c_str(), stderr);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.message().c_str());
  return 1;
}

// Finalizes a single or root round, prints its fingerprint and serves
// its queries; 0 on success.
int FinishRound(node::Node& node, bool dump_metrics) {
  const Status finalized = node.Finalize();
  if (!finalized.ok()) return Fail(finalized);
  core::PrintFingerprint(node.pipeline(), stdout);
  if (node.config().serve_queries) {
    const Status started = node.StartQueries();
    if (!started.ok()) return Fail(started);
    std::printf("serving queries on %s\n",
                node.query_server()->endpoint().c_str());
    std::fflush(stdout);
    const bool served = node.AwaitQueries();
    const svc::QueryServer& queries = *node.query_server();
    std::printf("query batches answered=%" PRIu64 " queries=%" PRIu64
                " invalid=%" PRIu64 " malformed=%" PRIu64 "\n",
                queries.batches_answered(), queries.queries_answered(),
                queries.batches_invalid(), queries.batches_malformed());
    if (!served) {
      std::fprintf(stderr, "error: timed out waiting for query batches\n");
      return 1;
    }
  }
  DumpMetrics(dump_metrics);
  return 0;
}

// Offline view of a segment directory: one line per sealed epoch with the
// same reports/xxh64 fingerprint the live server prints at seal time, so
// a soak can diff "what the server said it sealed" against "what a cold
// reader recovers from disk" bit for bit.
int InspectEpochs(const std::string& epoch_dir, uint64_t epoch_keep) {
  stream::EpochStore store(epoch_dir, static_cast<size_t>(epoch_keep));
  const stream::LoadedEpochs loaded = store.LoadAll();
  for (const stream::EpochSegment& segment : loaded.segments) {
    const StatusOr<snapshot::RecoveredPipeline> state =
        snapshot::PipelineCodec::Decode(segment.snapshot);
    if (!state.ok() ||
        state->pipeline.state() != core::PipelineState::kQueryable) {
      std::printf("epoch %" PRIu64 " UNUSABLE (%s)\n", segment.seq,
                  state.ok() ? "snapshot is not queryable"
                             : state.status().ToString().c_str());
      continue;
    }
    std::printf("epoch %" PRIu64 " sealed: reports=%" PRIu64
                " epsilon=%.17g xxh64=%016" PRIx64 " dedup_keys=%zu\n",
                segment.seq, segment.reports, segment.epsilon,
                core::GridFrequencyDigest(state->pipeline),
                state->dedup_keys.size());
  }
  std::printf("segments=%zu skipped=%zu next_seq=%" PRIu64 "\n",
              loaded.segments.size(), loaded.files_skipped, store.next_seq());
  return loaded.files_skipped == 0 ? 0 : 1;
}

// Root aggregator: pulls every shard's accumulator frames, merges them in
// shard-id order, and finalizes — bit-identical to single-node collection.
int RunRoot(node::Node& node, bool dump_metrics) {
  const node::NodeConfig& config = node.config();
  (void)node.Start();  // a root binds nothing
  std::printf("root pulling from %zu shard(s), expecting %" PRIu64
              " reports\n",
              config.root.size(), config.users);
  std::fflush(stdout);
  const Status status = node.AwaitRound();
  const dist::RootAggregator& root = *node.root();
  if (!status.ok()) {
    std::fprintf(stderr,
                 "error: %s (reports accounted=%" PRIu64
                 " frames pulled=%" PRIu64 " stale=%" PRIu64
                 " failures=%" PRIu64 ")\n",
                 status.ToString().c_str(), root.total_reports(),
                 root.frames_pulled(), root.frames_stale(),
                 root.pull_failures());
    return 1;
  }
  std::printf("merged %" PRIu64 " reports from %zu shard(s) (frames pulled=%"
              PRIu64 " stale=%" PRIu64 " failures=%" PRIu64 ")\n",
              node.pipeline().reports_ingested(), config.root.size(),
              root.frames_pulled(), root.frames_stale(),
              root.pull_failures());
  return FinishRound(node, dump_metrics);
}

// One collection round on a single node or one shard.
int RunRound(node::Node& node, bool dump_metrics) {
  const node::NodeConfig& config = node.config();
  const Status started = node.Start();
  const node::Recovery& recovery = node.recovery();
  if (!config.snapshot_dir.empty()) {
    if (recovery.snapshot_adopted) {
      std::printf("recovered %" PRIu64 " reports from %s (%zu unusable "
                  "snapshot(s) skipped)\n",
                  recovery.snapshot_reports, recovery.snapshot_path.c_str(),
                  recovery.snapshots_skipped);
    } else if (!recovery.snapshot_path.empty()) {
      std::fprintf(stderr,
                   "warning: snapshot %s is past collection; starting a "
                   "fresh round\n",
                   recovery.snapshot_path.c_str());
    } else {
      std::printf("no usable snapshot in %s (%s); starting fresh\n",
                  config.snapshot_dir.c_str(),
                  recovery.snapshot_status.ToString().c_str());
    }
  }
  if (!started.ok()) return Fail(started);
  const dist::ShardAccumulatorServer* accum = node.accumulator();
  if (accum != nullptr) {
    std::printf("shard %u/%u accumulator on %s (epoch %" PRIu64 ")\n",
                config.shard_id, config.num_shards,
                accum->endpoint().c_str(), node.shard_epoch());
  }
  svc::IngestServer& server = *node.ingest();
  std::printf("listening on %s (%" PRIu64 " grids, expecting %" PRIu64
              " reports)\n",
              server.endpoint().c_str(),
              static_cast<uint64_t>(node.pipeline().num_groups()),
              config.users);
  std::fflush(stdout);

  const Status round = node.AwaitRound();
  const Status log_sealed = node.Stop();
  const svc::PipelineSink& sink = *node.sink();
  if (node.report_log() != nullptr) {
    if (!log_sealed.ok()) {
      std::fprintf(stderr, "warning: %s\n", log_sealed.ToString().c_str());
    }
    std::printf("report log: batches logged=%" PRIu64 " failures=%" PRIu64
                " segments sealed=%" PRIu64 "\n",
                server.batches_logged(), server.log_failures(),
                node.report_log()->segments_sealed());
  }
  if (!round.ok()) {
    std::fprintf(stderr,
                 "error: timed out with %" PRIu64 "/%" PRIu64
                 " reports (accepted=%" PRIu64 " rejected=%" PRIu64 ")\n",
                 server.reports_seen(), config.users, sink.accepted(),
                 sink.rejected());
    return 1;
  }

  // A sealed shard is done: the root holds its final frame and owns
  // estimation. Partial state is never finalized or queried here.
  if (accum != nullptr) {
    std::printf("shard %u/%u sealed: reports accepted=%" PRIu64
                " rejected=%" PRIu64 "; frames served=%" PRIu64
                " pulls rejected=%" PRIu64 " preseed filtered=%" PRIu64
                " checkpoints=%" PRIu64 "\n",
                config.shard_id, config.num_shards, sink.accepted(),
                sink.rejected(), accum->frames_served(),
                accum->pulls_rejected(), server.preseed_filtered(),
                server.checkpoints_written());
    DumpMetrics(dump_metrics);
    return 0;
  }

  // Finalize refuses a round whose reports the sink rejected.
  if (sink.rejected() > 0) return FinishRound(node, dump_metrics);
  std::printf("round complete: batches accepted=%" PRIu64
              " duplicate=%" PRIu64 " backpressured=%" PRIu64
              " malformed=%" PRIu64 " checkpoints=%" PRIu64
              "; reports accepted=%" PRIu64 " rejected=%" PRIu64 "\n",
              server.batches_accepted(), server.batches_duplicate(),
              server.batches_rejected(), server.batches_malformed(),
              server.checkpoints_written(), sink.accepted(),
              sink.rejected());
  return FinishRound(node, dump_metrics);
}

// The epoch-rotated service: each rotation seals the open epoch into a
// segment and appends it to the served window; queries (plain and
// windowed) are answered from the sealed window for the whole run.
int RunEpochs(node::Node& node, bool dump_metrics) {
  const node::NodeConfig& config = node.config();
  const Status started = node.Start();
  const node::Recovery& recovery = node.recovery();
  if (recovery.segments_loaded > 0 || recovery.segments_skipped > 0) {
    std::printf("recovered %zu sealed epoch(s) from %s (%zu skipped), "
                "open epoch %" PRIu64 "\n",
                recovery.segments_loaded, config.epoch_dir.c_str(),
                recovery.segments_skipped, recovery.open_epoch);
  }
  if (recovery.snapshot_adopted) {
    std::printf("recovered open epoch %" PRIu64 ": %" PRIu64
                " reports from %s\n",
                recovery.open_epoch, recovery.snapshot_reports,
                recovery.snapshot_path.c_str());
  } else if (!recovery.snapshot_path.empty()) {
    std::fprintf(stderr,
                 "warning: snapshot %s is stale for open epoch %" PRIu64
                 "; starting it fresh\n",
                 recovery.snapshot_path.c_str(), recovery.open_epoch);
  }
  if (!started.ok()) return Fail(started);
  if (node.query_server() != nullptr) {
    std::printf("serving windowed queries on %s\n",
                node.query_server()->endpoint().c_str());
  }
  std::printf("listening on %s (epoch mode: %" PRIu64 " users/epoch, %"
              PRIu64 " epochs, %s rotation)\n",
              node.ingest()->endpoint().c_str(), config.epoch_users,
              config.epochs, config.epoch_interval_ms > 0 ? "clock" : "count");
  std::fflush(stdout);

  const Status done = node.AwaitRound();
  (void)node.Stop();  // epoch mode keeps no report log
  if (!done.ok()) {
    std::fprintf(stderr,
                 "error: timed out with %" PRIu64 "/%" PRIu64
                 " epochs sealed (open epoch holds %" PRIu64 " reports)\n",
                 node.epochs()->newest_seq(), config.epochs,
                 node.pipeline().reports_ingested());
    return 1;
  }
  int rc = 0;
  if (node.query_server() != nullptr) {
    const bool served = node.AwaitQueries();
    const svc::QueryServer& queries = *node.query_server();
    std::printf("query batches answered=%" PRIu64 " (windowed=%" PRIu64
                ") queries=%" PRIu64 " invalid=%" PRIu64
                " not_ready=%" PRIu64 "\n",
                queries.batches_answered(), queries.windowed_answered(),
                queries.queries_answered(), queries.batches_invalid(),
                queries.batches_not_ready());
    if (!served) {
      std::fprintf(stderr, "error: timed out waiting for query batches\n");
      rc = 1;
    }
  }
  // eps_max is the per-user guarantee under report-once; eps_sum is the
  // worst-case composition if one user reported in every retained epoch.
  const stream::EpochSet::BudgetReport budget = node.epochs()->WindowBudget();
  std::printf("epoch window: epochs=%zu reports=%" PRIu64
              " eps_max=%.17g eps_sum=%.17g seals=%" PRIu64
              " seal_failures=%" PRIu64 " checkpoints=%" PRIu64 "\n",
              budget.epochs, budget.reports, budget.max_epoch_epsilon,
              budget.sum_epsilon, node.rotation()->epochs_sealed(),
              node.rotation()->seal_failures(),
              node.ingest()->checkpoints_written());
  DumpMetrics(dump_metrics);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  node::NodeConfig config;

  const bool show_help = flags.GetBool("help", false);
  config.port = flags.GetUint("port", config.port);
  config.host = flags.GetString("host", config.host);
  config.users = flags.GetUint("users", config.users);
  const auto attributes =
      static_cast<uint32_t>(flags.GetUint("attributes", 6));
  const auto num_domain =
      static_cast<uint32_t>(flags.GetUint("num-domain", 100));
  const auto cat_domain =
      static_cast<uint32_t>(flags.GetUint("cat-domain", 8));
  config.config.epsilon = flags.GetDouble("epsilon", 1.0);
  const std::string strategy = flags.GetString("strategy", "ohg");
  const std::string protocols = flags.GetString("protocols", "");
  config.config.report_budget_bytes = flags.GetUint("report-budget-bytes", 0);
  config.config.seed = flags.GetUint("seed", 1);
  config.workers = static_cast<unsigned>(flags.GetUint("workers", 2));
  config.queue_capacity =
      flags.GetUint("queue-capacity", config.queue_capacity);
  config.timeout_ms = static_cast<int>(flags.GetInt("timeout-ms", 60000));
  config.serve_queries = flags.GetBool("serve-queries", false);
  config.query_port = flags.GetUint("query-port", config.query_port);
  config.query_batches = flags.GetUint("query-batches", config.query_batches);
  config.query_timeout_ms =
      static_cast<int>(flags.GetInt("query-timeout-ms", 60000));
  config.snapshot_dir = flags.GetString("snapshot-dir", "");
  config.snapshot_interval =
      flags.GetUint("snapshot-interval", config.snapshot_interval);
  config.snapshot_interval_ms =
      flags.GetUint("snapshot-interval-ms", config.snapshot_interval_ms);
  config.snapshot_keep = flags.GetUint("snapshot-keep", config.snapshot_keep);
  config.report_log_dir = flags.GetString("report-log-dir", "");
  config.report_log_segment_mb =
      flags.GetUint("report-log-segment-mb", config.report_log_segment_mb);
  config.report_log_keep =
      flags.GetUint("report-log-keep", config.report_log_keep);
  const std::string normalization_name =
      flags.GetString("normalization", "sub");
  const bool dump_metrics = flags.GetBool("metrics", false);
  config.epoch_dir = flags.GetString("epoch-dir", "");
  config.epoch_keep = flags.GetUint("epoch-keep", config.epoch_keep);
  config.epoch_interval_ms =
      flags.GetUint("epoch-interval-ms", config.epoch_interval_ms);
  config.epoch_users = flags.GetUint("epoch-users", config.users);
  config.epochs = flags.GetUint("epochs", config.epochs);
  const bool epoch_inspect = flags.GetBool("epoch-inspect", false);
  config.num_shards = static_cast<uint32_t>(flags.GetUint("num-shards", 1));
  config.shard_id = static_cast<uint32_t>(flags.GetUint("shard-id", 0));
  config.accum_port = flags.GetUint("accum-port", config.accum_port);
  config.root = FlagParser::SplitList(flags.GetString("root", ""));

  if (!flags.CheckAllConsumed()) {
    std::fprintf(stderr, "\n");
    PrintUsage();
    return 2;
  }
  if (show_help) {
    PrintUsage();
    return 0;
  }
  if (strategy != "oug" && strategy != "ohg") {
    std::fprintf(stderr, "error: --strategy must be oug or ohg\n");
    return 2;
  }
  const std::optional<post::Normalization> normalization =
      post::ParseNormalization(normalization_name);
  if (!normalization.has_value()) {
    std::fprintf(stderr, "error: --normalization must be sub, mul, or cut\n");
    return 2;
  }
  const Status valid = config.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.message().c_str());
    return 2;
  }
  if (epoch_inspect && config.epoch_dir.empty()) {
    std::fprintf(stderr, "error: --epoch-inspect requires --epoch-dir\n");
    return 2;
  }
  if (epoch_inspect) return InspectEpochs(config.epoch_dir, config.epoch_keep);

  config.config.strategy =
      strategy == "oug" ? core::Strategy::kOug : core::Strategy::kOhg;
  config.config.normalization = *normalization;
  if (!protocols.empty()) {
    for (const fo::ProtocolTraits& traits : fo::AllProtocolTraits()) {
      config.config.SetProtocolAllowed(traits.protocol, false);
    }
    for (const std::string& name : FlagParser::SplitList(protocols)) {
      const StatusOr<fo::Protocol> p = fo::ProtocolFromName(name);
      if (!p.ok()) {
        std::fprintf(stderr, "error: unknown protocol in --protocols: %s\n",
                     name.c_str());
        return 2;
      }
      config.config.SetProtocolAllowed(*p, true);
    }
  }
  // The schema comes from the same generator felip_client uses; only the
  // attribute metadata matters here — the values stay on the clients.
  config.schema = data::MakeIpumsLike(1, attributes, num_domain, cat_domain,
                                      config.config.seed)
                      .attributes();

  svc::TcpTransport transport;
  node::Node node(std::move(config), &transport,
                  [](const node::EpochSeal& seal) {
                    std::printf("epoch %" PRIu64 " sealed: reports=%" PRIu64
                                " xxh64=%016" PRIx64 "%s\n",
                                seal.seq, seal.reports, seal.digest,
                                seal.written ? "" : " (segment write FAILED)");
                    std::fflush(stdout);
                  });
  switch (node.mode()) {
    case node::Mode::kRoot:
      return RunRoot(node, dump_metrics);
    case node::Mode::kEpoch:
      return RunEpochs(node, dump_metrics);
    default:
      return RunRound(node, dump_metrics);
  }
}
