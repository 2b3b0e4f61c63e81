// felip_client — simulate a device population reporting to felip_server.
//
// Builds the shared synthetic dataset, replays the pipeline's collection
// trajectory on the client side of the wire (PopulationSimulator), and
// delivers the perturbed report batches over TCP with retries and
// checksum-keyed idempotent resend. Optional fault injection corrupts the
// client edge to exercise the recovery paths; the server's estimates must
// come out identical either way.
//
// Launch with the same population/config flags as felip_server.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>
#include <cmath>

#include "felip/common/flags.h"
#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/dist/client.h"
#include "felip/fo/registry.h"
#include "felip/obs/metrics.h"
#include "felip/query/generator.h"
#include "felip/query/query.h"
#include "felip/stream/streaming.h"
#include "felip/svc/client.h"
#include "felip/svc/fault_injection.h"
#include "felip/svc/query_service.h"
#include "felip/svc/simulator.h"
#include "felip/svc/tcp.h"
#include "felip/wire/wire.h"

namespace {

using namespace felip;

void PrintUsage() {
  std::printf(
      "felip_client — simulated FELIP device population (TCP)\n\n"
      "  --endpoint=<host:port[,host:port...]>\n"
      "                          ingest server, or a comma-separated shard\n"
      "                          list routed by consistent hash (default\n"
      "                          127.0.0.1:7071)\n"
      "  --users=<int>           population size (default 100000)\n"
      "  --attributes=<int>      schema attribute count (default 6)\n"
      "  --num-domain=<int>      numerical domain (default 100)\n"
      "  --cat-domain=<int>      categorical domain (default 8)\n"
      "  --epsilon=<float>       privacy budget (default 1.0)\n"
      "  --strategy=oug|ohg      grid strategy (default ohg)\n"
      "  --protocols=<p,p,...>   AFO candidate protocols (grr, olh, oue,\n"
      "                          pgr, fldp); must match the server's flag\n"
      "                          so devices perturb for the same plan\n"
      "  --report-budget-bytes=<int>  per-report wire budget; must match\n"
      "                          the server's flag (default 0 = none)\n"
      "  --seed=<int>            shared seed (default 1)\n"
      "  --batch-size=<int>      reports per batch (default 1024)\n"
      "  --fault-drop=<p>        frame drop probability (default 0)\n"
      "  --fault-truncate=<p>    frame truncation probability (default 0)\n"
      "  --fault-delay=<p>       frame delay probability (default 0)\n"
      "  --fault-reset=<p>       connection reset probability (default 0)\n"
      "  --fault-drop-response=<p>  ack drop probability (default 0)\n"
      "  --queries=<int>         queries to send after reporting (default "
      "0)\n"
      "  --query-endpoint=<host:port>  query server (required with "
      "--queries)\n"
      "  --query-batch-size=<int>  queries per batch (default 256)\n"
      "  --query-dimension=<int>   predicates per query (default 2)\n"
      "  --query-selectivity=<f>   per-attribute selectivity (default "
      "0.5)\n"
      "  --metrics               dump observability metrics to stderr\n"
      "\nEpoch mode (pair with felip_server --epoch-dir, see "
      "docs/continual.md):\n"
      "  --epochs=<int>          deliver this many epoch populations,\n"
      "                          pacing on the server's seal progress\n"
      "                          (requires --query-endpoint)\n"
      "  --epoch-users=<int>     reports per epoch (default --users)\n"
      "  --query-window=<int>    windowed-query span in epochs, 0 = all "
      "(default 0)\n"
      "  --query-decay=<f>       windowed-query decay in (0, 1] (default "
      "1.0)\n");
}

struct EpochRunParams {
  dist::ShardedIngestClient* client;
  svc::Transport* transport;
  core::FelipConfig base_config;
  uint64_t epochs;
  uint64_t epoch_users;
  uint32_t attributes;
  uint32_t num_domain;
  uint32_t cat_domain;
  uint64_t seed;
  uint64_t batch_size;
  std::string query_endpoint;
  uint64_t queries;
  uint64_t query_batch_size;
  uint32_t query_dimension;
  double query_selectivity;
  uint32_t query_window;
  double query_decay;
  bool dump_metrics;
};

// Delivers `epochs` device populations in sequence, pacing on the
// server's seal progress: epoch e+1's reports are only sent after the
// server reports epoch e+1 sealed, so every report lands in exactly the
// epoch it belongs to (the bit-exactness precondition — a report that
// slipped across a rotation boundary would move mass between epochs).
// Each epoch derives its config through stream::EpochConfig and its
// population from seed + epoch, matching what an in-process
// StreamingCollector ingesting the same datasets would see.
int RunEpochs(const EpochRunParams& p) {
  svc::QueryClientOptions pace_options;
  pace_options.max_attempts = 64;
  pace_options.backoff_cap_ms = 250;
  pace_options.jitter_seed = p.seed + 7;
  svc::QueryClient pacer(p.transport, p.query_endpoint, pace_options);

  std::vector<data::Dataset> epoch_datasets;  // kept for the true-answer MAE
  epoch_datasets.reserve(p.epochs);
  uint64_t total_reports = 0;
  uint64_t total_batches = 0;
  for (uint64_t e = 0; e < p.epochs; ++e) {
    const core::FelipConfig epoch_config =
        stream::EpochConfig(p.base_config, e);
    const data::Dataset epoch_dataset =
        data::MakeIpumsLike(p.epoch_users, p.attributes, p.num_domain,
                            p.cat_domain, p.seed + e);
    core::FelipPipeline epoch_pipeline(epoch_dataset.attributes(),
                                       p.epoch_users, epoch_config);
    std::vector<wire::GridConfigMessage> grid_configs;
    grid_configs.reserve(epoch_pipeline.num_groups());
    for (uint32_t g = 0; g < epoch_pipeline.num_groups(); ++g) {
      grid_configs.push_back(wire::MakeGridConfig(
          epoch_pipeline, epoch_dataset.attributes(), g,
          epoch_pipeline.per_grid_epsilon(), epoch_config.protocol_options()));
    }
    svc::SimulatorOptions simulator_options;
    simulator_options.seed = epoch_config.seed;
    simulator_options.partitioning = epoch_config.partitioning;
    simulator_options.batch_size = static_cast<size_t>(p.batch_size);
    const svc::PopulationSimulator simulator(grid_configs,
                                             simulator_options);
    uint64_t batches = 0;
    const std::optional<uint64_t> sent = simulator.Run(
        epoch_dataset, [&](const std::vector<wire::ReportMessage>& batch) {
          const svc::SendOutcome outcome = p.client->SendBatch(batch);
          ++batches;
          return outcome.ok();
        });
    if (!sent.has_value()) {
      std::fprintf(stderr,
                   "error: epoch %llu delivery failed after retries\n",
                   static_cast<unsigned long long>(e + 1));
      return 1;
    }
    total_reports += *sent;
    total_batches += batches;

    // Pace: poll an empty windowed query until the seal lands. Before the
    // first seal the server answers the retryable kFailedPrecondition;
    // every response (either way) carries its seal progress.
    svc::QueryOutcome probe;
    while (true) {
      probe = pacer.AnswerWindowed({}, /*window=*/1, /*decay=*/1.0);
      if (probe.sealed_epochs >= e + 1) break;
      if (!probe.ok() &&
          probe.status.code() != StatusCode::kFailedPrecondition) {
        std::fprintf(stderr, "error: pacing poll failed: %s\n",
                     probe.status.ToString().c_str());
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::printf("epoch %llu delivered: reports=%llu batches=%llu "
                "sealed_epochs=%llu\n",
                static_cast<unsigned long long>(e + 1),
                static_cast<unsigned long long>(*sent),
                static_cast<unsigned long long>(batches),
                static_cast<unsigned long long>(probe.sealed_epochs));
    std::fflush(stdout);
    epoch_datasets.push_back(std::move(epoch_dataset));
  }
  std::printf("sent %llu reports across %llu epochs in %llu batches "
              "(retries=%llu reconnects=%llu)\n",
              static_cast<unsigned long long>(total_reports),
              static_cast<unsigned long long>(p.epochs),
              static_cast<unsigned long long>(total_batches),
              static_cast<unsigned long long>(p.client->retries()),
              static_cast<unsigned long long>(p.client->reconnects()));

  if (p.queries > 0) {
    // Windowed workload over the sealed window, with MAE against the
    // decay-mixed per-epoch TRUE answers — the same fold the server
    // applies to its per-epoch estimates (assumes the server retains at
    // least the queried window: --epoch-keep >= min(window, epochs)).
    svc::QueryClientOptions query_options;
    query_options.max_attempts = 64;
    query_options.backoff_cap_ms = 250;
    query_options.jitter_seed = p.seed + 7;
    svc::QueryClient query_client(p.transport, p.query_endpoint,
                                  query_options);

    query::GeneratorOptions generator_options;
    generator_options.dimension = p.query_dimension;
    generator_options.selectivity = p.query_selectivity;
    Rng query_rng(p.seed + 13);
    const std::vector<query::Query> workload = query::GenerateQueries(
        epoch_datasets.back(), static_cast<uint32_t>(p.queries),
        generator_options, query_rng);

    const size_t window_epochs =
        p.query_window == 0
            ? epoch_datasets.size()
            : std::min<size_t>(p.query_window, epoch_datasets.size());
    uint64_t answered = 0;
    uint64_t query_batches = 0;
    double mae = 0.0;
    const size_t stride = p.query_batch_size > 0
                              ? static_cast<size_t>(p.query_batch_size)
                              : 256;
    for (size_t begin = 0; begin < workload.size(); begin += stride) {
      const size_t end = std::min(begin + stride, workload.size());
      const std::vector<query::Query> batch(workload.begin() + begin,
                                            workload.begin() + end);
      const svc::QueryOutcome outcome = query_client.AnswerWindowed(
          batch, p.query_window, p.query_decay);
      if (!outcome.ok()) {
        std::fprintf(stderr,
                     "error: windowed batch at %zu failed after %d "
                     "attempts (%s, bad_query=%u)\n",
                     begin, outcome.attempts,
                     outcome.status.ToString().c_str(), outcome.bad_query);
        return 1;
      }
      std::vector<double> history(window_epochs);
      for (size_t q = 0; q < batch.size(); ++q) {
        for (size_t w = 0; w < window_epochs; ++w) {
          const data::Dataset& dataset =
              epoch_datasets[epoch_datasets.size() - window_epochs + w];
          history[w] = query::TrueAnswer(dataset, batch[q]);
        }
        mae += std::fabs(outcome.answers[q] -
                         stream::DecayMix(history, p.query_decay));
      }
      answered += end - begin;
      ++query_batches;
    }
    mae /= static_cast<double>(answered);
    std::printf("windowed queries answered=%llu in %llu batches "
                "(window=%u decay=%.3f retries=%llu) mae=%.5f\n",
                static_cast<unsigned long long>(answered),
                static_cast<unsigned long long>(query_batches),
                p.query_window, p.query_decay,
                static_cast<unsigned long long>(query_client.retries()),
                mae);
  }

  if (p.dump_metrics) {
    const std::string text = obs::Registry::Default().RenderText();
    std::fwrite(text.data(), 1, text.size(), stderr);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);

  const bool show_help = flags.GetBool("help", false);
  const std::string endpoint =
      flags.GetString("endpoint", "127.0.0.1:7071");
  const uint64_t users = flags.GetUint("users", 100000);
  const auto attributes =
      static_cast<uint32_t>(flags.GetUint("attributes", 6));
  const auto num_domain =
      static_cast<uint32_t>(flags.GetUint("num-domain", 100));
  const auto cat_domain =
      static_cast<uint32_t>(flags.GetUint("cat-domain", 8));
  const double epsilon = flags.GetDouble("epsilon", 1.0);
  const std::string strategy = flags.GetString("strategy", "ohg");
  const std::string protocols = flags.GetString("protocols", "");
  const uint64_t report_budget_bytes =
      flags.GetUint("report-budget-bytes", 0);
  const uint64_t seed = flags.GetUint("seed", 1);
  const uint64_t batch_size = flags.GetUint("batch-size", 1024);
  svc::FaultOptions faults;
  faults.drop_prob = flags.GetDouble("fault-drop", 0.0);
  faults.truncate_prob = flags.GetDouble("fault-truncate", 0.0);
  faults.delay_prob = flags.GetDouble("fault-delay", 0.0);
  faults.reset_prob = flags.GetDouble("fault-reset", 0.0);
  faults.drop_response_prob = flags.GetDouble("fault-drop-response", 0.0);
  faults.seed = seed + 99;
  const uint64_t queries = flags.GetUint("queries", 0);
  const std::string query_endpoint = flags.GetString("query-endpoint", "");
  const uint64_t query_batch_size = flags.GetUint("query-batch-size", 256);
  const auto query_dimension =
      static_cast<uint32_t>(flags.GetUint("query-dimension", 2));
  const double query_selectivity =
      flags.GetDouble("query-selectivity", 0.5);
  const bool dump_metrics = flags.GetBool("metrics", false);
  const uint64_t epochs = flags.GetUint("epochs", 0);
  const uint64_t epoch_users = flags.GetUint("epoch-users", users);
  const auto query_window =
      static_cast<uint32_t>(flags.GetUint("query-window", 0));
  const double query_decay = flags.GetDouble("query-decay", 1.0);

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
  if (queries > 0 && query_endpoint.empty()) {
    std::fprintf(stderr,
                 "error: --queries requires --query-endpoint=<host:port>\n");
    return 2;
  }
  if (epochs > 0 && query_endpoint.empty()) {
    std::fprintf(stderr,
                 "error: --epochs paces on seal progress and requires "
                 "--query-endpoint=<host:port>\n");
    return 2;
  }
  if (!(query_decay > 0.0 && query_decay <= 1.0)) {
    std::fprintf(stderr, "error: --query-decay must be in (0, 1]\n");
    return 2;
  }

  core::FelipConfig config;
  config.strategy =
      strategy == "oug" ? core::Strategy::kOug : core::Strategy::kOhg;
  config.epsilon = epsilon;
  config.seed = seed;
  config.report_budget_bytes = report_budget_bytes;
  // Devices plan the same grids the server planned; the protocol flags
  // must mirror felip_server's or the reports carry the wrong shape.
  if (!protocols.empty()) {
    for (const fo::ProtocolTraits& traits : fo::AllProtocolTraits()) {
      config.SetProtocolAllowed(traits.protocol, false);
    }
    for (const std::string& name : FlagParser::SplitList(protocols)) {
      const StatusOr<fo::Protocol> p = fo::ProtocolFromName(name);
      if (!p.ok()) {
        std::fprintf(stderr, "error: unknown protocol in --protocols: %s\n",
                     name.c_str());
        return 2;
      }
      config.SetProtocolAllowed(*p, true);
    }
  }

  const std::vector<std::string> endpoints = FlagParser::SplitList(endpoint);
  if (endpoints.empty()) {
    std::fprintf(stderr, "error: --endpoint must name at least one server\n");
    return 2;
  }

  svc::TcpTransport tcp;
  svc::FaultInjectingTransport transport(&tcp, faults);
  const bool faulty = faults.drop_prob > 0 || faults.truncate_prob > 0 ||
                      faults.delay_prob > 0 || faults.reset_prob > 0 ||
                      faults.drop_response_prob > 0;
  // One endpoint is just a one-shard ring, so the sharded client covers
  // both shapes; every batch routes by the consistent hash of its
  // checksum-trailer key, the same hash the shard servers preseed by.
  dist::ShardedIngestClient client(
      faulty ? static_cast<svc::Transport*>(&transport) : &tcp, endpoints);
  svc::Transport* const wire_transport =
      faulty ? static_cast<svc::Transport*>(&transport) : &tcp;

  if (epochs > 0) {
    return RunEpochs(EpochRunParams{
        &client, wire_transport, config, epochs, epoch_users, attributes,
        num_domain, cat_domain, seed, batch_size, query_endpoint, queries,
        query_batch_size, query_dimension, query_selectivity, query_window,
        query_decay, dump_metrics});
  }

  const data::Dataset dataset =
      data::MakeIpumsLike(users, attributes, num_domain, cat_domain, seed);

  // Plan the same grids the server planned to derive the public per-grid
  // configs the devices run from.
  core::FelipPipeline pipeline(dataset.attributes(), users, config);
  std::vector<wire::GridConfigMessage> grid_configs;
  grid_configs.reserve(pipeline.num_groups());
  for (uint32_t g = 0; g < pipeline.num_groups(); ++g) {
    grid_configs.push_back(wire::MakeGridConfig(
        pipeline, dataset.attributes(), g, pipeline.per_grid_epsilon(),
        config.protocol_options()));
  }

  svc::SimulatorOptions simulator_options;
  simulator_options.seed = config.seed;
  simulator_options.partitioning = config.partitioning;
  simulator_options.batch_size = static_cast<size_t>(batch_size);
  const svc::PopulationSimulator simulator(grid_configs, simulator_options);

  uint64_t batches = 0;
  uint64_t duplicates = 0;
  const std::optional<uint64_t> sent = simulator.Run(
      dataset, [&](const std::vector<wire::ReportMessage>& batch) {
        const svc::SendOutcome outcome = client.SendBatch(batch);
        ++batches;
        if (outcome.duplicate) ++duplicates;
        return outcome.ok();
      });
  if (!sent.has_value()) {
    std::fprintf(stderr, "error: batch delivery failed after retries\n");
    return 1;
  }

  std::printf(
      "sent %llu reports in %llu batches (retries=%llu reconnects=%llu "
      "duplicate-acks=%llu faults=%llu)\n",
      static_cast<unsigned long long>(*sent),
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(client.retries()),
      static_cast<unsigned long long>(client.reconnects()),
      static_cast<unsigned long long>(duplicates),
      static_cast<unsigned long long>(transport.faults_injected()));
  if (endpoints.size() > 1) {
    std::printf("routed:");
    for (size_t shard = 0; shard < endpoints.size(); ++shard) {
      std::printf(" shard%zu=%llu", shard,
                  static_cast<unsigned long long>(
                      client.batches_routed(static_cast<uint32_t>(shard))));
    }
    std::printf("\n");
  }

  if (queries > 0) {
    // The server binds its query endpoint only after finalizing, so the
    // retry budget must ride over the finalize window (connection refused
    // until the port opens) on top of any injected faults.
    svc::QueryClientOptions query_options;
    query_options.max_attempts = 64;
    query_options.backoff_cap_ms = 250;
    query_options.jitter_seed = seed + 7;
    svc::QueryClient query_client(
        faulty ? static_cast<svc::Transport*>(&transport) : &tcp,
        query_endpoint, query_options);

    query::GeneratorOptions generator_options;
    generator_options.dimension = query_dimension;
    generator_options.selectivity = query_selectivity;
    Rng query_rng(seed + 13);
    const std::vector<query::Query> workload = query::GenerateQueries(
        dataset, static_cast<uint32_t>(queries), generator_options,
        query_rng);

    uint64_t answered = 0;
    uint64_t query_batches = 0;
    double mae = 0.0;
    const size_t stride =
        query_batch_size > 0 ? static_cast<size_t>(query_batch_size) : 256;
    for (size_t begin = 0; begin < workload.size(); begin += stride) {
      const size_t end = std::min(begin + stride, workload.size());
      const std::vector<query::Query> batch(workload.begin() + begin,
                                            workload.begin() + end);
      const svc::QueryOutcome outcome = query_client.AnswerQueries(batch);
      if (!outcome.ok()) {
        std::fprintf(stderr,
                     "error: query batch at %zu failed after %d attempts "
                     "(%s, bad_query=%u)\n",
                     begin, outcome.attempts,
                     outcome.status.ToString().c_str(), outcome.bad_query);
        return 1;
      }
      for (size_t q = 0; q < batch.size(); ++q) {
        mae += std::fabs(outcome.answers[q] -
                         query::TrueAnswer(dataset, batch[q]));
      }
      answered += end - begin;
      ++query_batches;
    }
    mae /= static_cast<double>(answered);
    std::printf(
        "queries answered=%llu in %llu batches (retries=%llu "
        "reconnects=%llu) mae=%.5f\n",
        static_cast<unsigned long long>(answered),
        static_cast<unsigned long long>(query_batches),
        static_cast<unsigned long long>(query_client.retries()),
        static_cast<unsigned long long>(query_client.reconnects()), mae);
  }

  if (dump_metrics) {
    const std::string text = obs::Registry::Default().RenderText();
    std::fwrite(text.data(), 1, text.size(), stderr);
  }
  return 0;
}
