// felip_replay — offline estimation from an append-only report log.
//
// Reads every segment felip_server wrote under --log-dir (repeat
// --report-log-dir to union several shards' logs into one estimation
// round), reconstructs the pipeline the logs' shared plan describes,
// re-ingests the logged batches through the exact server gates (trailer
// checksum, idempotency window, batch decode, per-report validation),
// finalizes, and prints the same `attr0 marginal head:` +
// `grid frequencies xxh64=` lines felip_server prints after a live
// round — so replay-vs-live is one diff away, and a sharded round
// replays to the same digest the root aggregator printed.
//
// Post-processing is swappable per run without touching the corpus:
//   felip_replay --log-dir=log                      # as logged
//   felip_replay --log-dir=log --normalization=mul  # Norm-Mul instead
//   felip_replay --log-dir=log --consistency-rounds=0 --lambda-quadrant-fit
// With --expect-digest the tool exits non-zero unless the replayed grid
// digest matches — the CI soaks use this to pin replay == live bitwise.
//
// --probe-queries additionally answers a seeded random workload and
// digests the answers, so the query surface is comparable across runs
// too.

#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "felip/common/flags.h"
#include "felip/common/hash.h"
#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/dataset.h"
#include "felip/fo/registry.h"
#include "felip/obs/metrics.h"
#include "felip/post/norm_sub.h"
#include "felip/query/generator.h"
#include "felip/replaylog/replay.h"

namespace {

using namespace felip;

void PrintUsage() {
  std::printf(
      "felip_replay — re-run FELIP estimation from a report log\n\n"
      "  --log-dir=<path>        report log directory\n"
      "  --report-log-dir=<path> report log directory; repeatable, all\n"
      "                          named logs replay into one round with a\n"
      "                          shared dedup window (at least one of\n"
      "                          --log-dir/--report-log-dir is required)\n"
      "  --normalization=sub|mul|cut  override the logged negativity "
      "removal\n"
      "  --consistency-rounds=<int>   override consistency iteration "
      "count\n"
      "  --lambda-threshold=<float>   override Algorithm 4 convergence\n"
      "  --lambda-quadrant-fit[=0|1]  override the four-quadrant λ fit\n"
      "  --expect-digest=<hex>   exit 1 unless the grid digest matches\n"
      "  --expect-protocols=<p,p,...>  exit 1 unless the replayed plan's\n"
      "                          protocol set is exactly this subset of\n"
      "                          grr,olh,oue,pgr,fldp\n"
      "  --probe-queries=<int>   also answer N seeded queries (default "
      "0)\n"
      "  --probe-seed=<int>      probe workload seed (default 42)\n"
      "  --metrics               dump observability metrics to stderr\n");
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);

  const bool show_help = flags.GetBool("help", false);
  const std::string log_dir = flags.GetString("log-dir", "");
  std::vector<std::string> log_dirs = flags.GetStringList("report-log-dir");
  if (!log_dir.empty()) log_dirs.insert(log_dirs.begin(), log_dir);
  const std::string normalization_name =
      flags.GetString("normalization", "");
  const int64_t consistency_rounds =
      flags.GetInt("consistency-rounds", -1);
  const double lambda_threshold = flags.GetDouble("lambda-threshold", -1.0);
  const int64_t lambda_quadrant_fit =
      flags.GetInt("lambda-quadrant-fit", -1);
  const std::string expect_digest = flags.GetString("expect-digest", "");
  const std::string expect_protocols =
      flags.GetString("expect-protocols", "");
  const uint64_t probe_queries = flags.GetUint("probe-queries", 0);
  const uint64_t probe_seed = flags.GetUint("probe-seed", 42);
  const bool dump_metrics = flags.GetBool("metrics", false);

  if (!flags.CheckAllConsumed()) {
    std::fprintf(stderr, "\n");
    PrintUsage();
    return 2;
  }
  if (show_help) {
    PrintUsage();
    return 0;
  }
  if (log_dirs.empty()) {
    std::fprintf(stderr,
                 "error: --log-dir or --report-log-dir is required\n");
    return 2;
  }

  replaylog::ReplayOverrides overrides;
  if (!normalization_name.empty()) {
    overrides.normalization = post::ParseNormalization(normalization_name);
    if (!overrides.normalization.has_value()) {
      std::fprintf(stderr,
                   "error: --normalization must be sub, mul, or cut\n");
      return 2;
    }
  }
  if (consistency_rounds >= 0) {
    overrides.consistency_rounds = static_cast<int>(consistency_rounds);
  }
  if (lambda_threshold >= 0.0) {
    overrides.lambda_threshold = lambda_threshold;
  }
  if (lambda_quadrant_fit >= 0) {
    overrides.lambda_quadrant_fit = lambda_quadrant_fit != 0;
  }

  StatusOr<replaylog::ReplayResult> result =
      replaylog::ReplayLogs(log_dirs, overrides);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const replaylog::ReplayStats& stats = result->stats;
  std::printf(
      "replayed %" PRIu64 " batches from %" PRIu64
      " segments (damaged=%" PRIu64 " duplicate=%" PRIu64
      " undecodable=%" PRIu64 "); reports accepted=%" PRIu64
      " rejected=%" PRIu64 "\n",
      stats.batches_replayed, stats.segments_read, stats.segments_damaged,
      stats.batches_duplicate, stats.batches_undecodable,
      stats.reports_accepted, stats.reports_rejected);

  core::FelipPipeline& pipeline = result->pipeline;
  pipeline.Finalize();

  // Byte-for-byte the felip_server epilogue, so live-vs-replay output
  // diffs clean.
  core::PrintFingerprint(pipeline, stdout);
  const uint64_t digest = core::GridFrequencyDigest(pipeline);

  if (probe_queries > 0) {
    const data::Dataset schema_only(pipeline.schema());
    Rng rng(probe_seed);
    const std::vector<query::Query> workload = query::GenerateQueries(
        schema_only, static_cast<uint32_t>(probe_queries), {}, rng);
    const std::vector<double> answers = pipeline.AnswerQueries(workload);
    const uint64_t answer_digest =
        XxHash64Bytes(answers.data(), answers.size() * sizeof(double), 0);
    std::printf("probe answers xxh64=%016llx\n",
                static_cast<unsigned long long>(answer_digest));
  }

  if (dump_metrics) {
    const std::string text = obs::Registry::Default().RenderText();
    std::fwrite(text.data(), 1, text.size(), stderr);
  }

  if (!expect_protocols.empty()) {
    std::array<bool, fo::kNumProtocols> expected{};
    size_t start = 0;
    while (start <= expect_protocols.size()) {
      const size_t comma = expect_protocols.find(',', start);
      const size_t end =
          comma == std::string::npos ? expect_protocols.size() : comma;
      if (end > start) {
        const StatusOr<fo::Protocol> p = fo::ProtocolFromName(
            std::string_view(expect_protocols).substr(start, end - start));
        if (!p.ok()) {
          std::fprintf(stderr,
                       "error: unknown protocol in --expect-protocols\n");
          return 2;
        }
        expected[static_cast<size_t>(*p)] = true;
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    std::array<bool, fo::kNumProtocols> planned{};
    for (const core::GridAssignment& a : pipeline.assignments()) {
      planned[static_cast<size_t>(a.plan.protocol)] = true;
    }
    if (planned != expected) {
      std::fprintf(stderr, "error: planned protocols {");
      for (const fo::ProtocolTraits& t : fo::AllProtocolTraits()) {
        if (planned[static_cast<size_t>(t.protocol)]) {
          std::fprintf(stderr, " %.*s", static_cast<int>(t.name.size()),
                       t.name.data());
        }
      }
      std::fprintf(stderr, " } do not match --expect-protocols\n");
      return 1;
    }
    std::printf("planned protocols match expectation\n");
  }

  if (!expect_digest.empty()) {
    const uint64_t expected =
        std::strtoull(expect_digest.c_str(), nullptr, 16);
    if (expected != digest) {
      std::fprintf(stderr,
                   "error: digest mismatch: expected %016llx got %016llx\n",
                   static_cast<unsigned long long>(expected),
                   static_cast<unsigned long long>(digest));
      return 1;
    }
    std::printf("digest matches expectation\n");
  }
  return 0;
}
