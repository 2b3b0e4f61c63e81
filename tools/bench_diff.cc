// Compares two BENCH_*.json perf artifacts and flags ns/op regressions.
//
//   bench_diff [--threshold=0.10] [--report-only] BASELINE.json CURRENT.json
//
// Exit status: 0 when no regression exceeds the threshold (or with
// --report-only always, unless a file is unreadable/malformed — that is
// always an error), 1 when at least one op regressed. --report-only is
// what CI's bench-smoke uses: ns/op is not comparable across hosts, so
// the job prints the table and verifies the artifacts parse, without
// gating merges on another machine's clock.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "felip/eval/bench_json.h"
#include "felip/storage/storage.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: bench_diff [--threshold=FRACTION] [--report-only] "
               "BASELINE.json CURRENT.json\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 0.10;
  bool report_only = false;
  const char* paths[2] = {nullptr, nullptr};
  int num_paths = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threshold=", 12) == 0) {
      char* end = nullptr;
      threshold = std::strtod(arg + 12, &end);
      if (end == arg + 12 || threshold < 0.0) return Usage();
    } else if (std::strcmp(arg, "--report-only") == 0) {
      report_only = true;
    } else if (arg[0] == '-') {
      return Usage();
    } else if (num_paths < 2) {
      paths[num_paths++] = arg;
    } else {
      return Usage();
    }
  }
  if (num_paths != 2) return Usage();

  felip::eval::BenchReport baseline, current;
  for (int i = 0; i < 2; ++i) {
    const char* role = i == 0 ? "baseline" : "current";
    const felip::StatusOr<std::vector<uint8_t>> bytes =
        felip::storage::ReadFile(paths[i]);
    if (!bytes.ok()) {
      // Most often the committed baseline for a brand-new bench simply
      // hasn't landed yet — say so instead of a bare read error.
      std::fprintf(stderr,
                   "bench_diff: cannot read %s file %s (missing artifact? "
                   "run the bench with FELIP_BENCH_JSON_DIR set and commit "
                   "the BENCH_*.json)\n",
                   role, paths[i]);
      return 2;
    }
    const std::string text(bytes->begin(), bytes->end());
    felip::eval::BenchReport* out = i == 0 ? &baseline : &current;
    int version_seen = -1;
    switch (felip::eval::ParseBenchJsonDetailed(text, out, &version_seen)) {
      case felip::eval::BenchParseResult::kOk:
        break;
      case felip::eval::BenchParseResult::kUnknownSchemaVersion:
        std::fprintf(stderr,
                     "bench_diff: %s file %s has schema_version %d, but "
                     "this binary only understands %d (rebuild bench_diff "
                     "and the artifact from the same revision)\n",
                     role, paths[i], version_seen,
                     felip::eval::kBenchJsonSchemaVersion);
        return 2;
      case felip::eval::BenchParseResult::kMalformed:
        std::fprintf(stderr,
                     "bench_diff: %s file %s is not a BENCH_*.json "
                     "artifact\n",
                     role, paths[i]);
        return 2;
    }
  }

  std::printf("baseline: %s (sha %s, dispatch %s)\n", baseline.name.c_str(),
              baseline.git_sha.c_str(), baseline.dispatch.c_str());
  std::printf("current:  %s (sha %s, dispatch %s)\n", current.name.c_str(),
              current.git_sha.c_str(), current.dispatch.c_str());
  if (baseline.dispatch != current.dispatch) {
    std::printf("note: dispatch levels differ; deltas mix SIMD levels\n");
  }

  const felip::eval::BenchComparison cmp =
      felip::eval::CompareBenchReports(baseline, current, threshold);
  std::printf("%-44s %14s %14s %8s\n", "op", "baseline ns/op",
              "current ns/op", "delta");
  for (const felip::eval::BenchDelta& d : cmp.deltas) {
    const double pct = d.baseline_ns > 0.0 ? (d.ratio - 1.0) * 100.0 : 0.0;
    std::printf("%-44s %14.1f %14.1f %+7.1f%%%s\n", d.op.c_str(),
                d.baseline_ns, d.current_ns, pct,
                d.regression ? "  REGRESSION" : "");
  }
  for (const std::string& op : cmp.only_in_baseline) {
    std::printf("%-44s only in baseline\n", op.c_str());
  }
  for (const std::string& op : cmp.only_in_current) {
    std::printf("%-44s only in current\n", op.c_str());
  }

  if (cmp.num_regressions > 0) {
    std::printf("%d op(s) regressed more than %.0f%%%s\n",
                cmp.num_regressions, threshold * 100.0,
                report_only ? " (report-only; not failing)" : "");
    return report_only ? 0 : 1;
  }
  std::printf("no regressions beyond %.0f%%\n", threshold * 100.0);
  return 0;
}
