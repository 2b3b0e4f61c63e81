// BENCH_*.json emission for the perf_* google-benchmark binaries.
//
// BenchJsonReporter wraps ConsoleReporter: the human-readable table still
// prints, and the repetition rows of every op are also collected. On
// Finalize() each op becomes one felip::eval::BenchRecord — the median
// real-time ns/op over its repetitions and their MAD — written to
// BENCH_<name>.json. Repetitions come from google-benchmark's own
// --benchmark_repetitions (one repetition gives MAD 0). The destination
// directory comes from $FELIP_BENCH_JSON_DIR (default: the working
// directory); $FELIP_GIT_SHA stamps the sha field.
//
// Usage, replacing benchmark::RunSpecifiedBenchmarks():
//
//   felip::bench::BenchJsonReporter reporter(
//       "perf_query_engine", "users=1000000;queries=10000");
//   benchmark::RunSpecifiedBenchmarks(&reporter);

#ifndef FELIP_BENCH_BENCH_JSON_REPORTER_H_
#define FELIP_BENCH_BENCH_JSON_REPORTER_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "felip/eval/bench_json.h"

namespace felip::bench {

class BenchJsonReporter : public benchmark::ConsoleReporter {
 public:
  BenchJsonReporter(std::string_view bench_name, std::string_view workload)
      : report_(eval::MakeBenchReport(bench_name)), workload_(workload) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      // Aggregate rows (mean/median/stddev) are recomputed from the
      // repetition rows below, so only those are kept.
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const std::string op = run.benchmark_name();
      auto it = std::find_if(ops_.begin(), ops_.end(),
                             [&op](const OpRows& o) { return o.op == op; });
      if (it == ops_.end()) it = ops_.insert(ops_.end(), OpRows{op, {}, 0});
      it->ns_per_op.push_back(run.GetAdjustedRealTime() *
                              TimeUnitToNs(run.time_unit));
      it->iterations += static_cast<uint64_t>(run.iterations);
    }
  }

  void Finalize() override {
    ConsoleReporter::Finalize();
    for (const OpRows& o : ops_) {
      const eval::MedianMad stats = eval::ComputeMedianMad(o.ns_per_op);
      report_.records.push_back({.op = o.op,
                                 .workload = workload_,
                                 .ns_per_op = stats.median,
                                 .ns_per_op_mad = stats.mad,
                                 .repetitions = o.ns_per_op.size(),
                                 .iterations = o.iterations});
    }
    const char* dir = std::getenv("FELIP_BENCH_JSON_DIR");
    const std::string path = eval::BenchJsonPath(
        (dir != nullptr && dir[0] != '\0') ? dir : ".", report_.name);
    if (!eval::WriteBenchJsonFile(path, report_)) {
      std::fprintf(stderr, "bench_json: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(stderr, "bench_json: wrote %s (%zu records, dispatch=%s)\n",
                 path.c_str(), report_.records.size(),
                 report_.dispatch.c_str());
  }

 private:
  static double TimeUnitToNs(benchmark::TimeUnit unit) {
    switch (unit) {
      case benchmark::kNanosecond:
        return 1.0;
      case benchmark::kMicrosecond:
        return 1e3;
      case benchmark::kMillisecond:
        return 1e6;
      case benchmark::kSecond:
        return 1e9;
    }
    return 1.0;
  }

  // One op's repetition rows, in first-seen order.
  struct OpRows {
    std::string op;
    std::vector<double> ns_per_op;
    uint64_t iterations;
  };

  eval::BenchReport report_;
  std::string workload_;
  std::vector<OpRows> ops_;
};

}  // namespace felip::bench

#endif  // FELIP_BENCH_BENCH_JSON_REPORTER_H_
