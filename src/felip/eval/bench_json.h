// Machine-readable perf artifacts for the kernel benches.
//
// Each perf_* bench binary emits one BENCH_<name>.json file describing
// every benchmark it ran: the operation, the workload shape, the median
// real-time ns/op over its repetitions with a noise estimate (the MAD),
// the SIMD dispatch level that executed, and the git sha the binary was
// built from. They are committed under results/ (see docs/simd.md).
//
// The renderer guarantees STABLE output: fixed key order, fixed number
// formatting, records in insertion order — so artifacts from identical
// runs diff cleanly.

#ifndef FELIP_EVAL_BENCH_JSON_H_
#define FELIP_EVAL_BENCH_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace felip::eval {

// Version stamped into every artifact; bump when the schema changes.
// Version 2: one record per op with median + MAD; no CPU-time rates.
inline constexpr int kBenchJsonSchemaVersion = 2;

// One benchmark op, summarized over its repetitions.
struct BenchRecord {
  std::string op;        // benchmark name, e.g. "BM_BatchScan"
  std::string workload;  // shape, e.g. "users=1000000;queries=10000"
  double ns_per_op = 0.0;      // median real time over the repetitions
  double ns_per_op_mad = 0.0;  // median absolute deviation; 0 for one rep
  uint64_t repetitions = 0;
  uint64_t iterations = 0;  // summed over the repetitions
};

// One bench binary's full emission.
struct BenchReport {
  std::string name;      // bench binary name, e.g. "perf_query_engine"
  std::string git_sha;   // from $FELIP_GIT_SHA, else "unknown"
  std::string dispatch;  // SIMD dispatch level name: scalar|avx2|neon
  unsigned threads = 0;  // CPUs in the affinity mask (AvailableCpus)
  std::vector<BenchRecord> records;
};

// Median and MAD (median absolute deviation from the median, unscaled)
// of `values`; an even count takes the mean of the middle pair. Empty
// input gives {0, 0}.
struct MedianMad {
  double median = 0.0;
  double mad = 0.0;
};
MedianMad ComputeMedianMad(std::vector<double> values);

// Fills git_sha (from $FELIP_GIT_SHA), dispatch (active SIMD level), and
// threads for this process. `name` becomes the report name.
BenchReport MakeBenchReport(std::string_view name);

// Renders the stable-ordering JSON document (trailing newline included).
std::string RenderBenchJson(const BenchReport& report);

// "<dir>/BENCH_<name>.json" (no trailing separator handling beyond the
// obvious; pass a directory without one).
std::string BenchJsonPath(std::string_view dir, std::string_view name);

// Renders and commits through storage::WriteFileAtomic. Returns true on
// success.
bool WriteBenchJsonFile(const std::string& path, const BenchReport& report);

}  // namespace felip::eval

#endif  // FELIP_EVAL_BENCH_JSON_H_
