// Machine-readable perf trajectory artifacts.
//
// Each perf_* bench binary emits one BENCH_<name>.json file describing
// every benchmark it ran: the operation, the workload shape, ns/op and
// bytes/op, the SIMD dispatch level that executed, and the git sha the
// binary was built from. Committed under results/, these files form a
// perf trajectory that tools/bench_diff can compare across revisions
// (see docs/simd.md).
//
// The renderer guarantees STABLE output: fixed key order, fixed number
// formatting, records in insertion order — so artifacts from identical
// runs diff cleanly and the schema round-trips through ParseBenchJson.

#ifndef FELIP_EVAL_BENCH_JSON_H_
#define FELIP_EVAL_BENCH_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace felip::eval {

// Version stamped into every artifact; bump when the schema changes.
inline constexpr int kBenchJsonSchemaVersion = 1;

// One benchmark result row.
struct BenchRecord {
  std::string op;        // benchmark name, e.g. "BM_BatchScan"
  std::string workload;  // shape, e.g. "users=1000000;queries=10000"
  double ns_per_op = 0.0;
  double bytes_per_op = 0.0;      // 0 when the bench does not measure it
  double items_per_second = 0.0;  // 0 when the bench does not measure it
  uint64_t iterations = 0;
};

// One bench binary's full emission.
struct BenchReport {
  std::string name;      // bench binary name, e.g. "perf_query_engine"
  std::string git_sha;   // from $FELIP_GIT_SHA, else "unknown"
  std::string dispatch;  // SIMD dispatch level name: scalar|avx2|neon
  unsigned threads = 0;  // hardware concurrency of the host
  std::vector<BenchRecord> records;
};

// Fills git_sha (from $FELIP_GIT_SHA), dispatch (active SIMD level), and
// threads for this process. `name` becomes the report name.
BenchReport MakeBenchReport(std::string_view name);

// Renders the stable-ordering JSON document (trailing newline included).
std::string RenderBenchJson(const BenchReport& report);

// Parses a rendered document. Returns false (leaving *out untouched) on
// malformed input or a schema version this binary does not understand.
bool ParseBenchJson(std::string_view json, BenchReport* out);

// How ParseBenchJsonDetailed classified its input.
enum class BenchParseResult {
  kOk,
  kMalformed,             // not a document this renderer produced
  kUnknownSchemaVersion,  // well-formed, but a version we don't speak
};

// Like ParseBenchJson but tells a structurally broken document apart
// from a well-formed one stamped with a schema version this binary does
// not understand — bench_diff needs the distinction to tell the operator
// "rebuild the baseline" instead of "this is not an artifact". On
// kUnknownSchemaVersion, *schema_version_seen (when non-null) receives
// the version the document claimed; it is -1 for the other results.
// *out is filled only on kOk.
BenchParseResult ParseBenchJsonDetailed(std::string_view json,
                                        BenchReport* out,
                                        int* schema_version_seen = nullptr);

// "<dir>/BENCH_<name>.json" (no trailing separator handling beyond the
// obvious; pass a directory without one).
std::string BenchJsonPath(std::string_view dir, std::string_view name);

// Renders and commits through storage::WriteFileAtomic. Returns true on
// success.
bool WriteBenchJsonFile(const std::string& path, const BenchReport& report);

// --- Trajectory comparison (tools/bench_diff) ---

// One op present in both reports.
struct BenchDelta {
  std::string op;
  double baseline_ns = 0.0;
  double current_ns = 0.0;
  double ratio = 0.0;       // current / baseline
  bool regression = false;  // ratio > 1 + threshold
};

struct BenchComparison {
  std::vector<BenchDelta> deltas;            // baseline record order
  std::vector<std::string> only_in_baseline;  // ops that disappeared
  std::vector<std::string> only_in_current;   // ops that are new
  int num_regressions = 0;
};

// Matches records by op name and flags ns/op regressions beyond
// `threshold` (0.10 == +10%). Baseline rows with ns_per_op <= 0 never
// flag (nothing meaningful to compare against).
BenchComparison CompareBenchReports(const BenchReport& baseline,
                                    const BenchReport& current,
                                    double threshold);

}  // namespace felip::eval

#endif  // FELIP_EVAL_BENCH_JSON_H_
