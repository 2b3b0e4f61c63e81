#include "felip/eval/bench_json.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "felip/common/parallel.h"
#include "felip/simd/dispatch.h"
#include "felip/storage/storage.h"

namespace felip::eval {

namespace {

// Minimal JSON string escaping for the fields we emit (names and
// workload shapes; no exotic content expected, but stay well-formed).
void AppendEscaped(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// Fixed number format: %.17g round-trips every double bit-exactly.
void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

void AppendUint(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

double Median(std::vector<double>* values) {
  std::sort(values->begin(), values->end());
  const size_t n = values->size();
  return n % 2 == 1 ? (*values)[n / 2]
                    : ((*values)[n / 2 - 1] + (*values)[n / 2]) / 2.0;
}

}  // namespace

MedianMad ComputeMedianMad(std::vector<double> values) {
  if (values.empty()) return {};
  MedianMad out;
  out.median = Median(&values);
  for (double& v : values) v = std::abs(v - out.median);
  out.mad = Median(&values);
  return out;
}

BenchReport MakeBenchReport(std::string_view name) {
  BenchReport report;
  report.name = std::string(name);
  const char* sha = std::getenv("FELIP_GIT_SHA");
  report.git_sha = (sha != nullptr && sha[0] != '\0') ? sha : "unknown";
  report.dispatch = simd::LevelName(simd::ActiveLevel());
  report.threads = AvailableCpus();
  return report;
}

std::string RenderBenchJson(const BenchReport& report) {
  std::string out;
  out.reserve(256 + report.records.size() * 160);
  out.append("{\n");
  out.append("  \"schema_version\": ");
  out.append(std::to_string(kBenchJsonSchemaVersion));
  out.append(",\n  \"name\": ");
  AppendEscaped(&out, report.name);
  out.append(",\n  \"git_sha\": ");
  AppendEscaped(&out, report.git_sha);
  out.append(",\n  \"dispatch\": ");
  AppendEscaped(&out, report.dispatch);
  out.append(",\n  \"threads\": ");
  out.append(std::to_string(report.threads));
  out.append(",\n  \"records\": [");
  for (size_t i = 0; i < report.records.size(); ++i) {
    const BenchRecord& r = report.records[i];
    out.append(i == 0 ? "\n" : ",\n");
    out.append("    {\"op\": ");
    AppendEscaped(&out, r.op);
    out.append(", \"workload\": ");
    AppendEscaped(&out, r.workload);
    out.append(", \"ns_per_op\": ");
    AppendDouble(&out, r.ns_per_op);
    out.append(", \"ns_per_op_mad\": ");
    AppendDouble(&out, r.ns_per_op_mad);
    out.append(", \"repetitions\": ");
    AppendUint(&out, r.repetitions);
    out.append(", \"iterations\": ");
    AppendUint(&out, r.iterations);
    out.append("}");
  }
  out.append(report.records.empty() ? "]\n" : "\n  ]\n");
  out.append("}\n");
  return out;
}

std::string BenchJsonPath(std::string_view dir, std::string_view name) {
  std::string path(dir);
  if (!path.empty() && path.back() != '/') path.push_back('/');
  path.append("BENCH_");
  path.append(name);
  path.append(".json");
  return path;
}

bool WriteBenchJsonFile(const std::string& path, const BenchReport& report) {
  const std::string json = RenderBenchJson(report);
  return storage::WriteFileAtomic(
             path, std::vector<uint8_t>(json.begin(), json.end()))
      .ok();
}

}  // namespace felip::eval
