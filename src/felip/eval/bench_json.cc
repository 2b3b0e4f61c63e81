#include "felip/eval/bench_json.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

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

// Fixed number format: %.17g round-trips every double bit-exactly, so a
// render -> parse -> render cycle is byte-stable.
void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

// --- Tiny recursive-descent parser for the documents we render. ---
// Tolerates arbitrary whitespace and any key order; unknown keys are
// skipped, so older binaries can read artifacts from newer ones as long
// as the schema version matches.

struct Parser {
  std::string_view s;
  size_t pos = 0;

  void SkipWs() {
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos]))) {
      ++pos;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool Peek(char c) {
    SkipWs();
    return pos < s.size() && s[pos] == c;
  }

  bool ParseString(std::string* out) {
    SkipWs();
    if (pos >= s.size() || s[pos] != '"') return false;
    ++pos;
    out->clear();
    while (pos < s.size() && s[pos] != '"') {
      char c = s[pos];
      if (c == '\\') {
        if (pos + 1 >= s.size()) return false;
        const char esc = s[pos + 1];
        pos += 2;
        switch (esc) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'u': {
            if (pos + 4 > s.size()) return false;
            char hex[5] = {s[pos], s[pos + 1], s[pos + 2], s[pos + 3], 0};
            out->push_back(
                static_cast<char>(std::strtoul(hex, nullptr, 16)));
            pos += 4;
            break;
          }
          default:
            return false;
        }
      } else {
        out->push_back(c);
        ++pos;
      }
    }
    if (pos >= s.size()) return false;
    ++pos;  // closing quote
    return true;
  }

  bool ParseNumber(double* out) {
    SkipWs();
    const char* begin = s.data() + pos;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) return false;
    pos += static_cast<size_t>(end - begin);
    *out = v;
    return true;
  }

  // Skips any JSON value (for unknown keys).
  bool SkipValue() {
    SkipWs();
    if (pos >= s.size()) return false;
    const char c = s[pos];
    if (c == '"') {
      std::string ignored;
      return ParseString(&ignored);
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++pos;
      int depth = 1;
      bool in_string = false;
      while (pos < s.size() && depth > 0) {
        const char d = s[pos];
        if (in_string) {
          if (d == '\\') ++pos;
          else if (d == '"') in_string = false;
        } else if (d == '"') {
          in_string = true;
        } else if (d == c) {
          ++depth;
        } else if (d == close) {
          --depth;
        }
        ++pos;
      }
      return depth == 0;
    }
    double ignored;
    if (ParseNumber(&ignored)) return true;
    // true/false/null
    for (const char* lit : {"true", "false", "null"}) {
      const size_t len = std::strlen(lit);
      if (s.substr(pos, len) == lit) {
        pos += len;
        return true;
      }
    }
    return false;
  }
};

bool ParseRecord(Parser* p, BenchRecord* r) {
  if (!p->Consume('{')) return false;
  bool first = true;
  while (!p->Peek('}')) {
    if (!first && !p->Consume(',')) return false;
    first = false;
    std::string key;
    if (!p->ParseString(&key) || !p->Consume(':')) return false;
    if (key == "op") {
      if (!p->ParseString(&r->op)) return false;
    } else if (key == "workload") {
      if (!p->ParseString(&r->workload)) return false;
    } else if (key == "ns_per_op") {
      if (!p->ParseNumber(&r->ns_per_op)) return false;
    } else if (key == "bytes_per_op") {
      if (!p->ParseNumber(&r->bytes_per_op)) return false;
    } else if (key == "items_per_second") {
      if (!p->ParseNumber(&r->items_per_second)) return false;
    } else if (key == "iterations") {
      double v;
      if (!p->ParseNumber(&v)) return false;
      r->iterations = static_cast<uint64_t>(v);
    } else {
      if (!p->SkipValue()) return false;
    }
  }
  return p->Consume('}');
}

}  // namespace

BenchReport MakeBenchReport(std::string_view name) {
  BenchReport report;
  report.name = std::string(name);
  const char* sha = std::getenv("FELIP_GIT_SHA");
  report.git_sha = (sha != nullptr && sha[0] != '\0') ? sha : "unknown";
  report.dispatch = simd::LevelName(simd::ActiveLevel());
  report.threads = std::thread::hardware_concurrency();
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
    out.append(", \"bytes_per_op\": ");
    AppendDouble(&out, r.bytes_per_op);
    out.append(", \"items_per_second\": ");
    AppendDouble(&out, r.items_per_second);
    out.append(", \"iterations\": ");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, r.iterations);
    out.append(buf);
    out.append("}");
  }
  out.append(report.records.empty() ? "]\n" : "\n  ]\n");
  out.append("}\n");
  return out;
}

bool ParseBenchJson(std::string_view json, BenchReport* out) {
  return ParseBenchJsonDetailed(json, out) == BenchParseResult::kOk;
}

BenchParseResult ParseBenchJsonDetailed(std::string_view json,
                                        BenchReport* out,
                                        int* schema_version_seen) {
  if (schema_version_seen != nullptr) *schema_version_seen = -1;
  if (out == nullptr) return BenchParseResult::kMalformed;
  Parser p{json};
  BenchReport report;
  int schema_version = -1;
  if (!p.Consume('{')) return BenchParseResult::kMalformed;
  bool first = true;
  while (!p.Peek('}')) {
    if (!first && !p.Consume(',')) return BenchParseResult::kMalformed;
    first = false;
    std::string key;
    if (!p.ParseString(&key) || !p.Consume(':')) {
      return BenchParseResult::kMalformed;
    }
    if (key == "schema_version") {
      double v;
      if (!p.ParseNumber(&v)) return BenchParseResult::kMalformed;
      schema_version = static_cast<int>(v);
    } else if (key == "name") {
      if (!p.ParseString(&report.name)) return BenchParseResult::kMalformed;
    } else if (key == "git_sha") {
      if (!p.ParseString(&report.git_sha)) {
        return BenchParseResult::kMalformed;
      }
    } else if (key == "dispatch") {
      if (!p.ParseString(&report.dispatch)) {
        return BenchParseResult::kMalformed;
      }
    } else if (key == "threads") {
      double v;
      if (!p.ParseNumber(&v)) return BenchParseResult::kMalformed;
      report.threads = static_cast<unsigned>(v);
    } else if (key == "records") {
      if (!p.Consume('[')) return BenchParseResult::kMalformed;
      while (!p.Peek(']')) {
        if (!report.records.empty() && !p.Consume(',')) {
          return BenchParseResult::kMalformed;
        }
        BenchRecord r;
        if (!ParseRecord(&p, &r)) return BenchParseResult::kMalformed;
        report.records.push_back(std::move(r));
      }
      if (!p.Consume(']')) return BenchParseResult::kMalformed;
    } else {
      if (!p.SkipValue()) return BenchParseResult::kMalformed;
    }
  }
  if (!p.Consume('}')) return BenchParseResult::kMalformed;
  // A missing schema_version is malformed (the renderer always writes
  // one); a present-but-different version is the upgrade case callers
  // want to surface precisely.
  if (schema_version == -1) return BenchParseResult::kMalformed;
  if (schema_version != kBenchJsonSchemaVersion) {
    if (schema_version_seen != nullptr) {
      *schema_version_seen = schema_version;
    }
    return BenchParseResult::kUnknownSchemaVersion;
  }
  *out = std::move(report);
  return BenchParseResult::kOk;
}

std::string BenchJsonPath(std::string_view dir, std::string_view name) {
  std::string path(dir);
  if (!path.empty() && path.back() != '/') path.push_back('/');
  path.append("BENCH_");
  path.append(name);
  path.append(".json");
  return path;
}

BenchComparison CompareBenchReports(const BenchReport& baseline,
                                    const BenchReport& current,
                                    double threshold) {
  BenchComparison cmp;
  const auto find_current = [&current](const std::string& op) {
    for (const BenchRecord& r : current.records) {
      if (r.op == op) return &r;
    }
    return static_cast<const BenchRecord*>(nullptr);
  };
  for (const BenchRecord& base : baseline.records) {
    const BenchRecord* cur = find_current(base.op);
    if (cur == nullptr) {
      cmp.only_in_baseline.push_back(base.op);
      continue;
    }
    BenchDelta delta;
    delta.op = base.op;
    delta.baseline_ns = base.ns_per_op;
    delta.current_ns = cur->ns_per_op;
    delta.ratio = base.ns_per_op > 0.0 ? cur->ns_per_op / base.ns_per_op
                                       : 0.0;
    delta.regression =
        base.ns_per_op > 0.0 && delta.ratio > 1.0 + threshold;
    if (delta.regression) ++cmp.num_regressions;
    cmp.deltas.push_back(std::move(delta));
  }
  for (const BenchRecord& cur : current.records) {
    bool in_baseline = false;
    for (const BenchRecord& base : baseline.records) {
      if (base.op == cur.op) {
        in_baseline = true;
        break;
      }
    }
    if (!in_baseline) cmp.only_in_current.push_back(cur.op);
  }
  return cmp;
}

bool WriteBenchJsonFile(const std::string& path, const BenchReport& report) {
  const std::string json = RenderBenchJson(report);
  return storage::WriteFileAtomic(
             path, std::vector<uint8_t>(json.begin(), json.end()))
      .ok();
}

}  // namespace felip::eval
