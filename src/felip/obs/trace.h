// Lightweight stage tracing: RAII timer spans with parent/child nesting.
//
// A ScopedTimer marks one pipeline stage. Spans nest per thread: a timer
// opened while another is active becomes its child, and the full path
// ("felip_core_finalize/felip_core_estimate") is what the registry
// accumulates, so RenderText/RenderJson show both how long a stage took
// and under which parent it ran. Each span also feeds a latency histogram
// under its own (unnested) name + "_seconds", giving p50/p95/p99 per
// stage regardless of call site.
//
// Spans are meant for stage-level granularity (collection rounds,
// estimation passes), not per-report events — ending a span takes a
// registry lookup under a mutex. Per-event hot paths should cache a
// Counter/Histogram reference instead (see docs/observability.md).

#ifndef FELIP_OBS_TRACE_H_
#define FELIP_OBS_TRACE_H_

#include <string>
#include <string_view>

#ifndef FELIP_OBS_NOOP
#include <chrono>
#endif

#include "felip/obs/metrics.h"

namespace felip::obs {

#ifndef FELIP_OBS_NOOP

class ScopedTimer {
 public:
  // Opens a span named `name` (convention: felip_<subsystem>_<stage>)
  // reporting to the default registry.
  explicit ScopedTimer(std::string_view name);
  ScopedTimer(std::string_view name, Registry& registry);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  // Full nested path of this span ("parent/child/..."), fixed at
  // construction.
  const std::string& path() const { return path_; }

  // The calling thread's innermost active span path, or "" when no span
  // is open (exposed for tests).
  static std::string CurrentPath();

 private:
  Registry* registry_;
  std::string name_;
  std::string path_;
  std::chrono::steady_clock::time_point start_;
};

#else  // FELIP_OBS_NOOP

class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view) {}
  ScopedTimer(std::string_view, Registry&) {}
  const std::string& path() const { return path_; }
  static std::string CurrentPath() { return ""; }

 private:
  std::string path_;
};

#endif  // FELIP_OBS_NOOP

}  // namespace felip::obs

#endif  // FELIP_OBS_TRACE_H_
