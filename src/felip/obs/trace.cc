#include "felip/obs/trace.h"

#ifndef FELIP_OBS_NOOP

#include <vector>

#include "felip/common/check.h"

namespace felip::obs {

namespace {

// Per-thread stack of active span paths (innermost at the back), freed
// when its thread exits.
std::vector<std::string>& SpanStack() {
  thread_local std::vector<std::string> stack;
  return stack;
}

}  // namespace

ScopedTimer::ScopedTimer(std::string_view name)
    : ScopedTimer(name, Registry::Default()) {}

ScopedTimer::ScopedTimer(std::string_view name, Registry& registry)
    : registry_(&registry), name_(name) {
  std::vector<std::string>& stack = SpanStack();
  path_ = stack.empty() ? name_ : stack.back() + "/" + name_;
  stack.push_back(path_);
  start_ = std::chrono::steady_clock::now();
}

ScopedTimer::~ScopedTimer() {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  const auto nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
          .count());
  std::vector<std::string>& stack = SpanStack();
  FELIP_CHECK_MSG(!stack.empty() && stack.back() == path_,
                  "ScopedTimer spans must end in reverse creation order");
  stack.pop_back();
  registry_->RecordSpan(path_, nanos);
  registry_->GetHistogram(name_ + "_seconds")
      .Observe(static_cast<double>(nanos) * 1e-9);
}

std::string ScopedTimer::CurrentPath() {
  const std::vector<std::string>& stack = SpanStack();
  return stack.empty() ? "" : stack.back();
}

}  // namespace felip::obs

#endif  // FELIP_OBS_NOOP
