#include "felip/fo/frequency_oracle.h"

#include <limits>

namespace felip::fo {

Status MergeOracleState(OracleState* into, const OracleState& from) {
  if (into->protocol != from.protocol) {
    return Status::InvalidArgument(
        "cannot merge oracle states of different protocols");
  }
  if (into->counts.size() != from.counts.size()) {
    return Status::InvalidArgument(
        "cannot merge oracle states with mismatched count shapes");
  }
  if (into->pool_counts.size() != from.pool_counts.size()) {
    return Status::InvalidArgument(
        "cannot merge oracle states with mismatched pool shapes");
  }
  // Pool counts are uint32_t on the wire; screen for overflow before
  // mutating anything so a failed merge leaves `into` untouched.
  for (size_t i = 0; i < from.pool_counts.size(); ++i) {
    const uint64_t sum = static_cast<uint64_t>(into->pool_counts[i]) +
                         static_cast<uint64_t>(from.pool_counts[i]);
    if (sum > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument("merged pool count overflows uint32");
    }
  }
  for (size_t i = 0; i < from.counts.size(); ++i) {
    into->counts[i] += from.counts[i];
  }
  for (size_t i = 0; i < from.pool_counts.size(); ++i) {
    into->pool_counts[i] += from.pool_counts[i];
  }
  into->reports.insert(into->reports.end(), from.reports.begin(),
                       from.reports.end());
  into->num_reports += from.num_reports;
  return Status::Ok();
}

}  // namespace felip::fo
