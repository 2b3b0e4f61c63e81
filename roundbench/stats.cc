#include "stats.h"

#include <algorithm>
#include <cmath>

namespace roundbench {

std::optional<double> Median(std::span<const double> samples) {
  if (samples.empty()) return std::nullopt;
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  if (n % 2 == 1) return sorted[n / 2];
  return (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
}

std::optional<Tail> Percentile(std::span<const double> samples,
                               double percentile) {
  const uint64_t n = samples.size();
  if (n == 0 || !(percentile > 0.0 && percentile < 100.0)) {
    return std::nullopt;
  }
  // Nearest rank, 1-based; the small epsilon keeps 99% of 1000 at rank
  // 990 despite 0.99 * 1000 rounding up to 990.0000000001.
  const double exact = percentile / 100.0 * static_cast<double>(n);
  auto rank = static_cast<uint64_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<uint64_t>(rank, 1, n);
  const uint64_t beyond = n - rank;
  if (beyond < kMinSamplesBeyond) return std::nullopt;
  std::vector<double> sorted(samples.begin(), samples.end());
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return Tail{percentile, sorted[rank - 1], n, beyond};
}

std::optional<Tail> HighestTail(std::span<const double> samples) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (std::optional<Tail> tail = Percentile(samples, p)) return tail;
  }
  return std::nullopt;
}

void OpsLedger::Add(const std::string& kind, uint64_t attempted,
                    uint64_t failed) {
  for (Entry& entry : entries_) {
    if (entry.kind == kind) {
      entry.attempted += attempted;
      entry.failed += failed;
      return;
    }
  }
  entries_.push_back(Entry{kind, attempted, failed});
}

uint64_t OpsLedger::attempted() const {
  uint64_t total = 0;
  for (const Entry& entry : entries_) total += entry.attempted;
  return total;
}

uint64_t OpsLedger::failed() const {
  uint64_t total = 0;
  for (const Entry& entry : entries_) total += entry.failed;
  return total;
}

double OpsLedger::failed_ratio() const {
  const uint64_t total = attempted();
  if (total == 0) return 0.0;
  return static_cast<double>(failed()) / static_cast<double>(total);
}

double BusyShare(double busy_ns, double wall_ns, unsigned workers) {
  if (wall_ns <= 0.0 || workers == 0) return 0.0;
  return busy_ns / (wall_ns * static_cast<double>(workers));
}

}  // namespace roundbench
