// Summary statistics of the round benchmark.
//
// Every timing is reported as a median plus, where one exists, a tail
// percentile that has at least ten samples beyond it. Failed operations
// are counted against the operations attempted, and a layer's busy share
// is its summed busy time over the wall time its threads had.

#ifndef ROUNDBENCH_STATS_H_
#define ROUNDBENCH_STATS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace roundbench {

// Samples a tail percentile must leave beyond it to be reported.
inline constexpr uint64_t kMinSamplesBeyond = 10;

// Median of `samples` (mean of the two middle values for an even count);
// nullopt when empty.
std::optional<double> Median(std::span<const double> samples);

// A nearest-rank percentile together with how many samples lie beyond it.
struct Tail {
  double percentile = 0.0;  // e.g. 99.0
  double value = 0.0;
  uint64_t samples = 0;     // samples the percentile was taken over
  uint64_t beyond = 0;      // samples ranked above it
};

// Nearest-rank `percentile` (in (0, 100)) of `samples`: the value at
// 1-based rank ceil(percentile / 100 * n). Returns nullopt when fewer than
// kMinSamplesBeyond samples rank above it, so a tail read from a handful
// of samples is omitted rather than reported.
std::optional<Tail> Percentile(std::span<const double> samples,
                               double percentile);

// The highest of {99.9, 99, 95, 90, 75} that Percentile() reports for
// `samples`; nullopt when none has enough samples beyond it.
std::optional<Tail> HighestTail(std::span<const double> samples);

// Operations attempted and failed, by kind. failed_ops_ratio is the
// summed failures over the summed attempts of every kind.
class OpsLedger {
 public:
  // Records `attempted` operations of `kind`, `failed` of which failed.
  void Add(const std::string& kind, uint64_t attempted, uint64_t failed);

  uint64_t attempted() const;
  uint64_t failed() const;
  // failed() / attempted(); 0 when nothing was attempted.
  double failed_ratio() const;

  struct Entry {
    std::string kind;
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

// Share of the available worker time a layer spent busy:
// busy_ns / (wall_ns * workers). 0 when wall_ns or workers is 0.
double BusyShare(double busy_ns, double wall_ns, unsigned workers);

}  // namespace roundbench

#endif  // ROUNDBENCH_STATS_H_
