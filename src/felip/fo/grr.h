// Generalized Randomized Response (Section 2.2.1).
//
// Client side: report the true value with probability p = e^eps/(e^eps+|D|-1),
// otherwise a uniformly random *other* value. Server side: count reports per
// value and debias with Eq. 1. Split into client/server classes so the
// library is usable in a real deployment where perturbation happens on the
// user's device.

#ifndef FELIP_FO_GRR_H_
#define FELIP_FO_GRR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "felip/common/check.h"
#include "felip/common/rng.h"

namespace felip::fo {

// Local perturbation for GRR. Immutable after construction; safe to share
// across users/threads (each user supplies their own Rng).
class GrrClient {
 public:
  // `domain` is |D| >= 1 (a 1-value domain degenerates to always reporting
  // that value, which is handled without division by zero).
  GrrClient(double epsilon, uint64_t domain);

  // Perturbs `value` in [0, domain).
  uint64_t Perturb(uint64_t value, Rng& rng) const;

  double p() const { return p_; }
  double q() const { return q_; }
  uint64_t domain() const { return domain_; }

 private:
  uint64_t domain_;
  double p_;  // Pr[report = true value]
  double q_;  // Pr[report = any specific other value]
};

// Aggregation and unbiased estimation for GRR.
class GrrServer {
 public:
  GrrServer(double epsilon, uint64_t domain);

  // Accumulates one perturbed report in [0, domain). Inline so the
  // oracle's grid-run ingest loop compiles to a check and an increment.
  void Add(uint64_t report) {
    FELIP_CHECK(report < counts_.size());
    ++counts_[report];
    ++num_reports_;
  }

  // Batch ingestion, equivalent to Add() on every report: the reports are
  // histogrammed in fixed shards over up to `thread_count` threads (0 =
  // hardware concurrency) and the shard histograms are reduced in shard
  // order, so the resulting counts are bit-identical to the serial path
  // for every thread count.
  void AggregateReports(std::span<const uint64_t> reports,
                        unsigned thread_count = 0);

  // Unbiased frequency estimates for all values (Eq. 1). Entries may be
  // negative; they sum to ~1 in expectation. Requires at least one report.
  std::vector<double> EstimateFrequencies() const;

  // Unbiased frequency estimate for a single value.
  double EstimateValue(uint64_t value) const;

  uint64_t num_reports() const { return num_reports_; }
  uint64_t domain() const { return static_cast<uint64_t>(counts_.size()); }

  // --- Accumulator persistence (snapshot path) ---
  // The per-value counts are the server's entire accumulator: restoring
  // them and continuing to Add() is bit-identical to never having stopped.
  const std::vector<uint64_t>& counts() const { return counts_; }

  // Replaces the accumulator with previously exported state. Callers must
  // validate untrusted input first; size mismatches abort.
  void RestoreState(std::vector<uint64_t> counts, uint64_t num_reports);

 private:
  std::vector<uint64_t> counts_;
  uint64_t num_reports_ = 0;
  double p_;
  double q_;
};

}  // namespace felip::fo

#endif  // FELIP_FO_GRR_H_
