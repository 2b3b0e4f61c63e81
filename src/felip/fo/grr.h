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
  // The report count is the counts' sum, not a second counter: the
  // compiler cannot prove a uint64_t counter is not one of the counts, so
  // bumping it made every Add() reload and store it, about twice the cost
  // of the increment alone (BM_GrrAddLoop, docs/aggregation.md).
  void Add(uint64_t report) {
    FELIP_CHECK(report < counts_.size());
    ++counts_[report];
  }

  // Unbiased frequency estimates for all values (Eq. 1). Entries may be
  // negative; they sum to ~1 in expectation. Requires at least one report.
  std::vector<double> EstimateFrequencies() const;

  // Unbiased frequency estimate for a single value.
  double EstimateValue(uint64_t value) const;

  // O(domain): the sum of the counts.
  uint64_t num_reports() const;
  uint64_t domain() const { return static_cast<uint64_t>(counts_.size()); }

  // --- Accumulator persistence (snapshot path) ---
  // The per-value counts are the server's entire accumulator: restoring
  // them and continuing to Add() is bit-identical to never having stopped.
  const std::vector<uint64_t>& counts() const { return counts_; }

  // Replaces the accumulator with previously exported state. Callers must
  // validate untrusted input first; a size mismatch or counts that do not
  // sum to `num_reports` abort.
  void RestoreState(std::vector<uint64_t> counts, uint64_t num_reports);

 private:
  std::vector<uint64_t> counts_;
  double p_;
  double q_;
};

}  // namespace felip::fo

#endif  // FELIP_FO_GRR_H_
