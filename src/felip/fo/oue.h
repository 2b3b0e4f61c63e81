// Optimized Unary Encoding (extension protocol).
//
// Not part of the paper's AFO (which selects between GRR and OLH), but OUE
// has the same variance as OLH with no hashing at aggregation time, so it is
// a useful third option and is exercised by the abl4 ablation bench. The
// client encodes the value as a one-hot bit vector of length |D| and flips
// each bit independently: a 1-bit stays 1 with p = 1/2, a 0-bit becomes 1
// with q = 1/(e^eps + 1).

#ifndef FELIP_FO_OUE_H_
#define FELIP_FO_OUE_H_

#include <cstdint>
#include <vector>

#include "felip/common/rng.h"

namespace felip::fo {

class OueClient {
 public:
  OueClient(double epsilon, uint64_t domain);

  // Perturbed one-hot encoding of `value`; vector of 0/1 of length |D|.
  std::vector<uint8_t> Perturb(uint64_t value, Rng& rng) const;

  double p() const { return 0.5; }
  double q() const { return q_; }
  uint64_t domain() const { return domain_; }

 private:
  uint64_t domain_;
  double q_;
};

class OueServer {
 public:
  OueServer(double epsilon, uint64_t domain);

  // Accumulates one perturbed bit vector (length must equal |D|).
  void Add(const std::vector<uint8_t>& report);

  std::vector<double> EstimateFrequencies() const;
  double EstimateValue(uint64_t value) const;

  uint64_t num_reports() const { return num_reports_; }
  uint64_t domain() const { return static_cast<uint64_t>(counts_.size()); }

  // --- Accumulator persistence (snapshot path) ---
  // Per-bit counts plus the report total are the entire accumulator.
  const std::vector<uint64_t>& counts() const { return counts_; }

  // Replaces the accumulator with previously exported state. Callers must
  // validate untrusted input first; size mismatches abort.
  void RestoreState(std::vector<uint64_t> counts, uint64_t num_reports);

 private:
  std::vector<uint64_t> counts_;
  uint64_t num_reports_ = 0;
  double q_;
};

}  // namespace felip::fo

#endif  // FELIP_FO_OUE_H_
