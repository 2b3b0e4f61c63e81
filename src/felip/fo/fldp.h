// FLDP — sampled unary encoding with a public subset pool (extension
// protocol).
//
// Zhao et al., "Frequency estimation in the shuffle model with almost a
// single message" style cost/accuracy trading, adapted to the local model
// the way FELIP consumes oracles: each user reports OUE bits for only a
// small public subset of the domain, so the report is `report_bits` bytes
// instead of |D|, and the estimator pays a d/s variance inflation in
// exchange. s = min(report_bits, d); s = d recovers OUE exactly.
//
// The subset is public randomness: a pool of K subsets is derived from
// `pool_salt` (the same construction as OLH's shared seed pool), the user
// draws a pool index uniformly, and perturbs one bit per covered bucket
// with the OUE probabilities p = 1/2 (true bucket), q = 1/(e^eps + 1).
// Because the subset choice is independent of the private value, the
// per-report privacy analysis is OUE's restricted to the subset: the
// worst-case likelihood ratio is p(1-q) / (q(1-p)) = e^eps, so the
// mechanism is eps-LDP for every pool size.
//
// Server state is a (pool index, slot) set-bit histogram plus a per-pool
// coverage count — both integer and order-independent, carried through the
// generic OracleState counts/pool_counts fields. Estimation debiases each
// bucket against the users whose subset covered it:
//   f_hat(b) = (C_b / n_b - q) / (p - q)
// with C_b the set-bit count and n_b the coverage count of bucket b.

#ifndef FELIP_FO_FLDP_H_
#define FELIP_FO_FLDP_H_

#include <cstdint>
#include <vector>

#include "felip/common/rng.h"

namespace felip::fo {

struct FldpOptions {
  // Target report size in perturbed bits (= bytes on the wire); the
  // effective subset size is s = min(report_bits, domain).
  uint32_t report_bits = 8;
  // Number of public subsets in the pool. Larger pools decorrelate users
  // at the cost of a K * s server histogram.
  uint32_t subset_pool_size = 2048;
  // Salt from which pool subsets are derived; must match between client
  // and server.
  uint64_t pool_salt = 0xf1d9b1750a4c8e21ULL;
};

// One perturbed FLDP report: which public subset the user drew, and one
// perturbed bit per covered bucket (subset order).
struct FldpReport {
  uint32_t subset_index = 0;
  std::vector<uint8_t> bits;

  friend bool operator==(const FldpReport&, const FldpReport&) = default;
};

// The buckets of pool subset `index`: s distinct values in [0, domain),
// derived deterministically from the salt (rejection-sampled draws from a
// subset-seeded Rng; the identity subset when s == domain). Shared by
// client and server, and by state validation in the oracle facade.
std::vector<uint32_t> FldpSubset(uint64_t pool_salt, uint32_t index,
                                 uint64_t domain, uint32_t subset_size);

// Effective subset size for a domain.
uint32_t FldpSubsetSize(const FldpOptions& options, uint64_t domain);

// Local perturbation for FLDP. Immutable after construction.
class FldpClient {
 public:
  FldpClient(double epsilon, uint64_t domain, FldpOptions options = {});

  FldpReport Perturb(uint64_t value, Rng& rng) const;

  double p() const { return 0.5; }
  double q() const { return q_; }
  uint32_t subset_size() const { return subset_size_; }
  uint64_t domain() const { return domain_; }
  const FldpOptions& options() const { return options_; }

 private:
  uint64_t domain_;
  FldpOptions options_;
  uint32_t subset_size_;
  double q_;
};

// Aggregation and unbiased estimation for FLDP.
class FldpServer {
 public:
  FldpServer(double epsilon, uint64_t domain, FldpOptions options = {});

  // Accumulates one report (subset_index < K, bits.size() == s, 0/1).
  void Add(const FldpReport& report);

  // Unbiased frequency estimates for all domain values. A bucket no
  // user's subset covered estimates 0.
  std::vector<double> EstimateFrequencies() const;
  double EstimateValue(uint64_t value) const;

  uint64_t num_reports() const { return num_reports_; }
  uint64_t domain() const { return domain_; }
  uint32_t subset_size() const { return subset_size_; }

  // --- Accumulator persistence (snapshot path) ---
  // Set-bit counts (K * s) plus per-pool coverage (K) are the server's
  // entire accumulator: restoring them and continuing to Add() is
  // bit-identical to never having stopped.
  const std::vector<uint64_t>& counts() const { return counts_; }
  const std::vector<uint32_t>& coverage_counts() const {
    return coverage_counts_;
  }

  // Replaces the accumulator with previously exported state. Callers must
  // validate untrusted input first; size mismatches abort.
  void RestoreState(std::vector<uint64_t> counts,
                    std::vector<uint32_t> coverage_counts,
                    uint64_t num_reports);

 private:
  double Debias(uint64_t set_bits, uint64_t covered) const;

  uint64_t domain_;
  FldpOptions options_;
  uint32_t subset_size_;
  double q_;
  uint64_t num_reports_ = 0;
  std::vector<uint64_t> counts_;           // (pool, slot) set-bit counts
  std::vector<uint32_t> coverage_counts_;  // users per pool index
  std::vector<uint32_t> subsets_;          // materialized pool, K * s
};

}  // namespace felip::fo

#endif  // FELIP_FO_FLDP_H_
