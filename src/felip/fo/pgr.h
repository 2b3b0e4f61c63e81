// Projective Geometry Response (PGR) — extension protocol.
//
// Feldman, Nelson, Nguyen, Talwar, "Private frequency estimation via
// projective geometry" (ICML'22). The value space is embedded into the
// points of the projective space PG(t-1, q) over the prime field F_q with
// q ~ e^eps + 1 and t the smallest dimension whose point count
// N = (q^t - 1)/(q - 1) covers the domain. A user holding value v (point
// x_v) reports a single point index z, drawn with probability proportional
// to e^eps when <x_v, z> != 0 and 1 when <x_v, z> = 0. The report is one
// uint32 — near-optimal utility at log-size communication, which is the
// regime where GRR's variance explodes and OUE's |D|-bit reports are
// unaffordable.
//
// Support probabilities (derived by counting points on and off the
// hyperplane x_v^perp, see docs/frequency_oracles.md):
//   Z  = e^eps q^(t-1) + (q^(t-1) - 1)/(q - 1)
//   p* = e^eps q^(t-1) / Z                          (true value supported)
//   q* = q^(t-2) (e^eps (q - 1) + 1) / Z            (other value supported)
// and the estimator is the standard debiased support count
//   f_hat(v) = (C(v)/n - q*) / (p* - q*),  C(v) = n - #{reports on x_v^perp}.
//
// The server accumulates an integer histogram over the N point indices —
// order-independent state that snapshots, shard merges, and the replay log
// carry through the generic OracleState counts field. Decoding offers two
// exact paths that produce bit-identical estimates (both compute the same
// integer orthogonal-support counts before one float debias):
//   * kDirect — O(|D| * N * t) field dot products; best for small N.
//   * kFast   — the paper's fast-aggregation dynamic program over F_q^t,
//     O(t * q^(t+2)) integer adds; best when |D| approaches N.
// kAuto picks the cheaper one from those operation counts, but never a
// fast table larger than the allocation gate — large-domain regimes where
// the DP is op-cheap but memory-infeasible fall back to direct decode.

#ifndef FELIP_FO_PGR_H_
#define FELIP_FO_PGR_H_

#include <cstdint>
#include <vector>

#include "felip/common/rng.h"

namespace felip::fo {

enum class PgrDecode : uint8_t {
  kAuto = 0,
  kDirect = 1,
  kFast = 2,
};

struct PgrOptions {
  PgrDecode decode = PgrDecode::kAuto;
};

// True when the PGR construction is representable for (epsilon, domain):
// the prime field order ceil(e^eps + 1) stays under the field-order cap
// (the float->uint32 conversion in PgrParams::Make is undefined past it,
// and q bounds the O(q^2) inverse table), the projective dimension stays
// under its cap, and every point index fits uint32. PgrParams::Make aborts
// on infeasible inputs; untrusted (epsilon, domain) pairs — wire configs,
// CLI flags — must be screened with this first.
bool PgrFeasible(double epsilon, uint64_t domain);

// Mechanism parameters shared by client and server, derived
// deterministically from (epsilon, domain).
struct PgrParams {
  uint32_t q = 0;       // prime field order, smallest prime >= ceil(e^eps+1)
  uint32_t t = 0;       // projective dimension, >= 2
  uint64_t num_points = 0;  // N = (q^t - 1)/(q - 1) >= domain
  double p_star = 0.0;  // Pr[report supports the true value]
  double q_star = 0.0;  // Pr[report supports a specific other value]

  static PgrParams Make(double epsilon, uint64_t domain);
};

// The decode path EstimateFrequencies() will take for `requested`:
// explicit kDirect/kFast pass through; kAuto resolves to the cheaper path
// by operation count, except that a fast table the allocation gate in the
// fast decoder would reject always resolves to kDirect.
PgrDecode ResolvePgrDecode(const PgrParams& params, uint64_t domain,
                           PgrDecode requested);

// Local perturbation for PGR. Immutable after construction; safe to share
// across users/threads (each user supplies their own Rng).
class PgrClient {
 public:
  PgrClient(double epsilon, uint64_t domain);

  // Perturbs `value` in [0, domain); returns a point index in
  // [0, num_points). Exact sampling: a Bernoulli split between the
  // off-hyperplane and on-hyperplane point sets, then a uniform point of
  // the chosen set via uniform field-vector draws (no rejection against
  // the full space).
  uint32_t Perturb(uint64_t value, Rng& rng) const;

  const PgrParams& params() const { return params_; }
  uint64_t domain() const { return domain_; }

 private:
  uint64_t domain_;
  PgrParams params_;
  double off_hyperplane_;  // Pr[report not orthogonal to the true point]
  std::vector<uint32_t> inverse_;  // multiplicative inverses mod q
};

// Aggregation and unbiased estimation for PGR.
class PgrServer {
 public:
  PgrServer(double epsilon, uint64_t domain, PgrOptions options = {});

  // Accumulates one report in [0, num_points). The report count is the
  // counts' sum, not a second counter bumped here (see GrrServer::Add).
  void Add(uint32_t report);

  // Unbiased frequency estimates for all domain values. Direct and fast
  // decode produce bit-identical results; kAuto picks by operation count.
  std::vector<double> EstimateFrequencies() const;
  double EstimateValue(uint64_t value) const;

  // O(num_points): the sum of the counts.
  uint64_t num_reports() const;
  uint64_t domain() const { return domain_; }
  const PgrParams& params() const { return params_; }

  // --- Accumulator persistence (snapshot path) ---
  // The per-point counts are the server's entire accumulator: restoring
  // them and continuing to Add() is bit-identical to never having stopped.
  const std::vector<uint64_t>& counts() const { return counts_; }

  // Replaces the accumulator with previously exported state. Callers must
  // validate untrusted input first; a size mismatch or counts that do not
  // sum to `num_reports` abort.
  void RestoreState(std::vector<uint64_t> counts, uint64_t num_reports);

 private:
  // #reports orthogonal to each value's point, one entry per domain value.
  std::vector<uint64_t> OrthogonalCountsDirect() const;
  std::vector<uint64_t> OrthogonalCountsFast() const;
  double Debias(uint64_t orthogonal, uint64_t num_reports) const;

  uint64_t domain_;
  PgrOptions options_;
  PgrParams params_;
  std::vector<uint64_t> counts_;  // histogram over point indices
};

}  // namespace felip::fo

#endif  // FELIP_FO_PGR_H_
