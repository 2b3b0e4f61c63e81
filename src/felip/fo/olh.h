// Optimized Local Hashing (Section 2.2.2).
//
// Client side: pick a hash function H from a universal family (a seeded
// xxHash64), hash the value into [0, g) with g = ceil(e^eps + 1), and apply
// GRR over the hashed domain. Server side: C(v) = #{reports supporting v},
// debiased by Phi_OLH(v) = (C(v) - n/g) / (p - 1/g).
//
// Aggregation cost: with one fresh seed per user, estimating all |D|
// frequencies costs O(n * |D|) hash evaluations. OlhOptions::seed_pool_size
// enables the *shared seed pool* mode: each user draws their seed uniformly
// from a public pool of K seeds. Seed choice is public randomness (it does
// not depend on the private value), so epsilon-LDP is unchanged, but the
// server can histogram reports by (seed, y) and aggregate in O(K * |D| + n).

#ifndef FELIP_FO_OLH_H_
#define FELIP_FO_OLH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "felip/common/check.h"
#include "felip/common/rng.h"

namespace felip::fo {

struct OlhOptions {
  // 0 => a fresh random seed per user (the textbook protocol).
  // K > 0 => seeds drawn from a public pool of K seeds derived from
  // `pool_salt`; enables O(K * |D| + n) aggregation.
  uint32_t seed_pool_size = 0;
  // Salt from which pool seeds are derived; must match between client and
  // server. Ignored when seed_pool_size == 0.
  uint64_t pool_salt = 0x5eedf00d5eedf00dULL;
};

// One perturbed OLH report.
struct OlhReport {
  static constexpr uint32_t kNoPool = 0xffffffffu;

  uint64_t seed = 0;             // the hash seed used by this user
  uint32_t hashed_report = 0;    // GRR output over [0, g)
  uint32_t seed_index = kNoPool; // pool index, or kNoPool in per-user mode

  friend bool operator==(const OlhReport&, const OlhReport&) = default;
};

// Local perturbation for OLH. Immutable after construction.
class OlhClient {
 public:
  OlhClient(double epsilon, uint64_t domain, OlhOptions options = {});

  OlhReport Perturb(uint64_t value, Rng& rng) const;

  uint32_t g() const { return g_; }
  double p() const { return p_; }
  uint64_t domain() const { return domain_; }
  const OlhOptions& options() const { return options_; }

 private:
  uint64_t domain_;
  OlhOptions options_;
  uint32_t g_;
  double p_;  // Pr[hashed report = true hashed value]
};

// Aggregation and unbiased estimation for OLH.
class OlhServer {
 public:
  OlhServer(double epsilon, uint64_t domain, OlhOptions options = {});

  // Accumulates one perturbed report. Inline so the oracle's grid-run
  // ingest loop compiles to the checks and one histogram increment (pool
  // mode) or one append (per-user mode).
  void Add(const OlhReport& report) {
    FELIP_CHECK(report.hashed_report < g_);
    if (options_.seed_pool_size > 0) {
      FELIP_CHECK_MSG(report.seed_index < options_.seed_pool_size,
                      "report missing pool index in pooled OLH mode");
      ++pool_counts_[static_cast<size_t>(report.seed_index) * g_ +
                     report.hashed_report];
    } else {
      reports_.push_back(report);
    }
    ++num_reports_;
  }

  // Batch ingestion, equivalent to Add() on every report. In pool mode the
  // (seed, y) histogram is accumulated in fixed shards over up to
  // `thread_count` threads (0 = hardware concurrency) and reduced in shard
  // order, so the counts are bit-identical to the serial path for every
  // thread count. In per-user mode reports are validated and appended; the
  // parallel work happens in EstimateFrequencies, which shards the
  // O(n * |D|) support count.
  void AggregateReports(std::span<const OlhReport> reports,
                        unsigned thread_count = 0);

  // Unbiased frequency estimates for all domain values. Support counting
  // is sharded over up to `thread_count` threads (0 = hardware
  // concurrency); supports are integers, so the estimates are identical
  // for every thread count.
  std::vector<double> EstimateFrequencies(unsigned thread_count = 0) const;

  // Unbiased frequency estimate of one value. In per-user mode this is
  // O(n); in pool mode O(K).
  double EstimateValue(uint64_t value) const;

  uint64_t num_reports() const { return num_reports_; }
  uint64_t domain() const { return domain_; }
  uint32_t g() const { return g_; }

  // --- Accumulator persistence (snapshot path) ---
  // Pool mode accumulates only the (seed_index, y) histogram; per-user
  // mode keeps the raw reports. Either is the server's entire accumulator,
  // so restoring it and continuing to Add() is bit-identical to an
  // uninterrupted run.
  const std::vector<uint32_t>& pool_counts() const { return pool_counts_; }
  const std::vector<OlhReport>& reports() const { return reports_; }

  // Replace the accumulator with previously exported state. Callers must
  // validate untrusted input first; mode/size mismatches abort.
  void RestorePoolState(std::vector<uint32_t> pool_counts,
                        uint64_t num_reports);
  void RestoreReports(std::vector<OlhReport> reports);

 private:
  double SupportCount(uint64_t value) const;
  double Debias(double support) const;

  uint64_t domain_;
  OlhOptions options_;
  uint32_t g_;
  double p_;
  uint64_t num_reports_ = 0;
  // Pool mode: histogram over (seed_index, y), size K * g.
  std::vector<uint32_t> pool_counts_;
  // Pool mode: materialized pool seeds.
  std::vector<uint64_t> pool_seeds_;
  // Per-user mode: raw reports.
  std::vector<OlhReport> reports_;
};

}  // namespace felip::fo

#endif  // FELIP_FO_OLH_H_
