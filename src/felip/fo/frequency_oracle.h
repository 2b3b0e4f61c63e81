// Protocol-agnostic frequency-oracle facade.
//
// The grid-collection code (FELIP core, baselines) only needs "aggregate
// one user's report; later, estimate all frequencies". FrequencyOracle
// wraps a matching client/server pair behind that interface so collectors
// are independent of the protocol AFO selects. The underlying
// client/server classes remain public API for deployments that separate
// the two sides. Create oracles with MakeFrequencyOracle (fo/registry.h).
//
// Two ingestion paths exist:
//   * IngestReports / IngestReport — already-perturbed, untrusted reports
//     (the network and replay paths). Service sinks sort each decoded
//     frame by grid and hand every grid's oracle its run of reports in one
//     IngestReports call, a tight check-then-Add loop; IngestReport is the
//     one-report form with the same checks. Invalid input is rejected,
//     never fatal.
//   * BufferUserValue + FlushReports — in-process simulation: perturb with
//     the user's rng and park the report in a buffer; FlushReports hands
//     the whole buffer to the server's sharded AggregateReports, which
//     spreads the accumulation over threads with fixed shard boundaries
//     and an ordered reduction, so estimates are bit-identical to the
//     serial path for every thread count. See docs/aggregation.md.

#ifndef FELIP_FO_FREQUENCY_ORACLE_H_
#define FELIP_FO_FREQUENCY_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "felip/common/rng.h"
#include "felip/common/status.h"
#include "felip/fo/protocol.h"
#include "felip/fo/report.h"

namespace felip::fo {

// Serializable accumulator state of one oracle, as exported by
// FrequencyOracle::ExportState. Only the fields matching the oracle's
// protocol (and, for OLH, its seed mode) are populated. Everything here is
// integer counts or raw reports — state whose value is independent of the
// order reports arrived in — which is what makes restore-and-continue
// bit-identical to an uninterrupted run.
//
// The fields are generic shapes, not per-protocol slots: GRR and OUE use
// `counts` as per-value (per-bit) counts, PGR uses `counts` as its
// point-index histogram, FLDP uses `counts` for (pool, slot) set-bit
// counts plus `pool_counts` for per-pool coverage, and OLH uses
// `pool_counts` (pool mode) or `reports` (per-user mode). New protocols
// whose accumulator is integer count vectors need no codec changes.
struct OracleState {
  Protocol protocol = Protocol::kGrr;
  uint64_t num_reports = 0;
  std::vector<uint64_t> counts;       // per-value / per-point / per-slot
  std::vector<uint32_t> pool_counts;  // OLH pool (seed, y); FLDP coverage
  std::vector<OlhReport> reports;     // OLH per-user mode: raw reports
};

// Folds `from` into `into` so the result equals the state of a single
// oracle that aggregated both report multisets. This is the algebra the
// distributed tier (felip/dist) is built on: every field of OracleState is
// either an integer count vector (added elementwise) or a raw report list
// (concatenated), so merging is associative and commutative up to the
// report-list order — which estimation never observes. Both operands must
// come from oracles planned identically (same protocol, domain, OLH seed
// mode); a shape mismatch returns kInvalidArgument and leaves `into`
// unchanged, as does a pool-count overflow past uint32_t.
Status MergeOracleState(OracleState* into, const OracleState& from);

class FrequencyOracle {
 public:
  virtual ~FrequencyOracle() = default;

  // Perturbs `value` with the user's `rng` and parks the perturbed report
  // in a buffer instead of aggregating it.
  virtual void BufferUserValue(uint64_t value, Rng& rng) = 0;

  // Aggregates all buffered reports with the server's sharded parallel
  // path over up to `thread_count` threads (0 = hardware concurrency, 1 =
  // serial) and clears the buffer. Estimates are identical for every
  // thread count.
  virtual void FlushReports(unsigned thread_count = 0) = 0;

  // Reports buffered but not yet flushed.
  virtual size_t buffered_reports() const = 0;

  // --- Untrusted-report ingestion (network path) ---
  //
  // Aggregates one already-perturbed report after validating it against
  // this oracle's protocol and domain. Unlike the server Add() methods
  // (which FELIP_CHECK their input), this returns kInvalidArgument on
  // invalid input — including a report of another protocol — so a service
  // can count and drop bad reports from the network instead of aborting.
  virtual Status IngestReport(const ReportData& report) = 0;

  // Aggregates a run of reports, in order, as IngestReport would one at a
  // time: each report passes the same checks or is dropped. Returns how
  // many were accepted.
  virtual size_t IngestReports(std::span<const ReportData* const> reports) = 0;

  // --- Accumulator persistence (snapshot path) ---
  //
  // ExportState copies the server accumulator into a protocol-tagged
  // value; RestoreState replaces the accumulator with a previously
  // exported one. State read back from disk is untrusted even after
  // checksums pass (a snapshot from a different config can be internally
  // consistent but wrong for *this* oracle), so RestoreState validates
  // protocol, shapes, and report ranges and returns kInvalidArgument
  // rather than aborting. Restoring over unflushed buffered reports
  // returns kFailedPrecondition.
  virtual OracleState ExportState() const = 0;
  virtual Status RestoreState(OracleState state) = 0;

  // Unbiased frequency estimates for all domain values (may be negative).
  // Returns kFailedPrecondition while reports are buffered but unflushed
  // (call FlushReports first); `thread_count` bounds the threads used by
  // protocols that parallelize estimation.
  virtual StatusOr<std::vector<double>> EstimateFrequencies(
      unsigned thread_count = 0) const = 0;

  virtual uint64_t domain() const = 0;
  virtual uint64_t num_reports() const = 0;
  virtual Protocol protocol() const = 0;
};

}  // namespace felip::fo

#endif  // FELIP_FO_FREQUENCY_ORACLE_H_
