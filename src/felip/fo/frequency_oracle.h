// Protocol-agnostic frequency-oracle facade.
//
// The grid-collection code (FELIP core, baselines) only needs "aggregate
// one user's report; later, estimate all frequencies". FrequencyOracle
// wraps a matching client/server pair behind that interface so collectors
// are independent of the protocol AFO selects. The underlying
// client/server classes remain public API for deployments that separate
// the two sides. Create oracles with MakeFrequencyOracle (fo/registry.h).
//
// One ingestion path exists: IngestReports takes a contiguous run of
// already-perturbed, untrusted reports and runs the protocol's checks
// before the server's Add(), report by report. Reports come from the
// network, the replay log or an in-process simulation
// (fo/collection_round.h, which groups reports by grid), and all take this
// path: the pipeline splits what it receives into same-grid runs and gives
// each run to its grid's oracle in one call. One report is a one-element
// span. Invalid input is rejected, never fatal. See docs/aggregation.md.

#ifndef FELIP_FO_FREQUENCY_ORACLE_H_
#define FELIP_FO_FREQUENCY_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

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

  // --- Untrusted-report ingestion ---
  //
  // Aggregates a run of already-perturbed reports, in order, after
  // validating each against this oracle's protocol and domain, and
  // returns how many were accepted. Unlike the server Add() methods (which
  // FELIP_CHECK their input), a report that fails a check — including a
  // report of another protocol — is dropped and not counted, so a service
  // can count and drop bad reports from the network instead of aborting.
  // The reports' grid_index is the caller's business and is not read.
  virtual size_t IngestReports(std::span<const ReportData> reports) = 0;

  // --- Accumulator persistence (snapshot path) ---
  //
  // ExportState copies the server accumulator into a protocol-tagged
  // value; RestoreState replaces the accumulator with a previously
  // exported one. State read back from disk is untrusted even after
  // checksums pass (a snapshot from a different config can be internally
  // consistent but wrong for *this* oracle), so RestoreState validates
  // protocol, shapes, and report ranges and returns kInvalidArgument
  // rather than aborting.
  virtual OracleState ExportState() const = 0;
  virtual Status RestoreState(OracleState state) = 0;

  // Unbiased frequency estimates for all domain values (may be negative).
  // Requires at least one report.
  virtual std::vector<double> EstimateFrequencies() const = 0;

  virtual uint64_t domain() const = 0;
  virtual uint64_t num_reports() const = 0;
  virtual Protocol protocol() const = 0;
};

}  // namespace felip::fo

#endif  // FELIP_FO_FREQUENCY_ORACLE_H_
