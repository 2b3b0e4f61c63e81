// FELIP end-to-end pipeline (Section 5).
//
// The aggregator plans one grid per attribute pair (plus one 1-D grid per
// numerical attribute under OHG), divides the population into one group per
// grid, and sends each user their group's grid configuration. Each user
// projects their record onto the grid, perturbs the cell index with the
// protocol AFO selected for that grid, and reports it. The aggregator
// estimates per-cell frequencies, post-processes (negativity removal +
// cross-grid consistency), builds per-pair response matrices, and answers
// λ-dimensional queries by fitting the associated 2-D answers.
//
// FelipPipeline simulates the whole round trip in-process; FelipClient is
// the device-side piece for real deployments.

#ifndef FELIP_CORE_FELIP_H_
#define FELIP_CORE_FELIP_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "felip/common/rng.h"
#include "felip/common/status.h"
#include "felip/data/dataset.h"
#include "felip/fo/frequency_oracle.h"
#include "felip/fo/registry.h"
#include "felip/grid/grid.h"
#include "felip/grid/optimizer.h"
#include "felip/post/norm_sub.h"
#include "felip/post/response_matrix.h"
#include "felip/query/query.h"

namespace felip::snapshot {
class PipelineCodec;  // serializes pipeline state; see felip/snapshot
}  // namespace felip::snapshot

namespace felip::core {

// Lifecycle of a FelipPipeline (see DESIGN.md). Exactly one state machine
// covers both collection paths:
//
//   kConfigured --BeginIngest()--> kCollecting --FinishIngest()--> kSealed
//                                                                    |
//                                                  Finalize()        v
//                                                                kQueryable
//
// Collect() simulates an entire round in one call: it runs BeginIngest(),
// hands every simulated user's report to IngestReports() and ends with
// FinishIngest(). FromEstimatedGrids and snapshot loads enter
// mid-machine: a finalized snapshot restores kQueryable, a mid-round one
// restores kCollecting. Transitions are enforced with FELIP_CHECK — a
// caller driving the machine out of order is programmer error, not a
// recoverable condition.
enum class PipelineState : uint8_t {
  kConfigured = 0,  // grids planned; no reports yet
  kCollecting = 1,  // oracles live; accepting ingested reports
  kSealed = 2,      // round closed; oracle accumulators final
  kQueryable = 3,   // estimated + post-processed; queries allowed
};

// Stable lowercase name of `state` ("configured", "collecting", ...).
std::string_view PipelineStateName(PipelineState state);

// Options for FelipPipeline::SaveSnapshot.
struct SnapshotOptions {
  // Also persist the post-processed response matrices (kQueryable
  // snapshots only). Off by default: they are derived state and the
  // rebuild on load is deterministic, but persisting them trades snapshot
  // bytes for skipping the IPF fit on warm restart.
  bool include_response_matrices = false;
};

// OUG answers every query from the 2-D grids alone under the within-cell
// uniformity assumption; OHG additionally collects 1-D grids for numerical
// attributes and refines pair estimates through response matrices.
enum class Strategy { kOug, kOhg };

// How the privacy budget is shared across the m grids. FELIP always divides
// users (Theorem 5.1); kDivideBudget is implemented for the A1 ablation.
enum class PartitioningMode { kDivideUsers, kDivideBudget };

struct FelipConfig {
  Strategy strategy = Strategy::kOhg;
  PartitioningMode partitioning = PartitioningMode::kDivideUsers;
  double epsilon = 1.0;
  double alpha1 = 0.7;  // 1-D non-uniformity constant
  double alpha2 = 0.03; // 2-D non-uniformity constant

  // The aggregator's selectivity prior (Section 5.2): the expected fraction
  // of each attribute's domain a query selects. `attribute_selectivity`
  // overrides the default per attribute when non-empty.
  double default_selectivity = 0.5;
  std::vector<double> attribute_selectivity;

  // Protocols AFO may pick per grid. The paper's OUG-OLH / OHG-OLH
  // variants set allow_grr = false. PGR and FLDP are the
  // communication-conscious extension protocols (fo/pgr.h, fo/fldp.h);
  // off by default for paper fidelity.
  bool allow_grr = true;
  bool allow_olh = true;
  bool allow_oue = false;
  bool allow_pgr = false;
  bool allow_fldp = false;

  // Per-report communication budget in wire-body bytes AFO plans under;
  // 0 = unconstrained (pure error minimization).
  uint64_t report_budget_bytes = 0;

  fo::OlhOptions olh_options = {.seed_pool_size = 4096};
  fo::PgrOptions pgr_options;
  fo::FldpOptions fldp_options;

  // The per-protocol options bundle the registry-driven layers (planning,
  // oracle construction, wire configs) consume.
  fo::ProtocolOptions protocol_options() const {
    fo::ProtocolOptions options;
    options.olh = olh_options;
    options.pgr = pgr_options;
    options.fldp = fldp_options;
    return options;
  }

  // Sets the allow flag for `protocol` — the bridge from registry-resolved
  // protocols (e.g. a --protocols=olh,pgr flag) to the candidate set.
  void SetProtocolAllowed(fo::Protocol protocol, bool allowed);
  bool ProtocolAllowed(fo::Protocol protocol) const;

  int consistency_rounds = 3;
  // Negativity-removal variant applied after estimation and between
  // consistency rounds (CALM's design dimension; ablation abl7).
  post::Normalization normalization = post::Normalization::kNormSub;
  post::ResponseMatrixOptions response_matrix_options;
  double lambda_threshold = 1e-7;  // Algorithm 4 convergence
  // Extension: fit all four sign-quadrants per pair (proper IPF over
  // pairwise marginals) instead of the paper's positive-positive-only
  // update. Off by default for paper fidelity; see
  // post::EstimateLambdaQueryQuadrants.
  bool lambda_quadrant_fit = false;

  uint64_t seed = 1;  // drives group assignment and perturbation
};

// How the batch query engine answers the 2-D pair selections a query
// decomposes into (see docs/query_engine.md):
//   * kScan — the reference per-query scan over every refined block,
//     allocating per call. Kept as the baseline the fast paths are pinned
//     against (tests) and measured against (perf_query_engine).
//   * kExact — covered-rectangle scan with per-batch scratch; identical
//     floating-point operation sequence to kScan, so answers are
//     bit-identical for every selection type. The default.
//   * kPrefix — summed-area-table corner lookups for range x range pairs
//     (falls back to kExact for IN sets); agrees with kScan to ~1e-12.
enum class PairAnswerPath { kScan, kExact, kPrefix };

struct QueryBatchOptions {
  PairAnswerPath pair_path = PairAnswerPath::kExact;
};

// One planned grid: which attributes it covers and the optimizer's output.
struct GridAssignment {
  bool is_2d = false;
  uint32_t attr_x = 0;
  uint32_t attr_y = 0;  // unused for 1-D grids
  grid::GridPlan plan;
};

// Device-side FELIP: rebuilds the assigned grid's cell layout from the
// (public) grid configuration and projects the user's private values onto a
// cell index. The cell index is then perturbed with the protocol the plan
// names — GrrClient / OlhClient / OueClient from felip/fo — before leaving
// the device; only the perturbed report is sent to the aggregator.
class FelipClient {
 public:
  // `domain_x` / `domain_y` are the domains of the assigned attributes
  // (`domain_y` is ignored for 1-D assignments).
  FelipClient(const GridAssignment& assignment, uint32_t domain_x,
              uint32_t domain_y = 1);

  // Cell index of the user's record values; `value_y` is ignored for 1-D
  // grids. This is the value to feed the frequency-oracle client.
  uint64_t ProjectToCell(uint32_t value_x, uint32_t value_y = 0) const;

  // The cell domain the frequency oracle perturbs over (lx * ly).
  uint64_t cell_domain() const;

  const grid::Partition1D& px() const { return px_; }
  const grid::Partition1D& py() const { return py_; }
  bool is_2d() const { return is_2d_; }

 private:
  bool is_2d_;
  grid::Partition1D px_;
  grid::Partition1D py_;
};

// The full simulation pipeline (aggregator + simulated user population).
class FelipPipeline {
 public:
  // Plans grids for `schema` assuming `num_users` participants.
  FelipPipeline(std::vector<data::AttributeInfo> schema, uint64_t num_users,
                FelipConfig config);

  // Reconstructs a finalized pipeline from already estimated,
  // post-processed grid frequencies, stored verbatim. The grids must match
  // this configuration's planned layout; response matrices are rebuilt.
  // Snapshots restore through FelipPipeline::LoadSnapshot (the FSNP
  // container) instead, which also keeps the oracle state.
  static FelipPipeline FromEstimatedGrids(
      std::vector<data::AttributeInfo> schema, uint64_t num_users,
      FelipConfig config, std::vector<std::vector<double>> grid_frequencies);

  // Estimated per-grid frequencies in assignment order (1-D grids first).
  // Requires Finalize(); this is what a snapshot persists.
  std::vector<std::vector<double>> ExportGridFrequencies() const;

  // Simulates the LDP collection round: every dataset row is one user,
  // perturbed with its grid's fo::ReportClient and ingested through
  // IngestReports(), so the round ends kSealed with reports_ingested()
  // set. The dataset must match the schema and have exactly `num_users`
  // rows.
  void Collect(const data::Dataset& dataset);

  // Estimation + post-processing + response matrices. Requires Collect().
  void Finalize();

  // --- Networked ingestion (felip/svc) ---
  //
  // Alternative to Collect() for deployments where already-perturbed
  // reports arrive over a transport instead of being simulated in-process.
  // BeginIngest() builds the per-grid oracles at the per-grid budget
  // (kConfigured -> kCollecting); IngestReports() / IngestReport()
  // validate reports against `grid_index`'s planned protocol and domain,
  // dropping any out-of-range or mismatched input (network bytes are
  // untrusted — never fatal); FinishIngest() closes the round
  // (-> kSealed) so Finalize() can run. Aggregation is integer-count
  // based, so the estimates depend only on the multiset of accepted
  // reports, never on arrival order or batching.
  void BeginIngest();
  // Hands a run of reports that all name `grid_index` to that grid's
  // oracle, which accepts only its own protocol, and returns how many it
  // accepted (none when the grid is not planned). The state and the grid
  // index are checked once per run. Callers (sinks, the replay engine)
  // never branch on the protocol.
  size_t IngestReports(uint32_t grid_index,
                       std::span<const fo::ReportData* const> reports);
  // One report, with the reason when it is rejected (kInvalidArgument).
  Status IngestReport(uint32_t grid_index, const fo::ReportData& report);
  void FinishIngest();
  // Reports accepted since BeginIngest() (Collect() included), plus the
  // report totals of merged shards; equals the summed num_reports of the
  // oracles in kCollecting and kSealed.
  uint64_t reports_ingested() const { return reports_ingested_; }

  // Smallest per-grid report count across the live oracles, or 0 before
  // they exist (kConfigured). Estimation debiases by each grid's own n,
  // so a round is only sealable once every grid has at least one report;
  // clock-driven epoch cuts poll this before rotating.
  uint64_t min_grid_reports() const;

  // --- Distributed aggregation (felip/dist) ---
  //
  // Folds one shard's per-grid accumulators into this pipeline's live
  // oracles. `states` must carry one entry per planned grid in assignment
  // order, and `reports_ingested` must equal the summed report counts of
  // those entries — the cross-check every accumulator frame carries.
  // Requires kCollecting (BeginIngest first). Because aggregation is
  // integer-count based, merging N shards in any order is bit-identical
  // to ingesting the union of their report multisets directly.
  //
  // Shard state arrives over the network, so shape/range violations
  // return kInvalidArgument instead of aborting; validation runs for all
  // grids before any oracle is mutated, but a RestoreState failure after
  // that point (theoretically unreachable for states that passed the
  // shape checks) leaves the pipeline partially merged — callers must
  // discard the round on any non-OK status.
  Status MergeAccumulators(std::vector<fo::OracleState> states,
                           uint64_t reports_ingested);

  // --- Crash-safe persistence (felip/snapshot) ---
  //
  // Declared here but defined in the felip_snapshot library so core never
  // depends on the snapshot format; linking felip::felip (or
  // felip_snapshot) provides them.
  //
  // SaveSnapshot atomically writes the pipeline's full state — config,
  // schema, and either live oracle accumulators (kCollecting / kSealed)
  // or post-processed grid frequencies (kQueryable) — to `path`.
  // LoadSnapshot verifies and decodes `path` and reconstructs a pipeline
  // in the state the snapshot captured; restoring a mid-round snapshot
  // and continuing ingestion is bit-identical to never having stopped.
  Status SaveSnapshot(const std::string& path,
                      const SnapshotOptions& options = {}) const;
  static StatusOr<FelipPipeline> LoadSnapshot(const std::string& path);

  // The privacy budget each grid's oracle runs at (epsilon, or epsilon/m
  // when dividing budget). Device-side code needs this to construct
  // matching frequency-oracle clients.
  double per_grid_epsilon() const { return per_grid_epsilon_; }

  // Estimated fractional answer of a λ-dimensional query, in [0, 1].
  // Predicates must be within the schema's domains (ValidateQuery) —
  // out-of-domain predicates are programmer error in-process and fatal;
  // the networked query service rejects them with an error response
  // instead. Requires Finalize().
  double AnswerQuery(const query::Query& query) const;

  // Batch variant: answers every query on the calling thread with one
  // reusable scratch, fitting the λ >= 3 queries of each λ in one
  // Algorithm 4 kernel call (docs/query_engine.md). answers[i] is
  // bit-identical to AnswerQuery(queries[i]) under the default kExact
  // path. Requires Finalize().
  std::vector<double> AnswerQueries(std::span<const query::Query> queries,
                                    const QueryBatchOptions& options = {})
      const;

  // Post-processed marginal distribution of `attr` over its full domain
  // (length = domain, non-negative, sums to ~1). Uses the attribute's 1-D
  // grid under OHG, else the refined pair response matrix. Requires
  // Finalize().
  std::vector<double> EstimateMarginal(uint32_t attr) const;

  // Refined joint distribution of the attribute pair (i, j), i != j, as a
  // dense d_i x d_j row-major matrix. Requires Finalize().
  std::vector<double> EstimateJoint(uint32_t i, uint32_t j) const;

  // --- Introspection (examples, benches, tests) ---
  const std::vector<data::AttributeInfo>& schema() const { return schema_; }
  const FelipConfig& config() const { return config_; }
  uint64_t num_users() const { return num_users_; }
  const std::vector<GridAssignment>& assignments() const {
    return assignments_;
  }
  uint64_t num_groups() const { return assignments_.size(); }
  const std::vector<grid::Grid1D>& grids_1d() const { return grids_1d_; }
  const std::vector<grid::Grid2D>& grids_2d() const { return grids_2d_; }
  PipelineState state() const { return state_; }
  // Deprecated shim over state(); prefer state() == kQueryable.
  bool finalized() const { return state_ == PipelineState::kQueryable; }

 private:
  friend class felip::snapshot::PipelineCodec;

  // Asserts the machine is in `expected` before an operation named `op`.
  void ExpectState(PipelineState expected, const char* op) const;
  // Index of the 2-D grid for pair (i, j), i < j.
  size_t PairGridIndex(uint32_t i, uint32_t j) const;
  // Pointer to the 1-D grid of `attr`, or nullptr.
  const grid::Grid1D* OneDimGrid(uint32_t attr) const;
  // Builds every pair's response matrix (Algorithm 3) from the
  // post-processed grids: Finalize, FromEstimatedGrids and a snapshot
  // load without stored matrices all run this.
  void BuildResponseMatrices();
  // Per-axis selection for `attr` in `query` (whole domain when absent).
  grid::AxisSelection SelectionFor(const query::Query& query,
                                   uint32_t attr) const;
  // Estimated answer of the 2-D query restricted to pair (i, j), i < j.
  double AnswerPair(uint32_t i, uint32_t j, const grid::AxisSelection& sel_i,
                    const grid::AxisSelection& sel_j, PairAnswerPath path,
                    post::QueryScratch* rm_scratch) const;
  double AnswerMarginal(uint32_t attr, const grid::AxisSelection& sel,
                        PairAnswerPath path,
                        post::QueryScratch* rm_scratch) const;
  // Shared answering core of AnswerQuery and AnswerQueries: writes
  // answers[i] for queries[i]. Validation and obs accounting happen in
  // the public entry points.
  void AnswerBatch(std::span<const query::Query> queries,
                   PairAnswerPath path, std::span<double> answers) const;

  std::vector<data::AttributeInfo> schema_;
  uint64_t num_users_;
  FelipConfig config_;
  double per_grid_epsilon_;  // epsilon, or epsilon/m when dividing budget

  std::vector<GridAssignment> assignments_;
  std::vector<grid::Grid1D> grids_1d_;
  std::vector<grid::Grid2D> grids_2d_;
  // grid index (into assignments_) -> oracle; built at BeginIngest.
  std::vector<std::unique_ptr<fo::FrequencyOracle>> oracles_;
  // attr -> index into grids_1d_, or -1.
  std::vector<int> one_dim_index_;
  // pair order index -> index into grids_2d_ (identity, kept for clarity).
  std::vector<post::ResponseMatrix> response_matrices_;
  PipelineState state_ = PipelineState::kConfigured;
  uint64_t reports_ingested_ = 0;
};

// Convenience: run plan + collect + finalize in one call.
FelipPipeline RunFelip(const data::Dataset& dataset, FelipConfig config);

// Chained xxHash64 over every exported grid frequency, in assignment
// order. This is THE fingerprint of a finalized pipeline's estimates:
// felip_server prints it after a live round and felip_replay prints it
// after replaying a report log, so replay-vs-live (and resumed-vs-
// uninterrupted) runs can be compared bit for bit. Requires kQueryable.
uint64_t GridFrequencyDigest(const FelipPipeline& pipeline);

// Prints that fingerprint as felip_server and felip_replay print it:
// attribute 0's marginal head (%.17g round-trips doubles exactly), then
// the GridFrequencyDigest. Requires kQueryable.
void PrintFingerprint(const FelipPipeline& pipeline, std::FILE* out);

}  // namespace felip::core

#endif  // FELIP_CORE_FELIP_H_
