#include "felip/core/felip.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <limits>

#include "felip/common/check.h"
#include "felip/common/hash.h"
#include "felip/common/numeric.h"
#include "felip/fo/collection_round.h"
#include "felip/obs/metrics.h"
#include "felip/obs/trace.h"
#include "felip/post/consistency.h"
#include "felip/post/lambda_estimator.h"
#include "felip/post/norm_sub.h"

namespace felip::core {

namespace {

using data::AttributeInfo;
using grid::AxisSelection;
using grid::Grid1D;
using grid::Grid2D;
using grid::Partition1D;

bool IsNumerical(const AttributeInfo& info) {
  return !info.categorical && info.domain > 1;
}

}  // namespace

void FelipConfig::SetProtocolAllowed(fo::Protocol protocol, bool allowed) {
  if (protocol == fo::Protocol::kGrr) {
    allow_grr = allowed;
  } else if (protocol == fo::Protocol::kOlh) {
    allow_olh = allowed;
  } else if (protocol == fo::Protocol::kOue) {
    allow_oue = allowed;
  } else if (protocol == fo::Protocol::kPgr) {
    allow_pgr = allowed;
  } else {
    FELIP_CHECK(protocol == fo::Protocol::kFldp);
    allow_fldp = allowed;
  }
}

bool FelipConfig::ProtocolAllowed(fo::Protocol protocol) const {
  if (protocol == fo::Protocol::kGrr) return allow_grr;
  if (protocol == fo::Protocol::kOlh) return allow_olh;
  if (protocol == fo::Protocol::kOue) return allow_oue;
  if (protocol == fo::Protocol::kPgr) return allow_pgr;
  FELIP_CHECK(protocol == fo::Protocol::kFldp);
  return allow_fldp;
}

std::string_view PipelineStateName(PipelineState state) {
  switch (state) {
    case PipelineState::kConfigured:
      return "configured";
    case PipelineState::kCollecting:
      return "collecting";
    case PipelineState::kSealed:
      return "sealed";
    case PipelineState::kQueryable:
      return "queryable";
  }
  return "unknown";
}

void FelipPipeline::ExpectState(PipelineState expected,
                                const char* op) const {
  if (state_ == expected) return;
  std::fprintf(stderr,
               "FELIP pipeline lifecycle violation: %s requires state "
               "'%.*s' but the pipeline is '%.*s'\n",
               op,
               static_cast<int>(PipelineStateName(expected).size()),
               PipelineStateName(expected).data(),
               static_cast<int>(PipelineStateName(state_).size()),
               PipelineStateName(state_).data());
  FELIP_CHECK_MSG(false, "pipeline lifecycle violation");
}

FelipClient::FelipClient(const GridAssignment& assignment, uint32_t domain_x,
                         uint32_t domain_y)
    : is_2d_(assignment.is_2d),
      px_(domain_x, assignment.plan.lx),
      py_(assignment.is_2d ? domain_y : 1,
          assignment.is_2d ? assignment.plan.ly : 1) {}

uint64_t FelipClient::ProjectToCell(uint32_t value_x,
                                    uint32_t value_y) const {
  const uint32_t cx = px_.CellOf(value_x);
  if (!is_2d_) return cx;
  return static_cast<uint64_t>(cx) * py_.num_cells() + py_.CellOf(value_y);
}

uint64_t FelipClient::cell_domain() const {
  return static_cast<uint64_t>(px_.num_cells()) * py_.num_cells();
}

FelipPipeline::FelipPipeline(std::vector<AttributeInfo> schema,
                             uint64_t num_users, FelipConfig config)
    : schema_(std::move(schema)), num_users_(num_users),
      config_(std::move(config)) {
  FELIP_CHECK(!schema_.empty());
  FELIP_CHECK(num_users_ > 0);
  FELIP_CHECK(config_.epsilon > 0.0);
  const auto k = static_cast<uint32_t>(schema_.size());

  // Response-matrix convergence: paper recommends < 1/n.
  config_.response_matrix_options.threshold =
      std::min(config_.response_matrix_options.threshold,
               1.0 / static_cast<double>(num_users_));

  // --- Step 1: decide the grid set and the number of groups m. ---
  one_dim_index_.assign(k, -1);
  uint32_t num_one_dim = 0;
  if (k == 1) {
    num_one_dim = 1;
    one_dim_index_[0] = 0;
  } else if (config_.strategy == Strategy::kOhg) {
    for (uint32_t a = 0; a < k; ++a) {
      if (IsNumerical(schema_[a])) one_dim_index_[a] = num_one_dim++;
    }
  }
  const uint64_t num_pairs = k >= 2 ? Choose2(k) : 0;
  const uint64_t m = num_one_dim + num_pairs;
  FELIP_CHECK(m >= 1);

  // Budget division (A1 ablation): every user reports every grid with
  // eps/m, so each grid sees all n reports (optimizer group factor 1).
  const bool divide_users =
      config_.partitioning == PartitioningMode::kDivideUsers;
  per_grid_epsilon_ =
      divide_users ? config_.epsilon
                   : config_.epsilon / static_cast<double>(m);

  const auto selectivity_of = [&](uint32_t attr) {
    if (attr < config_.attribute_selectivity.size()) {
      return config_.attribute_selectivity[attr];
    }
    return config_.default_selectivity;
  };

  grid::OptimizeParams base_params;
  base_params.epsilon = per_grid_epsilon_;
  base_params.n = num_users_;
  base_params.m = divide_users ? m : 1;
  base_params.alpha1 = config_.alpha1;
  base_params.alpha2 = config_.alpha2;
  base_params.allow_grr = config_.allow_grr;
  base_params.allow_olh = config_.allow_olh;
  base_params.allow_oue = config_.allow_oue;
  base_params.allow_pgr = config_.allow_pgr;
  base_params.allow_fldp = config_.allow_fldp;
  base_params.report_budget_bytes = config_.report_budget_bytes;
  base_params.protocol_options = config_.protocol_options();

  // --- Step 2: per-grid size optimization + AFO protocol selection. ---
  // 1-D grids first (matching grids_1d_ order), then pairs in
  // lexicographic order (matching grids_2d_ order).
  for (uint32_t a = 0; a < k; ++a) {
    if (one_dim_index_[a] < 0) continue;
    grid::OptimizeParams params = base_params;
    params.rx = selectivity_of(a);
    const grid::AxisSpec axis{schema_[a].domain, schema_[a].categorical};
    GridAssignment assignment;
    assignment.is_2d = false;
    assignment.attr_x = a;
    assignment.plan = grid::Optimize1D(axis, params);
    assignments_.push_back(assignment);
    grids_1d_.emplace_back(a, Partition1D(schema_[a].domain,
                                          assignment.plan.lx));
  }
  for (uint32_t i = 0; i < k; ++i) {
    for (uint32_t j = i + 1; j < k; ++j) {
      grid::OptimizeParams params = base_params;
      params.rx = selectivity_of(i);
      params.ry = selectivity_of(j);
      const grid::AxisSpec x{schema_[i].domain, schema_[i].categorical};
      const grid::AxisSpec y{schema_[j].domain, schema_[j].categorical};
      GridAssignment assignment;
      assignment.is_2d = true;
      assignment.attr_x = i;
      assignment.attr_y = j;
      assignment.plan = grid::Optimize2D(x, y, params);
      assignments_.push_back(assignment);
      grids_2d_.emplace_back(i, j,
                             Partition1D(schema_[i].domain,
                                         assignment.plan.lx),
                             Partition1D(schema_[j].domain,
                                         assignment.plan.ly));
    }
  }
  FELIP_CHECK(assignments_.size() == m);
}

FelipPipeline FelipPipeline::FromEstimatedGrids(
    std::vector<data::AttributeInfo> schema, uint64_t num_users,
    FelipConfig config, std::vector<std::vector<double>> grid_frequencies) {
  FelipPipeline pipeline(std::move(schema), num_users, std::move(config));
  FELIP_CHECK_MSG(grid_frequencies.size() == pipeline.assignments_.size(),
                  "snapshot grid count does not match the planned layout");
  const size_t n1 = pipeline.grids_1d_.size();
  for (size_t g = 0; g < grid_frequencies.size(); ++g) {
    if (g < n1) {
      pipeline.grids_1d_[g].SetFrequencies(std::move(grid_frequencies[g]));
    } else {
      pipeline.grids_2d_[g - n1].SetFrequencies(
          std::move(grid_frequencies[g]));
    }
  }
  // Response matrices are derived state: rebuild rather than persist.
  pipeline.BuildResponseMatrices();
  pipeline.state_ = PipelineState::kQueryable;
  return pipeline;
}

std::vector<std::vector<double>> FelipPipeline::ExportGridFrequencies()
    const {
  ExpectState(PipelineState::kQueryable, "ExportGridFrequencies()");
  std::vector<std::vector<double>> result;
  result.reserve(assignments_.size());
  for (const Grid1D& g : grids_1d_) result.push_back(g.frequencies());
  for (const Grid2D& g : grids_2d_) result.push_back(g.frequencies());
  return result;
}

void FelipPipeline::Collect(const data::Dataset& dataset) {
  obs::ScopedTimer span("felip_core_collect");
  ExpectState(PipelineState::kConfigured, "Collect()");
  FELIP_CHECK(dataset.num_attributes() == schema_.size());
  FELIP_CHECK_MSG(dataset.num_rows() == num_users_,
                  "dataset size must match the planned population");
  for (uint32_t a = 0; a < dataset.num_attributes(); ++a) {
    FELIP_CHECK(dataset.attribute(a).domain == schema_[a].domain);
  }
  BeginIngest();

  const size_t n1 = grids_1d_.size();
  const auto cell_of = [&](size_t g, uint64_t row) -> uint64_t {
    const GridAssignment& assignment = assignments_[g];
    if (!assignment.is_2d) {
      return grids_1d_[g].CellOf(dataset.Value(row, assignment.attr_x));
    }
    const Grid2D& grid = grids_2d_[g - n1];
    return grid.CellOf(dataset.Value(row, assignment.attr_x),
                       dataset.Value(row, assignment.attr_y));
  };

  // Each user's device is the grid's report client; its reports reach
  // the oracles through IngestReports, like reports off the wire. The
  // round is one serial pass: the rng trajectory defines the simulated
  // population and must not depend on thread count.
  const size_t m = assignments_.size();
  const fo::ProtocolOptions options = config_.protocol_options();
  std::vector<std::unique_ptr<fo::ReportClient>> clients;
  clients.reserve(m);
  for (size_t g = 0; g < m; ++g) {
    const grid::GridPlan& plan = assignments_[g].plan;
    clients.push_back(fo::MakeReportClient(
        plan.protocol, per_grid_epsilon_,
        static_cast<uint64_t>(plan.lx) * plan.ly, options));
  }
  std::vector<const fo::ReportData*> run;
  fo::RunCollectionRound(
      config_.seed, dataset.num_rows(),
      config_.partitioning == PartitioningMode::kDivideBudget, clients,
      /*batch_size=*/1024, cell_of,
      [&](const std::vector<std::vector<fo::ReportData>>& runs,
          const std::vector<size_t>& counts) {
        for (uint32_t g = 0; g < runs.size(); ++g) {
          run.clear();
          for (size_t k = 0; k < counts[g]; ++k) run.push_back(&runs[g][k]);
          FELIP_CHECK_MSG(IngestReports(g, run) == run.size(),
                          "an oracle rejected a report its own client "
                          "perturbed");
        }
        return true;
      });
  FinishIngest();
}

void FelipPipeline::BeginIngest() {
  ExpectState(PipelineState::kConfigured, "BeginIngest()");
  // One oracle per grid, at the per-grid budget.
  oracles_.clear();
  for (const GridAssignment& assignment : assignments_) {
    const uint64_t domain =
        static_cast<uint64_t>(assignment.plan.lx) * assignment.plan.ly;
    oracles_.push_back(fo::MakeFrequencyOracle(assignment.plan.protocol,
                                               per_grid_epsilon_, domain,
                                               config_.protocol_options()));
  }
  reports_ingested_ = 0;
  state_ = PipelineState::kCollecting;
}

size_t FelipPipeline::IngestReports(
    uint32_t grid_index, std::span<const fo::ReportData* const> reports) {
  ExpectState(PipelineState::kCollecting, "IngestReports()");
  if (grid_index >= oracles_.size()) return 0;
  const size_t accepted = oracles_[grid_index]->IngestReports(reports);
  reports_ingested_ += accepted;
  return accepted;
}

Status FelipPipeline::IngestReport(uint32_t grid_index,
                                   const fo::ReportData& report) {
  ExpectState(PipelineState::kCollecting, "IngestReport()");
  if (grid_index >= oracles_.size()) {
    return Status::InvalidArgument("report names a grid that is not planned");
  }
  FELIP_RETURN_IF_ERROR(oracles_[grid_index]->IngestReport(report));
  ++reports_ingested_;
  return Status::Ok();
}

uint64_t FelipPipeline::min_grid_reports() const {
  if (oracles_.empty()) return 0;
  uint64_t min = std::numeric_limits<uint64_t>::max();
  for (const std::unique_ptr<fo::FrequencyOracle>& oracle : oracles_) {
    const uint64_t n = oracle == nullptr ? 0 : oracle->num_reports();
    min = std::min(min, n);
  }
  return min;
}

Status FelipPipeline::MergeAccumulators(std::vector<fo::OracleState> states,
                                        uint64_t reports_ingested) {
  ExpectState(PipelineState::kCollecting, "MergeAccumulators()");
  if (states.size() != oracles_.size()) {
    return Status::InvalidArgument(
        "accumulator set does not match the planned grid layout");
  }
  uint64_t total = 0;
  for (const fo::OracleState& state : states) total += state.num_reports;
  if (total != reports_ingested) {
    return Status::InvalidArgument(
        "accumulator report counts disagree with the frame total");
  }
  // Merge into exported copies first so every shape check runs before any
  // oracle is touched; RestoreState then re-validates the merged state
  // (protocol, domain, report ranges) exactly like a snapshot load.
  std::vector<fo::OracleState> merged(states.size());
  for (size_t g = 0; g < states.size(); ++g) {
    merged[g] = oracles_[g]->ExportState();
    FELIP_RETURN_IF_ERROR(fo::MergeOracleState(&merged[g], states[g]));
  }
  for (size_t g = 0; g < merged.size(); ++g) {
    FELIP_RETURN_IF_ERROR(oracles_[g]->RestoreState(std::move(merged[g])));
  }
  reports_ingested_ += reports_ingested;
  obs::Registry::Default()
      .GetCounter("felip_core_accumulator_merges_total")
      .Increment();
  return Status::Ok();
}

void FelipPipeline::FinishIngest() {
  ExpectState(PipelineState::kCollecting, "FinishIngest()");
  state_ = PipelineState::kSealed;
  obs::Registry::Default()
      .GetCounter("felip_core_reports_total")
      .Increment(reports_ingested_);
}

void FelipPipeline::Finalize() {
  obs::ScopedTimer span("felip_core_finalize");
  ExpectState(PipelineState::kSealed, "Finalize()");

  // Estimation + per-grid negativity removal.
  const size_t n1 = grids_1d_.size();
  uint64_t cells_estimated = 0;
  {
    obs::ScopedTimer estimate_span("felip_core_estimate");
    for (size_t g = 0; g < assignments_.size(); ++g) {
      std::vector<double> freq = oracles_[g]->EstimateFrequencies();
      post::NormalizeFrequencies(&freq, config_.normalization);
      cells_estimated += freq.size();
      if (!assignments_[g].is_2d) {
        grids_1d_[g].SetFrequencies(std::move(freq));
      } else {
        grids_2d_[g - n1].SetFrequencies(std::move(freq));
      }
    }
  }
  oracles_.clear();  // reports are no longer needed
  obs::Registry::Default()
      .GetCounter("felip_core_cells_estimated_total")
      .Increment(cells_estimated);

  // Cross-grid consistency (ends with a negativity pass).
  {
    obs::ScopedTimer post_span("felip_core_post_process");
    post::MakeConsistent(static_cast<uint32_t>(schema_.size()), &grids_1d_,
                         &grids_2d_,
                         {.rounds = config_.consistency_rounds,
                          .normalization = config_.normalization});
  }

  {
    obs::ScopedTimer rm_span("felip_core_response_matrix");
    BuildResponseMatrices();
  }
  state_ = PipelineState::kQueryable;
}

void FelipPipeline::BuildResponseMatrices() {
  // One matrix per pair (Γ includes the 1-D grids under OHG), on the
  // calling thread: threads started per call cost every round CPU time
  // (docs/aggregation.md).
  response_matrices_.clear();
  response_matrices_.reserve(grids_2d_.size());
  for (const Grid2D& g2 : grids_2d_) {
    response_matrices_.push_back(post::ResponseMatrix::Build(
        g2, OneDimGrid(g2.attr_x()), OneDimGrid(g2.attr_y()),
        config_.response_matrix_options));
  }
}

size_t FelipPipeline::PairGridIndex(uint32_t i, uint32_t j) const {
  FELIP_CHECK(i < j);
  const auto k = static_cast<uint32_t>(schema_.size());
  FELIP_CHECK(j < k);
  return static_cast<size_t>(PairRank(i, j, k));
}

const Grid1D* FelipPipeline::OneDimGrid(uint32_t attr) const {
  FELIP_CHECK(attr < one_dim_index_.size());
  const int idx = one_dim_index_[attr];
  return idx < 0 ? nullptr : &grids_1d_[static_cast<size_t>(idx)];
}

AxisSelection FelipPipeline::SelectionFor(const query::Query& query,
                                          uint32_t attr) const {
  const query::Predicate* p = query.FindPredicate(attr);
  if (p == nullptr) return AxisSelection::MakeAll(schema_[attr].domain);
  return p->ToSelection();
}

double FelipPipeline::AnswerPair(uint32_t i, uint32_t j,
                                 const AxisSelection& sel_i,
                                 const AxisSelection& sel_j,
                                 PairAnswerPath path,
                                 post::QueryScratch* rm_scratch) const {
  const post::ResponseMatrix& m = response_matrices_[PairGridIndex(i, j)];
  switch (path) {
    case PairAnswerPath::kScan:
      return m.Answer(sel_i, sel_j);
    case PairAnswerPath::kExact:
      return m.AnswerExact(sel_i, sel_j, rm_scratch);
    case PairAnswerPath::kPrefix:
      return m.AnswerPrefix(sel_i, sel_j, rm_scratch);
  }
  FELIP_CHECK_MSG(false, "unreachable");
  return 0.0;
}

double FelipPipeline::AnswerMarginal(uint32_t attr, const AxisSelection& sel,
                                     PairAnswerPath path,
                                     post::QueryScratch* rm_scratch) const {
  const Grid1D* g1 = OneDimGrid(attr);
  if (g1 != nullptr) return g1->Answer(sel);
  // Marginalize the first response matrix containing the attribute.
  FELIP_CHECK_MSG(schema_.size() >= 2, "no grid covers the attribute");
  const uint32_t partner = attr == 0 ? 1 : 0;
  const uint32_t i = std::min(attr, partner);
  const uint32_t j = std::max(attr, partner);
  const AxisSelection all = AxisSelection::MakeAll(schema_[partner].domain);
  return attr < partner ? AnswerPair(i, j, sel, all, path, rm_scratch)
                        : AnswerPair(i, j, all, sel, path, rm_scratch);
}

void FelipPipeline::AnswerBatch(std::span<const query::Query> queries,
                                PairAnswerPath path,
                                std::span<double> answers) const {
  // Step 1: answer λ <= 2 queries directly, and write the pair answers
  // (and marginals, under quadrant fit) of every λ >= 3 query into its
  // λ's group.
  struct LambdaGroup {
    std::vector<size_t> queries;       // positions in the batch
    std::vector<double> pair_answers;  // C(λ,2) per query, PairIndex order
    std::vector<double> marginals;     // λ per query, quadrant fit only
  };
  std::vector<LambdaGroup> groups;
  post::QueryScratch rm_scratch;
  std::vector<uint32_t> attrs;
  std::vector<AxisSelection> selections;
  for (size_t q = 0; q < queries.size(); ++q) {
    const query::Query& query = queries[q];
    const uint32_t lambda = query.dimension();
    if (lambda == 1) {
      const query::Predicate& p = query.predicates()[0];
      answers[q] = std::clamp(
          AnswerMarginal(p.attr, p.ToSelection(), path, &rm_scratch), 0.0,
          1.0);
      continue;
    }
    // Per-query-attribute selections (predicates are sorted by attribute).
    attrs.clear();
    selections.clear();
    for (const query::Predicate& p : query.predicates()) {
      attrs.push_back(p.attr);
      selections.push_back(p.ToSelection());
    }
    if (lambda == 2) {
      answers[q] = std::clamp(AnswerPair(attrs[0], attrs[1], selections[0],
                                         selections[1], path, &rm_scratch),
                              0.0, 1.0);
      continue;
    }
    if (groups.size() <= lambda) groups.resize(lambda + 1);
    LambdaGroup& group = groups[lambda];
    group.queries.push_back(q);
    for (uint32_t a = 0; a < lambda; ++a) {
      for (uint32_t b = a + 1; b < lambda; ++b) {
        group.pair_answers.push_back(AnswerPair(attrs[a], attrs[b],
                                                selections[a], selections[b],
                                                path, &rm_scratch));
      }
    }
    if (config_.lambda_quadrant_fit) {
      for (uint32_t a = 0; a < lambda; ++a) {
        group.marginals.push_back(std::clamp(
            AnswerMarginal(attrs[a], selections[a], path, &rm_scratch), 0.0,
            1.0));
      }
    }
  }

  // Step 2: one Algorithm 4 kernel call per λ. Step 3: the proportional
  // fit can overshoot [0, 1] by floating-point rounding, so its answers
  // are clamped like the λ = 1 and λ = 2 paths.
  post::LambdaEstimatorOptions options;
  options.threshold = std::min(config_.lambda_threshold,
                               1.0 / static_cast<double>(num_users_));
  for (uint32_t lambda = 3; lambda < groups.size(); ++lambda) {
    const LambdaGroup& group = groups[lambda];
    if (group.queries.empty()) continue;
    const std::vector<double> estimates = post::EstimateLambdaQueries(
        lambda, group.pair_answers, group.marginals, options);
    for (size_t i = 0; i < group.queries.size(); ++i) {
      answers[group.queries[i]] = std::clamp(estimates[i], 0.0, 1.0);
    }
  }
}

double FelipPipeline::AnswerQuery(const query::Query& query) const {
  obs::ScopedTimer span("felip_core_query");
  static obs::Counter& queries_total =
      obs::Registry::Default().GetCounter("felip_core_queries_total");
  queries_total.Increment();
  ExpectState(PipelineState::kQueryable, "AnswerQuery()");
  if (const auto error = query::ValidateQuery(query, schema_)) {
    FELIP_CHECK_MSG(false, error->c_str());
  }
  double answer = 0.0;
  AnswerBatch(std::span<const query::Query>(&query, 1),
              PairAnswerPath::kExact, std::span<double>(&answer, 1));
  return answer;
}

std::vector<double> FelipPipeline::AnswerQueries(
    std::span<const query::Query> queries,
    const QueryBatchOptions& options) const {
  obs::ScopedTimer span("felip_core_query_batch");
  static obs::Counter& queries_total =
      obs::Registry::Default().GetCounter("felip_core_queries_total");
  static obs::Counter& batches_total =
      obs::Registry::Default().GetCounter("felip_core_query_batches_total");
  static obs::Histogram& batch_size = obs::Registry::Default().GetHistogram(
      "felip_core_query_batch_size",
      {1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0});
  queries_total.Increment(queries.size());
  batches_total.Increment();
  batch_size.Observe(static_cast<double>(queries.size()));

  ExpectState(PipelineState::kQueryable, "AnswerQueries()");
  for (const query::Query& q : queries) {
    if (const auto error = query::ValidateQuery(q, schema_)) {
      FELIP_CHECK_MSG(false, error->c_str());
    }
  }

  std::vector<double> answers(queries.size());
  AnswerBatch(queries, options.pair_path, answers);
  return answers;
}

std::vector<double> FelipPipeline::EstimateMarginal(uint32_t attr) const {
  ExpectState(PipelineState::kQueryable, "EstimateMarginal()");
  FELIP_CHECK(attr < schema_.size());
  const uint32_t domain = schema_[attr].domain;
  std::vector<double> marginal(domain, 0.0);
  if (const Grid1D* g1 = OneDimGrid(attr); g1 != nullptr) {
    // Spread each cell's mass uniformly over its values.
    for (uint32_t c = 0; c < g1->num_cells(); ++c) {
      const double density =
          g1->frequencies()[c] /
          static_cast<double>(g1->partition().CellSize(c));
      for (uint32_t v = g1->partition().CellBegin(c);
           v < g1->partition().CellEnd(c); ++v) {
        marginal[v] = density;
      }
    }
    return marginal;
  }
  FELIP_CHECK_MSG(schema_.size() >= 2, "no grid covers the attribute");
  const uint32_t partner = attr == 0 ? 1 : 0;
  const uint32_t i = std::min(attr, partner);
  const uint32_t j = std::max(attr, partner);
  const std::vector<double> joint =
      response_matrices_[PairGridIndex(i, j)].ToDense();
  const uint32_t dj = schema_[j].domain;
  for (uint32_t x = 0; x < schema_[i].domain; ++x) {
    for (uint32_t y = 0; y < dj; ++y) {
      marginal[attr == i ? x : y] += joint[static_cast<size_t>(x) * dj + y];
    }
  }
  return marginal;
}

std::vector<double> FelipPipeline::EstimateJoint(uint32_t i,
                                                 uint32_t j) const {
  ExpectState(PipelineState::kQueryable, "EstimateJoint()");
  FELIP_CHECK(i < schema_.size() && j < schema_.size());
  FELIP_CHECK_MSG(i != j, "joint needs two distinct attributes");
  if (i < j) return response_matrices_[PairGridIndex(i, j)].ToDense();
  // Transpose the (j, i) matrix into (i, j) orientation.
  const std::vector<double> other =
      response_matrices_[PairGridIndex(j, i)].ToDense();
  const uint32_t di = schema_[i].domain;
  const uint32_t dj = schema_[j].domain;
  std::vector<double> joint(static_cast<size_t>(di) * dj);
  for (uint32_t a = 0; a < dj; ++a) {
    for (uint32_t b = 0; b < di; ++b) {
      joint[static_cast<size_t>(b) * dj + a] =
          other[static_cast<size_t>(a) * di + b];
    }
  }
  return joint;
}

FelipPipeline RunFelip(const data::Dataset& dataset, FelipConfig config) {
  FelipPipeline pipeline(dataset.attributes(), dataset.num_rows(),
                         std::move(config));
  pipeline.Collect(dataset);
  pipeline.Finalize();
  return pipeline;
}

uint64_t GridFrequencyDigest(const FelipPipeline& pipeline) {
  uint64_t digest = 0;
  for (const std::vector<double>& grid : pipeline.ExportGridFrequencies()) {
    digest =
        XxHash64Bytes(grid.data(), grid.size() * sizeof(double), digest);
  }
  return digest;
}

void PrintFingerprint(const FelipPipeline& pipeline, std::FILE* out) {
  const std::vector<double> marginal = pipeline.EstimateMarginal(0);
  std::fprintf(out, "attr0 marginal head:");
  for (size_t v = 0; v < marginal.size() && v < 8; ++v) {
    std::fprintf(out, " %.17g", marginal[v]);
  }
  std::fprintf(out, "\ngrid frequencies xxh64=%016" PRIx64 "\n",
               GridFrequencyDigest(pipeline));
}

}  // namespace felip::core
