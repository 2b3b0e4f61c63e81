#include "felip/baselines/tdg_hdg.h"

#include <algorithm>
#include <cmath>

#include "felip/common/check.h"
#include "felip/common/numeric.h"
#include "felip/common/rng.h"
#include "felip/fo/registry.h"
#include "felip/post/consistency.h"
#include "felip/post/lambda_estimator.h"
#include "felip/post/norm_sub.h"

namespace felip::baselines {

namespace {

using grid::AxisSelection;
using grid::Grid1D;
using grid::Grid2D;
using grid::Partition1D;

}  // namespace

double TdgHdgRawG1(double epsilon, uint64_t n, uint64_t m, double alpha1) {
  // Minimize (a1/g)^2 + g * (1/2) * 4 m e / (n (e-1)^2)  [r = 1/2].
  const double e = std::exp(epsilon);
  return std::cbrt(static_cast<double>(n) * alpha1 * alpha1 * (e - 1.0) *
                   (e - 1.0) / (static_cast<double>(m) * e));
}

double TdgHdgRawG2(double epsilon, uint64_t n, uint64_t m, double alpha2) {
  // Minimize (2 a2 / g)^2 + (g^2 / 4) * 4 m e / (n (e-1)^2)  [rx = ry = 1/2].
  const double e = std::exp(epsilon);
  return std::pow(4.0 * static_cast<double>(n) * alpha2 * alpha2 * (e - 1.0) *
                      (e - 1.0) / (static_cast<double>(m) * e),
                  0.25);
}

uint32_t NearestPowerOfTwo(double value, uint32_t domain) {
  if (value <= 1.0) return 1;
  const double log2v = std::log2(value);
  const double rounded = std::round(log2v);
  const double pow2 = std::exp2(rounded);
  const auto g = static_cast<uint32_t>(
      std::clamp(pow2, 1.0, static_cast<double>(domain)));
  return g;
}

TdgHdgPipeline::TdgHdgPipeline(std::vector<data::AttributeInfo> schema,
                               uint64_t num_users, TdgHdgConfig config)
    : schema_(std::move(schema)), num_users_(num_users),
      config_(std::move(config)) {
  FELIP_CHECK_MSG(schema_.size() >= 2, "TDG/HDG needs >= 2 attributes");
  FELIP_CHECK(num_users_ > 0);
  FELIP_CHECK(config_.epsilon > 0.0);
  const auto k = static_cast<uint32_t>(schema_.size());
  const bool hdg = config_.strategy == YangStrategy::kHdg;
  const uint64_t m = (hdg ? k : 0) + Choose2(k);

  config_.response_matrix_options.threshold =
      std::min(config_.response_matrix_options.threshold,
               1.0 / static_cast<double>(num_users_));

  // Shared granularities (50% selectivity assumption + power-of-two
  // rounding). Per-attribute the granularity is additionally capped by the
  // domain, mirroring that grids cannot have more cells than values.
  const uint32_t max_domain =
      std::max_element(schema_.begin(), schema_.end(),
                       [](const auto& a, const auto& b) {
                         return a.domain < b.domain;
                       })
          ->domain;
  g1_ = NearestPowerOfTwo(
      TdgHdgRawG1(config_.epsilon, num_users_, m, config_.alpha1),
      max_domain);
  g2_ = NearestPowerOfTwo(
      TdgHdgRawG2(config_.epsilon, num_users_, m, config_.alpha2),
      max_domain);

  if (hdg) {
    for (uint32_t a = 0; a < k; ++a) {
      grids_1d_.emplace_back(
          a, Partition1D(schema_[a].domain,
                         std::min(g1_, schema_[a].domain)));
    }
  }
  for (uint32_t i = 0; i < k; ++i) {
    for (uint32_t j = i + 1; j < k; ++j) {
      grids_2d_.emplace_back(
          i, j,
          Partition1D(schema_[i].domain, std::min(g2_, schema_[i].domain)),
          Partition1D(schema_[j].domain, std::min(g2_, schema_[j].domain)));
    }
  }
}

void TdgHdgPipeline::Collect(const data::Dataset& dataset) {
  FELIP_CHECK_MSG(!collected_, "Collect() called twice");
  FELIP_CHECK(dataset.num_attributes() == schema_.size());
  FELIP_CHECK(dataset.num_rows() == num_users_);

  const size_t n1 = grids_1d_.size();
  const size_t m = n1 + grids_2d_.size();
  oracles_.clear();
  fo::ProtocolOptions options;
  options.olh = config_.olh_options;
  for (size_t g = 0; g < m; ++g) {
    const uint64_t domain = g < n1 ? grids_1d_[g].num_cells()
                                   : grids_2d_[g - n1].num_cells();
    oracles_.push_back(fo::MakeFrequencyOracle(
        fo::Protocol::kOlh, config_.epsilon, domain, options));
  }

  Rng rng(config_.seed);
  for (uint64_t row = 0; row < dataset.num_rows(); ++row) {
    const size_t g = static_cast<size_t>(rng.UniformU64(m));
    uint64_t cell;
    if (g < n1) {
      const Grid1D& grid = grids_1d_[g];
      cell = grid.CellOf(dataset.Value(row, grid.attr()));
    } else {
      const Grid2D& grid = grids_2d_[g - n1];
      cell = grid.CellOf(dataset.Value(row, grid.attr_x()),
                         dataset.Value(row, grid.attr_y()));
    }
    oracles_[g]->BufferUserValue(cell, rng);
  }
  for (auto& oracle : oracles_) oracle->FlushReports(1);
  collected_ = true;
}

void TdgHdgPipeline::Finalize() {
  FELIP_CHECK_MSG(collected_, "Finalize() requires Collect()");
  FELIP_CHECK_MSG(!finalized_, "Finalize() called twice");
  const size_t n1 = grids_1d_.size();
  for (size_t g = 0; g < oracles_.size(); ++g) {
    // Collect() flushed every oracle, so no reports are buffered.
    std::vector<double> freq = oracles_[g]->EstimateFrequencies().value();
    post::RemoveNegativity(&freq);
    if (g < n1) {
      grids_1d_[g].SetFrequencies(std::move(freq));
    } else {
      grids_2d_[g - n1].SetFrequencies(std::move(freq));
    }
  }
  oracles_.clear();

  if (config_.strategy == YangStrategy::kHdg) {
    post::MakeConsistent(static_cast<uint32_t>(schema_.size()), &grids_1d_,
                         &grids_2d_,
                         {.rounds = config_.consistency_rounds});
    response_matrices_.clear();
    response_matrices_.reserve(grids_2d_.size());
    for (const Grid2D& g2 : grids_2d_) {
      response_matrices_.push_back(post::ResponseMatrix::Build(
          g2, &grids_1d_[g2.attr_x()], &grids_1d_[g2.attr_y()],
          config_.response_matrix_options));
    }
  }
  finalized_ = true;
}

size_t TdgHdgPipeline::PairGridIndex(uint32_t i, uint32_t j) const {
  FELIP_CHECK(i < j);
  const auto k = static_cast<uint32_t>(schema_.size());
  FELIP_CHECK(j < k);
  return static_cast<size_t>(i) * (2 * k - i - 1) / 2 + (j - i - 1);
}

AxisSelection TdgHdgPipeline::SelectionFor(const query::Query& query,
                                           uint32_t attr) const {
  const query::Predicate* p = query.FindPredicate(attr);
  if (p == nullptr) return AxisSelection::MakeAll(schema_[attr].domain);
  return p->ToSelection();
}

double TdgHdgPipeline::AnswerPair(uint32_t i, uint32_t j,
                                  const AxisSelection& sel_i,
                                  const AxisSelection& sel_j) const {
  const size_t idx = PairGridIndex(i, j);
  if (config_.strategy == YangStrategy::kHdg) {
    return response_matrices_[idx].Answer(sel_i, sel_j);
  }
  return grids_2d_[idx].Answer(sel_i, sel_j);  // TDG: uniformity assumption
}

double TdgHdgPipeline::AnswerQuery(const query::Query& query) const {
  FELIP_CHECK_MSG(finalized_, "AnswerQuery() requires Finalize()");
  const uint32_t lambda = query.dimension();
  for (const query::Predicate& p : query.predicates()) {
    FELIP_CHECK(p.attr < schema_.size());
  }
  if (lambda == 1) {
    const query::Predicate& p = query.predicates()[0];
    if (config_.strategy == YangStrategy::kHdg) {
      return std::clamp(grids_1d_[p.attr].Answer(p.ToSelection()), 0.0, 1.0);
    }
    const uint32_t partner = p.attr == 0 ? 1 : 0;
    const AxisSelection all =
        AxisSelection::MakeAll(schema_[partner].domain);
    const uint32_t i = std::min(p.attr, partner);
    const uint32_t j = std::max(p.attr, partner);
    return std::clamp(p.attr < partner
                          ? AnswerPair(i, j, p.ToSelection(), all)
                          : AnswerPair(i, j, all, p.ToSelection()),
                      0.0, 1.0);
  }

  std::vector<uint32_t> attrs;
  std::vector<AxisSelection> selections;
  for (const query::Predicate& p : query.predicates()) {
    attrs.push_back(p.attr);
    selections.push_back(p.ToSelection());
  }
  if (lambda == 2) {
    return std::clamp(
        AnswerPair(attrs[0], attrs[1], selections[0], selections[1]), 0.0,
        1.0);
  }
  std::vector<double> pair_answers(Choose2(lambda), 0.0);
  for (uint32_t a = 0; a < lambda; ++a) {
    for (uint32_t b = a + 1; b < lambda; ++b) {
      pair_answers[post::PairIndex(a, b, lambda)] =
          AnswerPair(attrs[a], attrs[b], selections[a], selections[b]);
    }
  }
  post::LambdaEstimatorOptions options;
  options.threshold = std::min(config_.lambda_threshold,
                               1.0 / static_cast<double>(num_users_));
  return post::EstimateLambdaQuery(lambda, pair_answers, options);
}

}  // namespace felip::baselines
