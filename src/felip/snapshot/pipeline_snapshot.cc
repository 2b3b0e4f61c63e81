#include "felip/snapshot/pipeline_snapshot.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "felip/common/check.h"
#include "felip/fo/registry.h"
#include "felip/obs/metrics.h"
#include "felip/obs/trace.h"
#include "felip/snapshot/format.h"
#include "felip/storage/storage.h"
#include "felip/wire/framing.h"

namespace felip::snapshot {

namespace {

using core::FelipConfig;
using core::FelipPipeline;
using core::PipelineState;
using data::AttributeInfo;
using wire::Reader;
using wire::Writer;

Status Malformed(const char* what) { return Status::InvalidArgument(what); }

}  // namespace

// --- kConfig ---

std::vector<uint8_t> EncodeConfigSection(const FelipConfig& config,
                                         uint64_t num_users) {
  std::vector<uint8_t> payload;
  Writer w(&payload);
  w.Put<uint64_t>(num_users);
  w.Put<uint8_t>(static_cast<uint8_t>(config.strategy));
  w.Put<uint8_t>(static_cast<uint8_t>(config.partitioning));
  w.Put<double>(config.epsilon);
  w.Put<double>(config.alpha1);
  w.Put<double>(config.alpha2);
  w.Put<double>(config.default_selectivity);
  w.Put<uint32_t>(static_cast<uint32_t>(config.attribute_selectivity.size()));
  for (const double s : config.attribute_selectivity) w.Put<double>(s);
  w.Put<uint8_t>(config.allow_grr ? 1 : 0);
  w.Put<uint8_t>(config.allow_olh ? 1 : 0);
  w.Put<uint8_t>(config.allow_oue ? 1 : 0);
  w.Put<uint8_t>(config.allow_pgr ? 1 : 0);
  w.Put<uint8_t>(config.allow_fldp ? 1 : 0);
  w.Put<uint64_t>(config.report_budget_bytes);
  w.Put<uint32_t>(config.olh_options.seed_pool_size);
  w.Put<uint64_t>(config.olh_options.pool_salt);
  w.Put<uint32_t>(config.fldp_options.report_bits);
  w.Put<uint32_t>(config.fldp_options.subset_pool_size);
  w.Put<uint64_t>(config.fldp_options.pool_salt);
  w.Put<int32_t>(config.consistency_rounds);
  w.Put<uint8_t>(static_cast<uint8_t>(config.normalization));
  w.Put<double>(config.response_matrix_options.threshold);
  w.Put<int32_t>(config.response_matrix_options.max_iterations);
  w.Put<double>(config.lambda_threshold);
  w.Put<uint8_t>(config.lambda_quadrant_fit ? 1 : 0);
  w.Put<uint32_t>(config.aggregation_threads);
  w.Put<uint64_t>(config.seed);
  return payload;
}

Status DecodeConfigSection(const std::vector<uint8_t>& payload,
                           FelipConfig* config, uint64_t* num_users) {
  Reader r(payload);
  uint8_t strategy = 0;
  uint8_t partitioning = 0;
  uint32_t selectivities = 0;
  if (!r.Get(num_users) || !r.Get(&strategy) || !r.Get(&partitioning) ||
      !r.Get(&config->epsilon) || !r.Get(&config->alpha1) ||
      !r.Get(&config->alpha2) || !r.Get(&config->default_selectivity)) {
    return Malformed("snapshot config section is truncated");
  }
  if (strategy > 1 || partitioning > 1) {
    return Malformed("snapshot config carries an unknown enum value");
  }
  config->strategy = static_cast<core::Strategy>(strategy);
  config->partitioning = static_cast<core::PartitioningMode>(partitioning);
  if (!r.GetLength(&selectivities, sizeof(double))) {
    return Malformed("snapshot config selectivity list overruns the section");
  }
  config->attribute_selectivity.resize(selectivities);
  for (double& s : config->attribute_selectivity) {
    if (!r.Get(&s)) return Malformed("snapshot config section is truncated");
  }
  uint8_t allow_grr = 0;
  uint8_t allow_olh = 0;
  uint8_t allow_oue = 0;
  uint8_t allow_pgr = 0;
  uint8_t allow_fldp = 0;
  uint8_t normalization = 0;
  uint8_t quadrant_fit = 0;
  if (!r.Get(&allow_grr) || !r.Get(&allow_olh) || !r.Get(&allow_oue) ||
      !r.Get(&allow_pgr) || !r.Get(&allow_fldp) ||
      !r.Get(&config->report_budget_bytes) ||
      !r.Get(&config->olh_options.seed_pool_size) ||
      !r.Get(&config->olh_options.pool_salt) ||
      !r.Get(&config->fldp_options.report_bits) ||
      !r.Get(&config->fldp_options.subset_pool_size) ||
      !r.Get(&config->fldp_options.pool_salt) ||
      !r.Get(&config->consistency_rounds) || !r.Get(&normalization) ||
      !r.Get(&config->response_matrix_options.threshold) ||
      !r.Get(&config->response_matrix_options.max_iterations) ||
      !r.Get(&config->lambda_threshold) || !r.Get(&quadrant_fit) ||
      !r.Get(&config->aggregation_threads) || !r.Get(&config->seed)) {
    return Malformed("snapshot config section is truncated");
  }
  if (r.remaining() != 0) {
    return Malformed("snapshot config section has trailing bytes");
  }
  if (normalization > 2) {
    return Malformed("snapshot config carries an unknown enum value");
  }
  config->allow_grr = allow_grr != 0;
  config->allow_olh = allow_olh != 0;
  config->allow_oue = allow_oue != 0;
  config->allow_pgr = allow_pgr != 0;
  config->allow_fldp = allow_fldp != 0;
  if (config->allow_fldp &&
      (config->fldp_options.report_bits == 0 ||
       config->fldp_options.subset_pool_size == 0)) {
    return Malformed("snapshot config has infeasible FLDP options");
  }
  config->normalization = static_cast<post::Normalization>(normalization);
  config->lambda_quadrant_fit = quadrant_fit != 0;
  // The pipeline constructor FELIP_CHECKs these; a snapshot is untrusted
  // input, so screen them here and fail with a Status instead.
  if (*num_users == 0) return Malformed("snapshot config has zero users");
  if (!std::isfinite(config->epsilon) || config->epsilon <= 0.0) {
    return Malformed("snapshot config has a non-positive epsilon");
  }
  return Status::Ok();
}

// --- kSchema ---

std::vector<uint8_t> EncodeSchemaSection(
    const std::vector<AttributeInfo>& schema) {
  std::vector<uint8_t> payload;
  Writer w(&payload);
  w.Put<uint32_t>(static_cast<uint32_t>(schema.size()));
  for (const AttributeInfo& attr : schema) {
    w.Put<uint32_t>(static_cast<uint32_t>(attr.name.size()));
    w.PutBytes(reinterpret_cast<const uint8_t*>(attr.name.data()),
               attr.name.size());
    w.Put<uint32_t>(attr.domain);
    w.Put<uint8_t>(attr.categorical ? 1 : 0);
  }
  return payload;
}

Status DecodeSchemaSection(const std::vector<uint8_t>& payload,
                           std::vector<AttributeInfo>* schema) {
  Reader r(payload);
  // Each attribute is at least name_len(4) + domain(4) + categorical(1).
  uint32_t count = 0;
  if (!r.GetCount(&count, 4 + 4 + 1)) {
    return Malformed("snapshot schema section is truncated");
  }
  if (count == 0) return Malformed("snapshot schema has no attributes");
  schema->clear();
  schema->reserve(count);
  for (uint32_t a = 0; a < count; ++a) {
    uint32_t name_len = 0;
    if (!r.GetLength(&name_len, 1)) {
      return Malformed("snapshot schema section is truncated");
    }
    AttributeInfo attr;
    attr.name.assign(reinterpret_cast<const char*>(r.cursor()), name_len);
    r.Skip(name_len);
    uint8_t categorical = 0;
    if (!r.Get(&attr.domain) || !r.Get(&categorical)) {
      return Malformed("snapshot schema section is truncated");
    }
    if (attr.domain == 0) {
      return Malformed("snapshot schema has a zero-domain attribute");
    }
    attr.categorical = categorical != 0;
    schema->push_back(std::move(attr));
  }
  if (r.remaining() != 0) {
    return Malformed("snapshot schema section has trailing bytes");
  }
  return Status::Ok();
}

namespace {

// --- kState ---

std::vector<uint8_t> EncodeState(PipelineState state,
                                 uint64_t reports_ingested) {
  std::vector<uint8_t> payload;
  Writer w(&payload);
  w.Put<uint8_t>(static_cast<uint8_t>(state));
  w.Put<uint64_t>(reports_ingested);
  return payload;
}

Status DecodeState(const std::vector<uint8_t>& payload, uint8_t header_state,
                   PipelineState* state, uint64_t* reports_ingested) {
  Reader r(payload);
  uint8_t state_byte = 0;
  if (!r.Get(&state_byte) || !r.Get(reports_ingested) ||
      r.remaining() != 0) {
    return Malformed("snapshot state section is truncated");
  }
  if (state_byte > static_cast<uint8_t>(PipelineState::kQueryable)) {
    return Malformed("snapshot carries an unknown pipeline state");
  }
  if (state_byte != header_state) {
    return Malformed("snapshot state section disagrees with the header");
  }
  *state = static_cast<PipelineState>(state_byte);
  return Status::Ok();
}

// --- kOracles ---

std::vector<uint8_t> EncodeOracles(
    const std::vector<std::unique_ptr<fo::FrequencyOracle>>& oracles) {
  std::vector<uint8_t> payload;
  Writer w(&payload);
  w.Put<uint32_t>(static_cast<uint32_t>(oracles.size()));
  for (const auto& oracle : oracles) {
    const fo::OracleState state = oracle->ExportState();
    w.Put<uint8_t>(static_cast<uint8_t>(state.protocol));
    w.Put<uint64_t>(state.num_reports);
    w.Put<uint64_t>(state.counts.size());
    for (const uint64_t c : state.counts) w.Put<uint64_t>(c);
    w.Put<uint64_t>(state.pool_counts.size());
    for (const uint32_t c : state.pool_counts) w.Put<uint32_t>(c);
    w.Put<uint64_t>(state.reports.size());
    for (const fo::OlhReport& report : state.reports) {
      w.Put<uint64_t>(report.seed);
      w.Put<uint32_t>(report.hashed_report);
      w.Put<uint32_t>(report.seed_index);
    }
  }
  return payload;
}

Status DecodeOracles(const std::vector<uint8_t>& payload,
                     std::vector<fo::OracleState>* states) {
  Reader r(payload);
  // Each oracle is at least protocol(1) + num_reports(8) + three
  // length prefixes(8 each).
  uint32_t count = 0;
  if (!r.GetCount(&count, 1 + 8 + 3 * 8)) {
    return Malformed("snapshot oracle section is truncated");
  }
  states->clear();
  states->reserve(count);
  for (uint32_t g = 0; g < count; ++g) {
    fo::OracleState state;
    uint8_t protocol = 0;
    uint64_t counts_len = 0;
    if (!r.Get(&protocol) || !r.Get(&state.num_reports)) {
      return Malformed("snapshot oracle section is truncated");
    }
    if (!fo::KnownProtocolByte(protocol)) {
      return Malformed("snapshot oracle carries an unknown protocol");
    }
    state.protocol = static_cast<fo::Protocol>(protocol);
    if (!r.GetLength(&counts_len, sizeof(uint64_t))) {
      return Malformed("snapshot oracle counts overrun the section");
    }
    state.counts.resize(counts_len);
    for (uint64_t& c : state.counts) {
      if (!r.Get(&c)) return Malformed("snapshot oracle section is truncated");
    }
    uint64_t pool_len = 0;
    if (!r.GetLength(&pool_len, sizeof(uint32_t))) {
      return Malformed("snapshot oracle pool overruns the section");
    }
    state.pool_counts.resize(pool_len);
    for (uint32_t& c : state.pool_counts) {
      if (!r.Get(&c)) return Malformed("snapshot oracle section is truncated");
    }
    uint64_t reports_len = 0;
    constexpr size_t kOlhReportBytes = 8 + 4 + 4;
    if (!r.GetLength(&reports_len, kOlhReportBytes)) {
      return Malformed("snapshot oracle reports overrun the section");
    }
    state.reports.resize(reports_len);
    for (fo::OlhReport& report : state.reports) {
      if (!r.Get(&report.seed) || !r.Get(&report.hashed_report) ||
          !r.Get(&report.seed_index)) {
        return Malformed("snapshot oracle section is truncated");
      }
    }
    states->push_back(std::move(state));
  }
  if (r.remaining() != 0) {
    return Malformed("snapshot oracle section has trailing bytes");
  }
  return Status::Ok();
}

// --- kGridFrequencies ---

std::vector<uint8_t> EncodeGridFrequencies(
    const std::vector<std::vector<double>>& frequencies) {
  std::vector<uint8_t> payload;
  Writer w(&payload);
  w.Put<uint32_t>(static_cast<uint32_t>(frequencies.size()));
  for (const std::vector<double>& grid : frequencies) {
    w.Put<uint64_t>(grid.size());
    for (const double f : grid) w.Put<double>(f);
  }
  return payload;
}

Status DecodeGridFrequencies(const std::vector<uint8_t>& payload,
                             std::vector<std::vector<double>>* frequencies) {
  Reader r(payload);
  // Each grid is at least its length prefix(8).
  uint32_t count = 0;
  if (!r.GetCount(&count, 8)) {
    return Malformed("snapshot frequency section is truncated");
  }
  frequencies->clear();
  frequencies->reserve(count);
  for (uint32_t g = 0; g < count; ++g) {
    uint64_t len = 0;
    if (!r.GetLength(&len, sizeof(double))) {
      return Malformed("snapshot frequency grid overruns the section");
    }
    std::vector<double> grid(len);
    for (double& f : grid) {
      if (!r.Get(&f)) {
        return Malformed("snapshot frequency section is truncated");
      }
      if (!std::isfinite(f)) {
        return Malformed("snapshot frequency is not finite");
      }
    }
    frequencies->push_back(std::move(grid));
  }
  if (r.remaining() != 0) {
    return Malformed("snapshot frequency section has trailing bytes");
  }
  return Status::Ok();
}

// --- kResponseMatrices ---

std::vector<uint8_t> EncodeResponseMatrices(
    const std::vector<post::ResponseMatrix>& matrices) {
  std::vector<uint8_t> payload;
  Writer w(&payload);
  w.Put<uint32_t>(static_cast<uint32_t>(matrices.size()));
  for (const post::ResponseMatrix& matrix : matrices) {
    const post::ResponseMatrix::Blocks blocks = matrix.ExportBlocks();
    w.Put<uint32_t>(blocks.domain_x);
    w.Put<uint32_t>(blocks.domain_y);
    w.Put<uint64_t>(blocks.bx.size());
    for (const uint32_t b : blocks.bx) w.Put<uint32_t>(b);
    w.Put<uint64_t>(blocks.by.size());
    for (const uint32_t b : blocks.by) w.Put<uint32_t>(b);
    w.Put<uint64_t>(blocks.mass.size());
    for (const double m : blocks.mass) w.Put<double>(m);
  }
  return payload;
}

Status DecodeResponseMatrices(const std::vector<uint8_t>& payload,
                              std::vector<post::ResponseMatrix>* matrices) {
  Reader r(payload);
  // Each matrix is at least domain_x(4) + domain_y(4) + three length
  // prefixes(8 each).
  uint32_t count = 0;
  if (!r.GetCount(&count, 4 + 4 + 3 * 8)) {
    return Malformed("snapshot response-matrix section is truncated");
  }
  matrices->clear();
  matrices->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    post::ResponseMatrix::Blocks blocks;
    uint64_t len = 0;
    if (!r.Get(&blocks.domain_x) || !r.Get(&blocks.domain_y) ||
        !r.GetLength(&len, sizeof(uint32_t))) {
      return Malformed("snapshot response-matrix section is truncated");
    }
    blocks.bx.resize(len);
    for (uint32_t& b : blocks.bx) {
      if (!r.Get(&b)) {
        return Malformed("snapshot response-matrix section is truncated");
      }
    }
    if (!r.GetLength(&len, sizeof(uint32_t))) {
      return Malformed("snapshot response-matrix section is truncated");
    }
    blocks.by.resize(len);
    for (uint32_t& b : blocks.by) {
      if (!r.Get(&b)) {
        return Malformed("snapshot response-matrix section is truncated");
      }
    }
    if (!r.GetLength(&len, sizeof(double))) {
      return Malformed("snapshot response-matrix section is truncated");
    }
    blocks.mass.resize(len);
    for (double& m : blocks.mass) {
      if (!r.Get(&m)) {
        return Malformed("snapshot response-matrix section is truncated");
      }
    }
    post::ResponseMatrix matrix;
    if (!post::ResponseMatrix::FromBlocks(std::move(blocks), &matrix)) {
      return Malformed("snapshot response-matrix blocks are invalid");
    }
    matrices->push_back(std::move(matrix));
  }
  if (r.remaining() != 0) {
    return Malformed("snapshot response-matrix section has trailing bytes");
  }
  return Status::Ok();
}

// --- kDedup ---

std::vector<uint8_t> EncodeDedup(std::span<const uint64_t> keys) {
  std::vector<uint8_t> payload;
  Writer w(&payload);
  w.Put<uint64_t>(keys.size());
  for (const uint64_t key : keys) w.Put<uint64_t>(key);
  return payload;
}

Status DecodeDedup(const std::vector<uint8_t>& payload,
                   std::vector<uint64_t>* keys) {
  Reader r(payload);
  uint64_t count = 0;
  if (!r.GetLength(&count, sizeof(uint64_t))) {
    return Malformed("snapshot dedup section is truncated");
  }
  keys->resize(count);
  for (uint64_t& key : *keys) {
    if (!r.Get(&key)) return Malformed("snapshot dedup section is truncated");
  }
  if (r.remaining() != 0) {
    return Malformed("snapshot dedup section has trailing bytes");
  }
  return Status::Ok();
}

// Expected cell count of grid `g` under `pipeline`'s planned layout.
uint64_t GridCells(const FelipPipeline& pipeline, size_t g) {
  const core::GridAssignment& assignment = pipeline.assignments()[g];
  return static_cast<uint64_t>(assignment.plan.lx) *
         (assignment.is_2d ? assignment.plan.ly : 1);
}

}  // namespace

std::vector<uint8_t> PipelineCodec::EncodeOracleSection(
    const core::FelipPipeline& pipeline) {
  return EncodeOracles(pipeline.oracles_);
}

Status PipelineCodec::DecodeOracleSection(
    const std::vector<uint8_t>& payload,
    std::vector<fo::OracleState>* states) {
  return DecodeOracles(payload, states);
}

std::vector<uint8_t> PipelineCodec::Encode(
    const FelipPipeline& pipeline, const core::SnapshotOptions& options,
    std::span<const uint64_t> dedup_keys) {
  SnapshotWriter writer(static_cast<uint8_t>(pipeline.state_));
  writer.AppendSection(
      SectionId::kConfig,
      EncodeConfigSection(pipeline.config_, pipeline.num_users_));
  writer.AppendSection(SectionId::kSchema,
                       EncodeSchemaSection(pipeline.schema_));
  writer.AppendSection(
      SectionId::kState,
      EncodeState(pipeline.state_, pipeline.reports_ingested_));
  switch (pipeline.state_) {
    case PipelineState::kConfigured:
      break;
    case PipelineState::kCollecting:
    case PipelineState::kSealed:
      writer.AppendSection(SectionId::kOracles,
                           EncodeOracles(pipeline.oracles_));
      break;
    case PipelineState::kQueryable:
      writer.AppendSection(
          SectionId::kGridFrequencies,
          EncodeGridFrequencies(pipeline.ExportGridFrequencies()));
      if (options.include_response_matrices) {
        writer.AppendSection(
            SectionId::kResponseMatrices,
            EncodeResponseMatrices(pipeline.response_matrices_));
      }
      break;
  }
  writer.AppendSection(SectionId::kDedup, EncodeDedup(dedup_keys));
  return std::move(writer).Finish();
}

StatusOr<RecoveredPipeline> PipelineCodec::Decode(
    const std::vector<uint8_t>& bytes) {
  FELIP_ASSIGN_OR_RETURN(const SnapshotReader reader,
                         SnapshotReader::Open(bytes));

  const std::vector<uint8_t>* config_section =
      reader.FindSection(SectionId::kConfig);
  const std::vector<uint8_t>* schema_section =
      reader.FindSection(SectionId::kSchema);
  const std::vector<uint8_t>* state_section =
      reader.FindSection(SectionId::kState);
  if (config_section == nullptr || schema_section == nullptr ||
      state_section == nullptr) {
    return Malformed("snapshot is missing a required section");
  }

  FelipConfig config;
  uint64_t num_users = 0;
  FELIP_RETURN_IF_ERROR(
      DecodeConfigSection(*config_section, &config, &num_users));
  std::vector<AttributeInfo> schema;
  FELIP_RETURN_IF_ERROR(DecodeSchemaSection(*schema_section, &schema));
  PipelineState state = PipelineState::kConfigured;
  uint64_t reports_ingested = 0;
  FELIP_RETURN_IF_ERROR(DecodeState(*state_section, reader.state_byte(),
                                    &state, &reports_ingested));

  std::vector<uint64_t> dedup_keys;
  if (const std::vector<uint8_t>* dedup =
          reader.FindSection(SectionId::kDedup)) {
    FELIP_RETURN_IF_ERROR(DecodeDedup(*dedup, &dedup_keys));
  }

  // Grid planning is deterministic in (schema, num_users, config), so the
  // reconstructed pipeline's layout is the layout the snapshot was taken
  // under — every per-grid payload is validated against it below.
  FelipPipeline pipeline(std::move(schema), num_users, std::move(config));

  switch (state) {
    case PipelineState::kConfigured:
      break;

    case PipelineState::kCollecting:
    case PipelineState::kSealed: {
      const std::vector<uint8_t>* section =
          reader.FindSection(SectionId::kOracles);
      if (section == nullptr) {
        return Malformed("mid-round snapshot has no oracle section");
      }
      std::vector<fo::OracleState> states;
      FELIP_RETURN_IF_ERROR(DecodeOracles(*section, &states));
      if (states.size() != pipeline.assignments_.size()) {
        return Malformed(
            "snapshot oracle count does not match the planned layout");
      }
      pipeline.BeginIngest();
      uint64_t total_reports = 0;
      for (size_t g = 0; g < states.size(); ++g) {
        total_reports += states[g].num_reports;
        FELIP_RETURN_IF_ERROR(
            pipeline.oracles_[g]->RestoreState(std::move(states[g])));
      }
      // Collect() seals without touching reports_ingested_ (it counts
      // only networked ingestion), so the cross-check is meaningful for
      // kCollecting alone.
      if (state == PipelineState::kCollecting &&
          total_reports != reports_ingested) {
        return Malformed("snapshot report counts are inconsistent");
      }
      pipeline.reports_ingested_ = reports_ingested;
      pipeline.state_ = state;
      break;
    }

    case PipelineState::kQueryable: {
      const std::vector<uint8_t>* section =
          reader.FindSection(SectionId::kGridFrequencies);
      if (section == nullptr) {
        return Malformed("finalized snapshot has no frequency section");
      }
      std::vector<std::vector<double>> frequencies;
      FELIP_RETURN_IF_ERROR(DecodeGridFrequencies(*section, &frequencies));
      if (frequencies.size() != pipeline.assignments_.size()) {
        return Malformed(
            "snapshot grid count does not match the planned layout");
      }
      for (size_t g = 0; g < frequencies.size(); ++g) {
        if (frequencies[g].size() != GridCells(pipeline, g)) {
          return Malformed(
              "snapshot grid size does not match the planned layout");
        }
      }

      const size_t n1 = pipeline.grids_1d_.size();
      for (size_t g = 0; g < frequencies.size(); ++g) {
        if (g < n1) {
          pipeline.grids_1d_[g].SetFrequencies(std::move(frequencies[g]));
        } else {
          pipeline.grids_2d_[g - n1].SetFrequencies(
              std::move(frequencies[g]));
        }
      }

      const std::vector<uint8_t>* rm_section =
          reader.FindSection(SectionId::kResponseMatrices);
      if (rm_section != nullptr) {
        std::vector<post::ResponseMatrix> matrices;
        FELIP_RETURN_IF_ERROR(DecodeResponseMatrices(*rm_section, &matrices));
        if (matrices.size() != pipeline.grids_2d_.size()) {
          return Malformed(
              "snapshot response-matrix count does not match the layout");
        }
        for (size_t i = 0; i < matrices.size(); ++i) {
          const grid::Grid2D& g2 = pipeline.grids_2d_[i];
          if (matrices[i].domain_x() != g2.px().domain() ||
              matrices[i].domain_y() != g2.py().domain()) {
            return Malformed(
                "snapshot response-matrix domains do not match the layout");
          }
        }
        pipeline.response_matrices_ = std::move(matrices);
      } else {
        // Response matrices are derived state; rebuild them exactly like
        // Finalize() does.
        pipeline.response_matrices_.assign(pipeline.grids_2d_.size(),
                                           post::ResponseMatrix());
        for (size_t i = 0; i < pipeline.grids_2d_.size(); ++i) {
          const grid::Grid2D& g2 = pipeline.grids_2d_[i];
          pipeline.response_matrices_[i] = post::ResponseMatrix::Build(
              g2, pipeline.OneDimGrid(g2.attr_x()),
              pipeline.OneDimGrid(g2.attr_y()),
              pipeline.config_.response_matrix_options);
        }
      }
      pipeline.state_ = PipelineState::kQueryable;
      pipeline.reports_ingested_ = reports_ingested;
      break;
    }
  }

  return RecoveredPipeline{std::move(pipeline), std::move(dedup_keys)};
}

}  // namespace felip::snapshot

namespace felip::core {

// Defined here (the felip_snapshot library) so felip_core never depends on
// the snapshot format; see the declarations in felip/core/felip.h.

Status FelipPipeline::SaveSnapshot(const std::string& path,
                                   const SnapshotOptions& options) const {
  obs::ScopedTimer span("felip_snapshot_write");
  const auto start = std::chrono::steady_clock::now();
  const std::vector<uint8_t> bytes =
      snapshot::PipelineCodec::Encode(*this, options, {});
  FELIP_RETURN_IF_ERROR(storage::WriteFileAtomic(path, bytes));
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  obs::Registry::Default()
      .GetGauge("felip_snapshot_bytes")
      .Set(static_cast<double>(bytes.size()));
  obs::Registry::Default()
      .GetHistogram("felip_snapshot_write_seconds")
      .Observe(elapsed.count());
  return Status::Ok();
}

StatusOr<FelipPipeline> FelipPipeline::LoadSnapshot(const std::string& path) {
  FELIP_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                         storage::ReadFile(path));
  FELIP_ASSIGN_OR_RETURN(snapshot::RecoveredPipeline recovered,
                         snapshot::PipelineCodec::Decode(bytes));
  return std::move(recovered.pipeline);
}

}  // namespace felip::core
