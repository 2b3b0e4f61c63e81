// Differential test of the grid-run path: PipelineSink::IngestBatch hands
// each frame as it is to FelipPipeline::IngestReports, which gives every
// maximal same-grid run to that grid's oracle in one call, and that must
// be indistinguishable from ingesting the frame report by report (one
// one-element IngestReports call per report, in frame order). Seeded
// random frames mix valid reports for GRR, pooled OLH, per-user OLH, OUE,
// PGR and FLDP grids with reports of the wrong protocol, out-of-domain
// payloads and grid indices past the plan. Both paths must agree on
// accepted and rejected counts, on the rejected-reports counter, on
// reports_ingested(), and on every oracle's exported state field by field
// — including the order of OLH per-user raw reports, which run splitting
// must keep in frame order.
//
// The same scenarios pin FelipPipeline::Collect to a networked round of
// the same population: PopulationSimulator batches through PipelineSink
// must leave every oracle exactly as Collect leaves it.

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/dataset.h"
#include "felip/fo/pgr.h"
#include "felip/fo/protocol.h"
#include "felip/fo/registry.h"
#include "felip/obs/metrics.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/svc/simulator.h"
#include "felip/svc/sink.h"
#include "felip/wire/wire.h"

namespace felip::svc {
namespace {

// The kinds of grid the frames must cover; OLH counts twice because its
// pooled and per-user modes keep different state.
enum class GridKind { kGrr, kPooledOlh, kPerUserOlh, kOue, kPgr, kFldp };

GridKind KindOf(fo::Protocol protocol, const core::FelipConfig& config) {
  switch (protocol) {
    case fo::Protocol::kGrr:
      return GridKind::kGrr;
    case fo::Protocol::kOlh:
      return config.olh_options.seed_pool_size > 0 ? GridKind::kPooledOlh
                                                   : GridKind::kPerUserOlh;
    case fo::Protocol::kOue:
      return GridKind::kOue;
    case fo::Protocol::kPgr:
      return GridKind::kPgr;
    case fo::Protocol::kFldp:
      return GridKind::kFldp;
  }
  return GridKind::kGrr;
}

struct Scenario {
  std::string name;
  std::vector<data::AttributeInfo> schema;
  uint64_t num_users = 0;
  core::FelipConfig config;
};

std::vector<data::AttributeInfo> MixedSchema() {
  return {{"a", 4, true}, {"b", 64, false}, {"c", 200, false},
          {"d", 6, true}};
}

// Four plans that together cover every grid kind: GRR on the small pairs
// next to pooled OLH, per-user OLH or OUE on the large ones, and a
// budget-constrained plan that AFO splits between PGR (the large grids)
// and FLDP (the small ones).
std::vector<Scenario> Scenarios() {
  std::vector<Scenario> scenarios;
  const auto add = [&](std::string name,
                       std::initializer_list<fo::Protocol> allowed) {
    Scenario s;
    s.name = std::move(name);
    s.schema = MixedSchema();
    s.num_users = 200000;
    s.config.epsilon = 1.0;
    s.config.seed = 11;
    s.config.allow_grr = false;
    s.config.allow_olh = false;
    for (const fo::Protocol p : allowed) s.config.SetProtocolAllowed(p, true);
    s.config.olh_options.seed_pool_size = 64;
    s.config.fldp_options.subset_pool_size = 64;
    scenarios.push_back(std::move(s));
    return &scenarios.back().config;
  };
  add("pooled_olh", {fo::Protocol::kGrr, fo::Protocol::kOlh});
  add("per_user_olh", {fo::Protocol::kGrr, fo::Protocol::kOlh})
      ->olh_options.seed_pool_size = 0;
  add("oue", {fo::Protocol::kGrr, fo::Protocol::kOue});
  core::FelipConfig* pgr_fldp =
      add("pgr_fldp", {fo::Protocol::kPgr, fo::Protocol::kFldp});
  pgr_fldp->fldp_options.report_bits = 32;
  pgr_fldp->report_budget_bytes = 20;
  return scenarios;
}

// `num_users` rows over MixedSchema(), skewed towards small values so no
// grid sees a uniform population.
data::Dataset MixedData(uint64_t num_users, uint64_t seed) {
  const std::vector<data::AttributeInfo> schema = MixedSchema();
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> columns(schema.size());
  for (size_t a = 0; a < schema.size(); ++a) {
    columns[a].reserve(num_users);
    for (uint64_t row = 0; row < num_users; ++row) {
      columns[a].push_back(static_cast<uint32_t>(
          std::min(rng.UniformU64(schema[a].domain),
                   rng.UniformU64(schema[a].domain))));
    }
  }
  return data::Dataset::FromColumns(schema, std::move(columns));
}

core::FelipPipeline NewPipeline(const Scenario& s) {
  return core::FelipPipeline(s.schema, s.num_users, s.config);
}

// Builds one frame's reports for a planned pipeline: mostly valid reports
// from each grid's own client, plus every kind of report a grid must
// reject.
class FrameMaker {
 public:
  explicit FrameMaker(const core::FelipPipeline& plan) {
    const fo::ProtocolOptions options = plan.config().protocol_options();
    for (const core::GridAssignment& a : plan.assignments()) {
      const uint64_t domain = static_cast<uint64_t>(a.plan.lx) * a.plan.ly;
      domains_.push_back(domain);
      clients_.push_back(fo::MakeReportClient(
          a.plan.protocol, plan.per_grid_epsilon(), domain, options));
      pgr_points_.push_back(
          a.plan.protocol == fo::Protocol::kPgr
              ? fo::PgrParams::Make(plan.per_grid_epsilon(), domain).num_points
              : 0);
    }
    for (const fo::ProtocolTraits& traits : fo::AllProtocolTraits()) {
      foreign_.push_back(
          fo::MakeReportClient(traits.protocol, 1.0, 16, options));
    }
  }

  std::vector<wire::ReportMessage> Frame(size_t size, Rng& rng) const {
    std::vector<wire::ReportMessage> frame(size);
    for (wire::ReportMessage& m : frame) m = Report(rng);
    return frame;
  }

 private:
  wire::ReportMessage Report(Rng& rng) const {
    const uint32_t num_grids = static_cast<uint32_t>(clients_.size());
    wire::ReportMessage m;
    m.grid_index = static_cast<uint32_t>(rng.UniformU64(num_grids));
    const uint64_t domain = domains_[m.grid_index];
    const fo::ReportClient& own = *clients_[m.grid_index];
    m.payload = own.Perturb(rng.UniformU64(domain), rng).payload;
    switch (rng.UniformU64(10)) {
      case 0: {  // another protocol's report
        const size_t p = (static_cast<size_t>(own.protocol()) + 1 +
                          rng.UniformU64(fo::kNumProtocols - 1)) %
                         fo::kNumProtocols;
        m.payload = foreign_[p]->Perturb(rng.UniformU64(16), rng).payload;
        break;
      }
      case 1:  // this protocol, outside the grid's domain
        Corrupt(&m, rng);
        break;
      case 2:  // a grid the plan does not have
        m.grid_index = rng.Bernoulli(0.5)
                           ? num_grids + static_cast<uint32_t>(
                                             rng.UniformU64(3))
                           : 0xffffffffu;
        break;
      default:
        break;
    }
    return m;
  }

  void Corrupt(wire::ReportMessage* m, Rng& rng) const {
    const uint64_t domain = domains_[m->grid_index];
    const uint64_t points = pgr_points_[m->grid_index];
    std::visit(
        [&](auto& payload) {
          using T = std::decay_t<decltype(payload)>;
          if constexpr (std::is_same_v<T, uint64_t>) {
            payload = domain + rng.UniformU64(3);
          } else if constexpr (std::is_same_v<T, fo::OlhReport>) {
            if (rng.Bernoulli(0.5)) {
              payload.hashed_report = 0xffffffffu;
            } else {
              // A pool index on a per-user grid, or one past the pool.
              payload.seed_index = payload.seed_index == fo::OlhReport::kNoPool
                                       ? 0
                                       : 0xfffffffeu;
            }
          } else if constexpr (std::is_same_v<T, std::vector<uint8_t>>) {
            if (rng.Bernoulli(0.5)) {
              payload.push_back(0);
            } else {
              payload[rng.UniformU64(payload.size())] = 2;
            }
          } else if constexpr (std::is_same_v<T, uint32_t>) {
            payload = static_cast<uint32_t>(points + rng.UniformU64(3));
          } else {
            static_assert(std::is_same_v<T, fo::FldpReport>);
            if (rng.Bernoulli(0.5)) {
              payload.subset_index = 0xffffffffu;
            } else {
              payload.bits.push_back(1);
            }
          }
        },
        m->payload);
  }

  std::vector<uint64_t> domains_;
  std::vector<uint64_t> pgr_points_;
  std::vector<std::unique_ptr<fo::ReportClient>> clients_;
  std::vector<std::unique_ptr<fo::ReportClient>> foreign_;
};

std::vector<fo::OracleState> OracleStates(const core::FelipPipeline& p) {
  std::vector<fo::OracleState> states;
  const Status status = snapshot::PipelineCodec::DecodeOracleSection(
      snapshot::PipelineCodec::EncodeOracleSection(p), &states);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return states;
}

void ExpectSameOracleStates(const core::FelipPipeline& batched,
                            const core::FelipPipeline& reference) {
  const std::vector<fo::OracleState> a = OracleStates(batched);
  const std::vector<fo::OracleState> b = OracleStates(reference);
  ASSERT_EQ(a.size(), b.size());
  for (size_t g = 0; g < a.size(); ++g) {
    SCOPED_TRACE("grid " + std::to_string(g));
    EXPECT_EQ(a[g].protocol, b[g].protocol);
    EXPECT_EQ(a[g].num_reports, b[g].num_reports);
    EXPECT_EQ(a[g].counts, b[g].counts);
    EXPECT_EQ(a[g].pool_counts, b[g].pool_counts);
    EXPECT_EQ(a[g].reports, b[g].reports);
  }
}

TEST(SinkDifferentialTest, GridRunIngestMatchesReportByReportIngest) {
  obs::Counter& rejected_total = obs::Registry::Default().GetCounter(
      "felip_svc_reports_rejected_total");
  std::set<GridKind> kinds_covered;
  Rng rng(20261018);
  for (const Scenario& scenario : Scenarios()) {
    SCOPED_TRACE(scenario.name);
    core::FelipPipeline batched = NewPipeline(scenario);
    core::FelipPipeline reference = NewPipeline(scenario);
    for (const core::GridAssignment& a : reference.assignments()) {
      kinds_covered.insert(KindOf(a.plan.protocol, scenario.config));
    }
    PipelineSink sink(&batched);
    reference.BeginIngest();
    const FrameMaker maker(reference);

    uint64_t total_accepted = 0;
    uint64_t total_rejected = 0;
    // Empty and one-report frames, then frames up to a few hundred
    // reports, so most grids get runs of several reports per frame.
    for (int f = 0; f < 40; ++f) {
      const size_t size = f < 2 ? static_cast<size_t>(f)
                                : 1 + rng.UniformU64(400);
      const std::vector<wire::ReportMessage> frame = maker.Frame(size, rng);

      const uint64_t rejected_before = rejected_total.Value();
      const size_t accepted = sink.IngestBatch(frame);
      const uint64_t rejected_delta = rejected_total.Value() - rejected_before;

      size_t expected_accepted = 0;
      for (const wire::ReportMessage& m : frame) {
        expected_accepted += reference.IngestReports({&m, 1});
      }
      EXPECT_EQ(accepted, expected_accepted) << "frame " << f;
      EXPECT_EQ(rejected_delta, frame.size() - expected_accepted)
          << "frame " << f;
      EXPECT_EQ(batched.reports_ingested(), reference.reports_ingested())
          << "frame " << f;
      total_accepted += expected_accepted;
      total_rejected += frame.size() - expected_accepted;
    }
    EXPECT_EQ(sink.accepted(), total_accepted);
    EXPECT_EQ(sink.rejected(), total_rejected);
    // The frames exercise both outcomes on every scenario.
    EXPECT_GT(total_accepted, 0u);
    EXPECT_GT(total_rejected, 0u);
    ExpectSameOracleStates(batched, reference);
  }
  EXPECT_EQ(kinds_covered,
            (std::set<GridKind>{GridKind::kGrr, GridKind::kPooledOlh,
                                GridKind::kPerUserOlh, GridKind::kOue,
                                GridKind::kPgr, GridKind::kFldp}));
}

TEST(SinkDifferentialTest, CollectMatchesSimulatedIngest) {
  std::set<GridKind> kinds_covered;
  for (const Scenario& base : Scenarios()) {
    for (const core::PartitioningMode mode :
         {core::PartitioningMode::kDivideUsers,
          core::PartitioningMode::kDivideBudget}) {
      Scenario scenario = base;
      scenario.config.partitioning = mode;
      SCOPED_TRACE(scenario.name + (mode == core::PartitioningMode::kDivideUsers
                                        ? " / divide users"
                                        : " / divide budget"));
      const data::Dataset dataset = MixedData(scenario.num_users, 20261019);

      core::FelipPipeline collected = NewPipeline(scenario);
      collected.Collect(dataset);
      ASSERT_EQ(collected.state(), core::PipelineState::kSealed);

      core::FelipPipeline ingested = NewPipeline(scenario);
      std::vector<wire::GridConfigMessage> grid_configs;
      for (uint32_t g = 0; g < ingested.num_groups(); ++g) {
        grid_configs.push_back(wire::MakeGridConfig(
            ingested, scenario.schema, g, ingested.per_grid_epsilon(),
            scenario.config.protocol_options()));
        kinds_covered.insert(KindOf(ingested.assignments()[g].plan.protocol,
                                    scenario.config));
      }
      SimulatorOptions options;
      options.seed = scenario.config.seed;
      options.partitioning = mode;
      PipelineSink sink(&ingested);
      const std::optional<uint64_t> emitted =
          PopulationSimulator(std::move(grid_configs), options)
              .Run(dataset, [&](const std::vector<wire::ReportMessage>& b) {
                return sink.IngestBatch(b) == b.size();
              });
      ASSERT_TRUE(emitted.has_value());
      sink.Finish();
      const uint64_t reports_per_user =
          mode == core::PartitioningMode::kDivideUsers ? 1
                                                       : ingested.num_groups();
      EXPECT_EQ(*emitted, scenario.num_users * reports_per_user);
      EXPECT_EQ(ingested.reports_ingested(), *emitted);
      ExpectSameOracleStates(collected, ingested);
    }
  }
  EXPECT_EQ(kinds_covered,
            (std::set<GridKind>{GridKind::kGrr, GridKind::kPooledOlh,
                                GridKind::kPerUserOlh, GridKind::kOue,
                                GridKind::kPgr, GridKind::kFldp}));
}

}  // namespace
}  // namespace felip::svc
