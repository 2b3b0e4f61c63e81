// Ablation A6 — 1-D marginal reconstruction quality: FELIP's optimized 1-D
// grid (OLH over cells + within-cell uniformity) versus the Square Wave
// mechanism with EM reconstruction (Li et al., SIGMOD'20), at equal ε and
// population. Scores the MAE of random range queries against the exact
// marginal.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "felip/fo/frequency_oracle.h"
#include "felip/fo/registry.h"
#include "felip/fo/square_wave.h"
#include "felip/grid/grid.h"
#include "felip/grid/optimizer.h"
#include "felip/post/norm_sub.h"

namespace felip::bench {
namespace {

// Range-query MAE of a full per-value histogram estimate.
double HistogramRangeMae(const std::vector<double>& estimate,
                         const std::vector<double>& truth, Rng& rng,
                         uint32_t num_queries, double selectivity) {
  const auto domain = static_cast<uint32_t>(truth.size());
  const auto span = std::max<uint32_t>(
      1, static_cast<uint32_t>(std::llround(selectivity * domain)));
  double mae = 0.0;
  for (uint32_t q = 0; q < num_queries; ++q) {
    const auto lo = static_cast<uint32_t>(rng.UniformU64(domain - span + 1));
    double est = 0.0;
    double tru = 0.0;
    for (uint32_t v = lo; v < lo + span; ++v) {
      est += estimate[v];
      tru += truth[v];
    }
    mae += std::fabs(est - tru);
  }
  return mae / num_queries;
}

void Run() {
  const BenchDefaults d;
  const std::vector<double> epsilons = {0.25, 0.5, 1.0, 2.0, 4.0};
  constexpr uint32_t kDomain = 100;

  std::printf("Ablation A6 — 1-D marginal: optimized grid + OLH vs Square "
              "Wave + EM (n=%llu, d=%u, s=%.2f, |Q|=%u)\n\n",
              static_cast<unsigned long long>(d.n), kDomain, d.selectivity,
              d.num_queries);

  for (const DatasetSpec& spec : PaperDatasets()) {
    if (spec.name != "normal" && spec.name != "loan") continue;
    const data::Dataset dataset = spec.make(d.n, 1, 0, kDomain, 2, 211);
    // Exact marginal.
    std::vector<double> truth(kDomain, 0.0);
    for (const uint32_t v : dataset.Column(0)) truth[v] += 1.0;
    for (double& p : truth) p /= static_cast<double>(dataset.num_rows());

    eval::SeriesTable table(spec.name, "eps", {"grid+OLH", "SW+EM"});
    for (const double eps : epsilons) {
      Rng rng(311);

      // FELIP-style 1-D grid, sized by the optimizer (m = 1: the whole
      // population reports this one grid, matching SW's budget).
      grid::OptimizeParams params;
      params.epsilon = eps;
      params.n = d.n;
      params.m = 1;
      params.rx = d.selectivity;
      params.allow_grr = true;
      params.allow_olh = true;
      const grid::GridPlan plan =
          grid::Optimize1D({kDomain, false}, params);
      grid::Grid1D g(0, grid::Partition1D(kDomain, plan.lx));
      fo::ProtocolOptions options;
      options.olh.seed_pool_size = 4096;
      auto oracle =
          fo::MakeFrequencyOracle(plan.protocol, eps, plan.lx, options);
      for (const uint32_t v : dataset.Column(0)) {
        oracle->BufferUserValue(g.CellOf(v), rng);
      }
      oracle->FlushReports(1);
      std::vector<double> cell_freq = oracle->EstimateFrequencies().value();
      post::RemoveNegativity(&cell_freq);
      g.SetFrequencies(std::move(cell_freq));
      std::vector<double> grid_hist(kDomain);
      for (uint32_t c = 0; c < g.num_cells(); ++c) {
        const double density = g.frequencies()[c] /
                               static_cast<double>(g.partition().CellSize(c));
        for (uint32_t v = g.partition().CellBegin(c);
             v < g.partition().CellEnd(c); ++v) {
          grid_hist[v] = density;
        }
      }

      // Square Wave + EM over the same population.
      const fo::SwClient sw_client(eps, kDomain);
      fo::SwServer sw_server(eps, kDomain);
      for (const uint32_t v : dataset.Column(0)) {
        sw_server.Add(sw_client.Perturb(v, rng));
      }
      const std::vector<double> sw_hist = sw_server.EstimateFrequencies();

      Rng qrng(401);
      const double grid_mae = HistogramRangeMae(
          grid_hist, truth, qrng, d.num_queries, d.selectivity);
      Rng qrng2(401);
      const double sw_mae = HistogramRangeMae(sw_hist, truth, qrng2,
                                              d.num_queries, d.selectivity);
      table.AddRow(std::to_string(eps).substr(0, 4), {grid_mae, sw_mae});
    }
    table.Print();
  }
}

}  // namespace
}  // namespace felip::bench

int main() {
  felip::bench::Run();
  return 0;
}
