// Thread-count curves of the two Finalize loops that once ran on
// ParallelFor: pooled-OLH estimation (one loop over a grid's cell domain
// per OLH grid) and the response-matrix builds (one loop over the
// attribute pairs). Each loop runs through ParallelFor at 1, 2 and 4
// threads on a round-benchmark-shaped pipeline (OHG, eps = 1, AFO over
// GRR/OLH with the 4096-seed pool, 10^6 ipums-like users): paper_round
// (6 attributes, domain 100) and query_mix (8 attributes, domain 256).
// One thread is the calling thread, which is how Finalize runs both loops.
//
// Wall time comes from steady_clock and CPU time from the process CPU
// clock, which also counts the worker threads; the table reports the
// median and the minimum over the repetitions, thread counts interleaved.
//
//   ./bench/finalize_threads [repetitions]     (default 9)
//
// results/finalize_threads.txt holds a recorded run.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "felip/common/parallel.h"
#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/fo/olh.h"
#include "felip/post/response_matrix.h"
#include "felip/simd/dispatch.h"

namespace felip {
namespace {

constexpr uint64_t kUsers = 1000000;
constexpr unsigned kThreads[] = {1, 2, 4};

struct Shape {
  const char* name;
  uint32_t attributes;
  uint32_t num_domain;
};

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

struct Sample {
  double wall_ms;
  double cpu_ms;
};

Sample Time(const std::function<void()>& body) {
  const double cpu0 = ProcessCpuSeconds();
  const auto wall0 = std::chrono::steady_clock::now();
  body();
  const std::chrono::duration<double, std::milli> wall =
      std::chrono::steady_clock::now() - wall0;
  return {wall.count(), (ProcessCpuSeconds() - cpu0) * 1e3};
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double Min(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

// One loop of Finalize at a given thread count.
struct Site {
  std::string name;
  std::function<void(unsigned threads)> run;
};

void Report(const Shape& shape, const std::vector<Site>& sites,
            int repetitions) {
  for (const Site& site : sites) {
    std::vector<std::vector<double>> wall(std::size(kThreads));
    std::vector<std::vector<double>> cpu(std::size(kThreads));
    site.run(1);  // warm caches and allocators once
    for (int r = 0; r < repetitions; ++r) {
      for (size_t t = 0; t < std::size(kThreads); ++t) {
        const Sample s = Time([&] { site.run(kThreads[t]); });
        wall[t].push_back(s.wall_ms);
        cpu[t].push_back(s.cpu_ms);
      }
    }
    for (size_t t = 0; t < std::size(kThreads); ++t) {
      std::printf("%-11s %-22s %7u %10.2f %10.2f %10.2f %10.2f\n",
                  shape.name, site.name.c_str(), kThreads[t],
                  Median(wall[t]), Min(wall[t]), Median(cpu[t]),
                  Min(cpu[t]));
    }
  }
}

void RunShape(const Shape& shape, int repetitions) {
  const data::Dataset dataset = data::MakeIpumsLike(
      kUsers, shape.attributes, shape.num_domain, /*categorical_domain=*/8,
      /*seed=*/8765);
  core::FelipConfig config;
  config.strategy = core::Strategy::kOhg;
  config.epsilon = 1.0;
  const core::FelipPipeline pipeline = core::RunFelip(dataset, config);

  // Pooled-OLH estimation: a server per planned OLH grid at the grid's
  // budget and cell domain. Its cost is K hashes per cell whatever the
  // reports, so a few thousand reports stand in for the round.
  std::vector<fo::OlhServer> servers;
  for (const core::GridAssignment& a : pipeline.assignments()) {
    if (a.plan.protocol != fo::Protocol::kOlh) continue;
    const uint64_t domain = static_cast<uint64_t>(a.plan.lx) * a.plan.ly;
    const double eps = pipeline.per_grid_epsilon();
    const fo::OlhClient client(eps, domain, config.olh_options);
    fo::OlhServer server(eps, domain, config.olh_options);
    Rng rng(99);
    for (uint64_t i = 0; i < 4096; ++i) {
      server.Add(client.Perturb(i % domain, rng));
    }
    servers.push_back(std::move(server));
  }
  const auto estimate = [&servers](unsigned threads) {
    for (const fo::OlhServer& server : servers) {
      std::vector<double> freq(server.domain());
      ParallelFor(
          freq.size(), [&](size_t v) { freq[v] = server.EstimateValue(v); },
          threads);
    }
  };

  // Response matrices: every pair's Build from the finalized grids.
  const auto& g1 = pipeline.grids_1d();
  const auto& g2 = pipeline.grids_2d();
  const auto one_dim = [&g1](uint32_t attr) -> const grid::Grid1D* {
    for (const grid::Grid1D& g : g1) {
      if (g.attr() == attr) return &g;
    }
    return nullptr;
  };
  const auto build = [&](unsigned threads) {
    std::vector<post::ResponseMatrix> matrices(g2.size());
    ParallelFor(
        g2.size(),
        [&](size_t i) {
          matrices[i] = post::ResponseMatrix::Build(
              g2[i], one_dim(g2[i].attr_x()), one_dim(g2[i].attr_y()),
              config.response_matrix_options);
        },
        threads);
  };

  std::printf("# %s: %zu pooled-OLH grids, %zu pairs\n", shape.name,
              servers.size(), g2.size());
  Report(shape,
         {{"pooled_olh_estimation", estimate},
          {"response_matrices", build}},
         repetitions);
}

}  // namespace
}  // namespace felip

int main(int argc, char** argv) {
  const int repetitions = argc > 1 ? std::atoi(argv[1]) : 9;
  if (repetitions < 1) {
    std::fprintf(stderr, "usage: finalize_threads [repetitions >= 1]\n");
    return 2;
  }
  std::printf("# simd dispatch: %s; hardware threads: %u; repetitions: %d\n",
              felip::simd::DescribeDispatch().c_str(),
              std::thread::hardware_concurrency(), repetitions);
  std::printf("# %-9s %-22s %7s %10s %10s %10s %10s\n", "workload", "site",
              "threads", "wall_ms", "wall_min", "cpu_ms", "cpu_min");
  felip::RunShape({"paper_round", 6, 100}, repetitions);
  felip::RunShape({"query_mix", 8, 256}, repetitions);
  return 0;
}
