// Production workflow: load a CSV extract, collect it under LDP, persist
// the aggregator's estimated state as a snapshot, then answer analyst
// queries from the reloaded snapshot — no re-collection, no raw data.
//
//   $ ./build/examples/csv_snapshot_workflow

#include <cstdio>
#include <fstream>
#include <string>

#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/csv_loader.h"
#include "felip/query/query.h"

namespace {

// Writes a small synthetic "loan applications" CSV so the example is
// self-contained; in real use this is your extract.
std::string WriteDemoCsv() {
  const std::string path = "/tmp/felip_demo_loans.csv";
  std::ofstream out(path);
  out << "grade,loan_amnt,int_rate\n";
  felip::Rng rng(77);
  const char* grades[] = {"A", "B", "C", "D"};
  for (int i = 0; i < 50000; ++i) {
    const auto grade = static_cast<size_t>(rng.Zipf(4, 1.2));
    const double amount = 1000.0 + rng.UniformDouble() * 39000.0;
    const double rate = 5.0 + grade * 4.0 + rng.Gaussian() * 1.5;
    out << grades[grade] << ',' << amount << ',' << rate << '\n';
  }
  return path;
}

}  // namespace

int main() {
  using namespace felip;

  // 1. Load the CSV: dictionary-encode `grade`, quantize the numerics
  //    (equi-depth for the heavy-tailed amounts).
  const std::string csv_path = WriteDemoCsv();
  auto loaded = data::LoadCsv(
      csv_path, {
                    {.name = "grade", .categorical = true},
                    {.name = "loan_amnt", .categorical = false, .domain = 64,
                     .equi_depth = true},
                    {.name = "int_rate", .categorical = false, .domain = 64},
                });
  if (!loaded.has_value()) {
    std::fprintf(stderr, "failed to load %s\n", csv_path.c_str());
    return 1;
  }
  std::printf("loaded %llu rows (%llu skipped)\n",
              static_cast<unsigned long long>(loaded->dataset.num_rows()),
              static_cast<unsigned long long>(loaded->rows_skipped));

  // 2. One LDP collection round.
  core::FelipConfig config;
  config.epsilon = 1.0;
  config.default_selectivity = 0.4;
  const core::FelipPipeline pipeline = core::RunFelip(loaded->dataset,
                                                      config);

  // 3. Persist the aggregator state (the FSNP container: config, schema
  //    and estimates, committed atomically).
  const std::string snapshot_path = "/tmp/felip_demo.snapshot";
  if (!pipeline.SaveSnapshot(snapshot_path).ok()) {
    std::fprintf(stderr, "snapshot save failed\n");
    return 1;
  }

  // 4. Later (or elsewhere): reload and answer. The raw reports and the
  //    dataset are no longer needed.
  const auto restored = core::FelipPipeline::LoadSnapshot(snapshot_path);
  if (!restored.ok()) {
    std::fprintf(stderr, "snapshot load failed\n");
    return 1;
  }
  // "grade in {B, C} AND int_rate in the top half".
  const query::Query q({
      {.attr = 0, .op = query::Op::kIn, .values = {1, 2}},
      {.attr = 2, .op = query::Op::kBetween, .lo = 32, .hi = 63},
  });
  std::printf("snapshot answer:  %.4f\n", restored->AnswerQuery(q));
  std::printf("original answer:  %.4f\n", pipeline.AnswerQuery(q));
  std::printf("exact answer:     %.4f\n",
              query::TrueAnswer(loaded->dataset, q));

  std::remove(csv_path.c_str());
  std::remove(snapshot_path.c_str());
  return 0;
}
