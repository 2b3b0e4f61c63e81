// felip_cli — run a full FELIP (or baseline) experiment from the command
// line, on a synthetic dataset or a CSV file.
//
// Examples:
//   felip_cli --dataset=ipums --method=OHG --epsilon=1 --users=200000 \
//             --lambda=3 --queries=10
//   felip_cli --dataset=csv --csv=loans.csv \
//             --csv-columns=grade:cat,loan_amnt:num:100,int_rate:num:64 \
//             --method=OHG --epsilon=0.5
//   felip_cli --list-methods

#include <cstdio>
#include <string>
#include <vector>

#include "felip/common/flags.h"
#include "felip/common/rng.h"
#include "felip/data/csv_loader.h"
#include "felip/data/synthetic.h"
#include "felip/eval/harness.h"
#include "felip/obs/metrics.h"
#include "felip/query/generator.h"
#include "felip/query/query.h"

namespace {

using namespace felip;

void PrintUsage() {
  std::printf(
      "felip_cli — LDP multidimensional frequency estimation (FELIP)\n\n"
      "  --dataset=uniform|normal|ipums|loan|csv   (default ipums)\n"
      "  --method=<name>         see --list-methods (default OHG)\n"
      "  --epsilon=<float>       privacy budget (default 1.0)\n"
      "  --users=<int>           population size (default 100000)\n"
      "  --attributes=<int>      attribute count for synthetic data (default 6)\n"
      "  --num-domain=<int>      numerical domain (default 100)\n"
      "  --cat-domain=<int>      categorical domain (default 8)\n"
      "  --lambda=<int>          query dimension (default 2)\n"
      "  --selectivity=<float>   per-attribute selectivity (default 0.5)\n"
      "  --queries=<int>         number of random queries (default 10)\n"
      "  --range-only            numerical BETWEEN predicates only\n"
      "  --seed=<int>            RNG seed (default 1)\n"
      "  --csv=<path>            CSV input (with --dataset=csv)\n"
      "  --csv-columns=spec      name:cat | name:num:domain, comma separated\n"
      "  --metrics               dump observability metrics to stderr at exit\n"
      "  --list-methods          print the method registry and exit\n");
}

// Parses "name:cat,name:num:domain,...".
bool ParseCsvColumns(const std::string& spec,
                     std::vector<data::CsvColumnSpec>* columns) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string field = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const size_t c1 = field.find(':');
    if (c1 == std::string::npos) return false;
    data::CsvColumnSpec column;
    column.name = field.substr(0, c1);
    const std::string rest = field.substr(c1 + 1);
    if (rest == "cat") {
      column.categorical = true;
    } else if (rest.rfind("num:", 0) == 0) {
      column.categorical = false;
      column.domain =
          static_cast<uint32_t>(std::strtoul(rest.c_str() + 4, nullptr, 10));
      if (column.domain == 0) return false;
    } else {
      return false;
    }
    columns->push_back(std::move(column));
  }
  return !columns->empty();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);

  // Read every recognized flag before validating, so unknown-flag
  // rejection also covers the --help / --list-methods early-return paths.
  const bool show_help = flags.GetBool("help", false);
  const bool list_methods = flags.GetBool("list-methods", false);
  const std::string dataset_name = flags.GetString("dataset", "ipums");
  const std::string method = flags.GetString("method", "OHG");
  const uint64_t users = flags.GetUint("users", 100000);
  const auto attributes =
      static_cast<uint32_t>(flags.GetUint("attributes", 6));
  const auto num_domain =
      static_cast<uint32_t>(flags.GetUint("num-domain", 100));
  const auto cat_domain =
      static_cast<uint32_t>(flags.GetUint("cat-domain", 8));
  const auto lambda = static_cast<uint32_t>(flags.GetUint("lambda", 2));
  const double selectivity = flags.GetDouble("selectivity", 0.5);
  const auto num_queries =
      static_cast<uint32_t>(flags.GetUint("queries", 10));
  const bool range_only = flags.GetBool("range-only", false);
  const bool dump_metrics = flags.GetBool("metrics", false);
  const uint64_t seed = flags.GetUint("seed", 1);
  const std::string csv_path = flags.GetString("csv", "");
  const std::string csv_columns = flags.GetString("csv-columns", "");
  const double epsilon = flags.GetDouble("epsilon", 1.0);

  if (!flags.CheckAllConsumed()) {
    std::fprintf(stderr, "\n");
    PrintUsage();
    return 2;
  }

  if (show_help) {
    PrintUsage();
    return 0;
  }
  if (list_methods) {
    for (const std::string& m : eval::KnownMethods()) {
      std::printf("%s\n", m.c_str());
    }
    return 0;
  }

  bool known_method = false;
  for (const std::string& m : eval::KnownMethods()) known_method |= m == method;
  if (!known_method) {
    std::fprintf(stderr, "unknown method '%s'; see --list-methods\n",
                 method.c_str());
    return 2;
  }

  // --- Dataset ---
  data::Dataset dataset({{"placeholder", 1, false}});
  const uint32_t kn = attributes / 2 + attributes % 2;
  const uint32_t kc = attributes / 2;
  if (dataset_name == "uniform") {
    dataset = data::MakeUniform(users, kn, kc, num_domain, cat_domain, seed);
  } else if (dataset_name == "normal") {
    dataset = data::MakeNormal(users, kn, kc, num_domain, cat_domain, seed);
  } else if (dataset_name == "ipums") {
    dataset =
        data::MakeIpumsLike(users, attributes, num_domain, cat_domain, seed);
  } else if (dataset_name == "loan") {
    dataset =
        data::MakeLoanLike(users, attributes, num_domain, cat_domain, seed);
  } else if (dataset_name == "csv") {
    std::vector<data::CsvColumnSpec> columns;
    if (csv_path.empty() || !ParseCsvColumns(csv_columns, &columns)) {
      std::fprintf(stderr,
                   "--dataset=csv needs --csv=<path> and --csv-columns\n");
      return 2;
    }
    auto loaded = data::LoadCsv(csv_path, columns, users);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "failed to load %s\n", csv_path.c_str());
      return 1;
    }
    if (loaded->rows_skipped > 0) {
      std::fprintf(stderr, "note: skipped %llu unparsable rows\n",
                   static_cast<unsigned long long>(loaded->rows_skipped));
    }
    dataset = std::move(loaded->dataset);
  } else {
    std::fprintf(stderr, "unknown dataset '%s' (see --help)\n",
                 dataset_name.c_str());
    return 2;
  }

  // --- Workload ---
  Rng rng(seed + 7);
  const std::vector<query::Query> queries = query::GenerateQueries(
      dataset, num_queries,
      {.dimension = lambda, .selectivity = selectivity,
       .range_only = range_only},
      rng);
  std::vector<double> truths;
  truths.reserve(queries.size());
  for (const query::Query& q : queries) {
    truths.push_back(query::TrueAnswer(dataset, q));
  }

  // --- Run ---
  eval::ExperimentParams params;
  params.epsilon = epsilon;
  params.selectivity_prior = selectivity;
  params.seed = seed;
  const std::vector<double> estimates =
      eval::RunMethod(method, dataset, queries, params);

  std::printf("method=%s dataset=%s n=%llu eps=%.3f lambda=%u s=%.2f\n\n",
              method.c_str(), dataset_name.c_str(),
              static_cast<unsigned long long>(dataset.num_rows()),
              params.epsilon, lambda, selectivity);
  std::printf("%-8s %12s %12s %12s\n", "query", "estimate", "exact",
              "abs error");
  for (size_t i = 0; i < queries.size(); ++i) {
    const double err = estimates[i] > truths[i] ? estimates[i] - truths[i]
                                                : truths[i] - estimates[i];
    std::printf("%-8zu %12.5f %12.5f %12.5f\n", i, estimates[i], truths[i],
                err);
  }
  std::printf("\nMAE = %.5f\n",
              eval::MeanAbsoluteError(estimates, truths));
  if (dump_metrics) {
    const std::string text = obs::Registry::Default().RenderText();
    std::fwrite(text.data(), 1, text.size(), stderr);
  }
  return 0;
}
