// E12 (§3.3): ablation of the three search-space limitations. Reports, for
// each configuration, the optimizer effort and the quality (estimated and
// measured cost) of the chosen plan:
//   - all limitations (the paper's proposal),
//   - Limitation 2 relaxed (all production-set prefixes explored),
//   - Limitation 3 narrowed to exact-only / Bloom-only filter sets,
//   - Filter Join disabled entirely (classic System R).

#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <iostream>

#include "src/common/logging.h"
#include "workloads/table_printer.h"
#include "workloads/workloads.h"

namespace magicdb::bench {
namespace {

void AddConfigRow(TablePrinter* table, Database* db,
                  const std::string& label,
                  const std::function<void(OptimizerOptions*)>& configure) {
  OptimizerOptions opts;
  configure(&opts);
  *db->mutable_optimizer_options() = opts;
  const auto start = std::chrono::steady_clock::now();
  auto result = db->Run(kExpensiveViewQuery);
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  if (!result.ok()) {
    table->AddRow({label, "-", "-", "-", "-", "-"});
    return;
  }
  table->AddRow({label,
                 std::to_string(result->optimizer_stats.filter_joins_costed),
                 std::to_string(result->optimizer_stats.join_steps_costed),
                 std::to_string(micros), FormatCost(result->est_cost),
                 FormatCost(result->counters.TotalCost())});
}

void PrintLimitationsTable() {
  std::cout << "=== E12 / Section 3.3: limitations ablation (expensive-view "
               "workload, 3% qualify) ===\n\n";
  ExpensiveViewOptions opts;
  opts.num_depts = 800;
  opts.emps_per_dept = 5;
  opts.bonuses_per_emp = 4;
  opts.young_frac = 0.03;
  opts.big_frac = 0.03;
  auto db = MakeExpensiveViewDatabase(opts);

  TablePrinter table({"configuration", "FJ costings", "join steps",
                      "plan+exec us", "est cost", "measured cost"});
  AddConfigRow(&table, db.get(), "Limitations 1-3 (paper default)",
               [](OptimizerOptions*) {});
  AddConfigRow(&table, db.get(), "Limitation 2 off (prefix productions)",
               [](OptimizerOptions* o) {
                 o->explore_prefix_production_sets = true;
               });
  AddConfigRow(&table, db.get(), "Limitation 3: exact filter sets only",
               [](OptimizerOptions* o) {
                 o->consider_bloom_filter_sets = false;
               });
  AddConfigRow(&table, db.get(), "Limitation 3: Bloom filter sets only",
               [](OptimizerOptions* o) {
                 o->consider_exact_filter_sets = false;
               });
  AddConfigRow(&table, db.get(), "Limitation 3 + partial-key filter sets",
               [](OptimizerOptions* o) {
                 o->consider_partial_key_filter_sets = true;
               });
  AddConfigRow(&table, db.get(), "Filter Join disabled (System R baseline)",
               [](OptimizerOptions* o) {
                 o->magic_mode = OptimizerOptions::MagicMode::kNever;
               });
  table.Print();
  std::cout << "\n(the prefix ablation multiplies FJ costings without "
               "improving this plan; Bloom-only forfeits the join-style "
               "rewrite and its index-driven restriction)\n\n";
}

void BM_LimitationsDefault(benchmark::State& state) {
  ExpensiveViewOptions opts;
  opts.num_depts = 400;
  auto db = MakeExpensiveViewDatabase(opts);
  for (auto _ : state) {
    auto result = db->Run(kExpensiveViewQuery);
    MAGICDB_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->rows);
  }
}
BENCHMARK(BM_LimitationsDefault);

}  // namespace
}  // namespace magicdb::bench

int main(int argc, char** argv) {
  magicdb::bench::PrintLimitationsTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
