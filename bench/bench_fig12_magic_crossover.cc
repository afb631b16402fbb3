// E1 (Figures 1 and 2): execution cost of the motivating query under the
// original plan (no magic), the magic-rewritten plan (Filter Join forced),
// and the cost-based optimizer's choice, as the fraction of qualifying
// departments sweeps from very selective to non-selective.
//
// Paper claim: magic wins by orders of magnitude when few departments are
// big/young, and *loses* when every department qualifies; the cost-based
// optimizer should track the winner on both sides of the crossover.

#include <benchmark/benchmark.h>

#include <iostream>

#include "src/common/logging.h"
#include "workloads/table_printer.h"
#include "workloads/workloads.h"

namespace magicdb::bench {
namespace {

double MeasuredCost(Database* db, const char* query,
                    OptimizerOptions::MagicMode mode) {
  db->mutable_optimizer_options()->magic_mode = mode;
  auto result = db->Run(query);
  MAGICDB_CHECK_OK(result.status());
  return result->counters.TotalCost();
}

void PrintCrossoverTable() {
  std::cout << "=== E1 / Figures 1-2: magic-vs-original crossover "
               "(Emp=5000, Dept=1000) ===\n"
            << "cost unit = one page I/O; qualifying fraction applies to "
               "both D.budget and E.age predicates\n\n";
  TablePrinter table({"qualify_frac", "original(no magic)", "always magic",
                      "cost-based choice", "chosen plan uses FilterJoin",
                      "speedup best/orig"});
  for (double frac : {0.001, 0.01, 0.05, 0.2, 0.5, 0.8, 1.0}) {
    Figure1Options opts;
    opts.num_depts = 1000;
    opts.emps_per_dept = 5;
    opts.young_frac = frac;
    opts.big_frac = frac;
    auto db = MakeFigure1Database(opts);

    const double original = MeasuredCost(
        db.get(), kFigure1Query, OptimizerOptions::MagicMode::kNever);
    const double always = MeasuredCost(
        db.get(), kFigure1Query,
        OptimizerOptions::MagicMode::kAlwaysOnVirtual);
    db->mutable_optimizer_options()->magic_mode =
        OptimizerOptions::MagicMode::kCostBased;
    auto chosen = db->Run(kFigure1Query);
    MAGICDB_CHECK_OK(chosen.status());
    const double cost_based = chosen->counters.TotalCost();

    table.AddRow({FormatCost(frac), FormatCost(original), FormatCost(always),
                  FormatCost(cost_based),
                  chosen->filter_joins.empty() ? "no" : "yes",
                  FormatCost(original / std::max(1e-9, cost_based))});
  }
  table.Print();
  std::cout << "\n";
}

void PrintExpensiveViewTable() {
  std::cout << "=== E1b: expensive view (join + aggregate inside) — the "
               "regime of the paper's orders-of-magnitude claims ===\n"
            << "DepComp joins Emp with Bonus before aggregating; magic "
               "restricts both.\n\n";
  TablePrinter table({"qualify_frac", "original(no magic)",
                      "cost-based choice", "uses FilterJoin",
                      "speedup best/orig"});
  for (double frac : {0.005, 0.02, 0.1, 0.3, 0.7, 1.0}) {
    ExpensiveViewOptions opts;
    opts.num_depts = 2500;
    opts.emps_per_dept = 5;
    opts.bonuses_per_emp = 6;
    opts.young_frac = frac;
    opts.big_frac = frac;
    auto db = MakeExpensiveViewDatabase(opts);

    const double original = MeasuredCost(
        db.get(), kExpensiveViewQuery, OptimizerOptions::MagicMode::kNever);
    db->mutable_optimizer_options()->magic_mode =
        OptimizerOptions::MagicMode::kCostBased;
    auto chosen = db->Run(kExpensiveViewQuery);
    MAGICDB_CHECK_OK(chosen.status());
    const double cost_based = chosen->counters.TotalCost();

    table.AddRow({FormatCost(frac), FormatCost(original),
                  FormatCost(cost_based),
                  chosen->filter_joins.empty() ? "no" : "yes",
                  FormatCost(original / std::max(1e-9, cost_based))});
  }
  table.Print();
  std::cout << "\n";
}

void BM_Figure1CostBased(benchmark::State& state) {
  Figure1Options opts;
  opts.num_depts = static_cast<int>(state.range(0));
  opts.emps_per_dept = 5;
  opts.young_frac = 0.05;
  opts.big_frac = 0.05;
  auto db = MakeFigure1Database(opts);
  for (auto _ : state) {
    auto result = db->Run(kFigure1Query);
    MAGICDB_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->rows);
  }
}
BENCHMARK(BM_Figure1CostBased)->Arg(100)->Arg(500);

void BM_Figure1NoMagic(benchmark::State& state) {
  Figure1Options opts;
  opts.num_depts = static_cast<int>(state.range(0));
  opts.emps_per_dept = 5;
  opts.young_frac = 0.05;
  opts.big_frac = 0.05;
  auto db = MakeFigure1Database(opts);
  db->mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kNever;
  for (auto _ : state) {
    auto result = db->Run(kFigure1Query);
    MAGICDB_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->rows);
  }
}
BENCHMARK(BM_Figure1NoMagic)->Arg(100)->Arg(500);

}  // namespace
}  // namespace magicdb::bench

int main(int argc, char** argv) {
  magicdb::bench::PrintCrossoverTable();
  magicdb::bench::PrintExpensiveViewTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
