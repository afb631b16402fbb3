// E3 (Table 1): the seven cost components of a Filter Join. For each
// workload the bench prints the optimizer's per-component prediction and
// compares the predicted total plan cost against the cost the executor
// actually measured (same units: page I/Os with CPU/communication
// weighting).

#include <benchmark/benchmark.h>

#include <iostream>

#include "src/common/logging.h"
#include "workloads/table_printer.h"
#include "workloads/workloads.h"

namespace magicdb::bench {
namespace {

void PrintComponentsFor(const std::string& label, const Figure1Options& opts) {
  auto db = MakeFigure1Database(opts);
  auto result = db->Run(kFigure1Query);
  MAGICDB_CHECK_OK(result.status());
  if (result->filter_joins.empty()) {
    std::cout << label << ": optimizer chose a non-FilterJoin plan "
              << "(est cost " << FormatCost(result->est_cost) << ")\n\n";
    return;
  }
  const FilterJoinCostBreakdown& bd = result->filter_joins[0];
  magicdb::FilterJoinMeasured ms;
  if (!result->filter_join_measured.empty()) {
    ms = result->filter_join_measured[0];
  }
  std::cout << "--- " << label << " ---\n";
  // Measured phases group JoinCost_P with ProductionCost_P (the outer is
  // drained and spooled in one pass) and FilterCost_Rk with AvailCost_Rk'
  // (pipelined); the table aligns the predictions the same way.
  TablePrinter table({"component (Table 1)", "predicted", "measured"});
  table.AddRow({"JoinCost_P + ProductionCost_P",
                FormatCost(bd.join_cost_p + bd.production_cost),
                FormatCost(ms.production)});
  table.AddRow({"ProjCost_F", FormatCost(bd.proj_cost),
                FormatCost(ms.projection)});
  table.AddRow({"AvailCost_F", FormatCost(bd.avail_cost_f),
                FormatCost(ms.avail_filter)});
  table.AddRow({"FilterCost_Rk + AvailCost_Rk'",
                FormatCost(bd.filter_cost_rk + bd.avail_cost_rk),
                FormatCost(ms.filter_inner)});
  table.AddRow({"FinalJoinCost", FormatCost(bd.final_join_cost),
                FormatCost(ms.final_join)});
  table.AddRow({"(total)", FormatCost(bd.join_cost_p + bd.StepTotal()),
                FormatCost(ms.Total())});
  table.Print();
  std::cout << "predicted |F| = " << FormatCost(bd.filter_set_size)
            << ", predicted |Rk'| = " << FormatCost(bd.restricted_rows)
            << "\n";
  std::cout << "whole plan: predicted = " << FormatCost(result->est_cost)
            << ", measured = "
            << FormatCost(result->counters.TotalCost())
            << " (ratio "
            << FormatCost(result->counters.TotalCost() /
                          std::max(1e-9, result->est_cost))
            << ")\n";
  std::cout << "measured counters: " << result->counters.ToString() << "\n\n";
}

void PrintTable1() {
  std::cout << "=== E3 / Table 1: Filter Join cost components, predicted "
               "vs measured ===\n\n";
  Figure1Options selective;
  selective.num_depts = 1000;
  selective.emps_per_dept = 5;
  selective.young_frac = 0.02;
  selective.big_frac = 0.02;
  PrintComponentsFor("highly selective (2% qualify)", selective);

  Figure1Options moderate;
  moderate.num_depts = 500;
  moderate.emps_per_dept = 10;
  moderate.young_frac = 0.2;
  moderate.big_frac = 0.2;
  PrintComponentsFor("moderately selective (20% qualify)", moderate);

  Figure1Options remote = selective;
  remote.dept_site = 1;
  PrintComponentsFor("distributed variant (Dept at site 1)", remote);
}

void BM_FilterJoinExecution(benchmark::State& state) {
  Figure1Options opts;
  opts.num_depts = 500;
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
BENCHMARK(BM_FilterJoinExecution);

}  // namespace
}  // namespace magicdb::bench

int main(int argc, char** argv) {
  magicdb::bench::PrintTable1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
