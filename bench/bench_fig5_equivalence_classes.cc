// E5 (Figure 5): the number of equivalence classes is a performance knob —
// more classes mean more nested optimizer invocations (higher optimization
// cost) but tighter cost/cardinality estimates. This bench sweeps the knob
// and reports optimization effort against estimate accuracy (predicted vs
// measured execution cost of the chosen plan).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <iostream>

#include "src/common/logging.h"
#include "workloads/table_printer.h"
#include "workloads/workloads.h"

namespace magicdb::bench {
namespace {

void PrintKnobTable() {
  std::cout << "=== E5 / Figure 5: equivalence classes as the "
               "optimization-cost vs accuracy knob ===\n\n";
  TablePrinter table({"eq. classes", "nested plans (misses)", "cache hits",
                      "planning us", "est cost", "measured cost",
                      "est/measured"});
  for (int k : {1, 2, 4, 8, 16}) {
    Figure1Options opts;
    opts.num_depts = 600;
    opts.emps_per_dept = 5;
    opts.young_frac = 0.1;
    opts.big_frac = 0.1;
    auto db = MakeFigure1Database(opts);
    db->mutable_optimizer_options()->equivalence_classes = k;

    const auto start = std::chrono::steady_clock::now();
    auto result = db->Run(kFigure1Query);
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    MAGICDB_CHECK_OK(result.status());
    const double measured = result->counters.TotalCost();
    table.AddRow({std::to_string(k),
                  std::to_string(result->optimizer_stats.eq_class_misses),
                  std::to_string(result->optimizer_stats.eq_class_hits),
                  std::to_string(elapsed.count()),
                  FormatCost(result->est_cost), FormatCost(measured),
                  FormatCost(result->est_cost / std::max(1e-9, measured))});
  }
  table.Print();
  std::cout << "\n(planning time includes parse+bind+optimize+execute; the "
               "nested-plan count is the knob's direct effect)\n\n";
}

void BM_OptimizeWithKnob(benchmark::State& state) {
  Figure1Options opts;
  opts.num_depts = 400;
  opts.emps_per_dept = 5;
  auto db = MakeFigure1Database(opts);
  db->mutable_optimizer_options()->equivalence_classes =
      static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto explain = db->Explain(kFigure1Query);
    MAGICDB_CHECK_OK(explain.status());
    benchmark::DoNotOptimize(*explain);
  }
}
BENCHMARK(BM_OptimizeWithKnob)->Arg(1)->Arg(4)->Arg(16);

}  // namespace
}  // namespace magicdb::bench

int main(int argc, char** argv) {
  magicdb::bench::PrintKnobTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
