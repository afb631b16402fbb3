// E7 (§3): adding the Filter Join under Limitations 1-3 must not change
// the asymptotic complexity of join optimization. This bench sweeps the
// number of join inputs and reports optimizer effort (DP entries, join
// steps costed, planning time) for a classic System R, the paper's
// proposal, and the Limitation-2 ablation (prefix production sets), whose
// extra O(N) factor becomes visible in the step counts.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "src/common/logging.h"
#include "src/optimizer/optimizer.h"
#include "workloads/table_printer.h"
#include "workloads/workloads.h"

namespace magicdb::bench {
namespace {

struct Effort {
  int64_t steps;
  int64_t dp_entries;
  int64_t filter_joins;
  int64_t micros;
};

// Plannings per table cell. The cell's time is their median, so one run
// that the host preempts does not decide it; the counts are the same in
// every repeat (the optimizer is deterministic).
constexpr int kRepeats = 11;

Effort MeasurePlanning(Database* db, const std::string& query,
                       const OptimizerOptions& opts) {
  auto logical = db->Bind(query);
  MAGICDB_CHECK_OK(logical.status());
  Effort effort{};
  std::vector<int64_t> micros;
  for (int r = 0; r < kRepeats; ++r) {
    Optimizer optimizer(db->catalog(), opts);
    const auto start = std::chrono::steady_clock::now();
    auto plan = optimizer.Optimize(*logical);
    micros.push_back(std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    MAGICDB_CHECK_OK(plan.status());
    const OptimizerStats& stats = optimizer.stats();
    const Effort run{stats.join_steps_costed, stats.dp_entries,
                     stats.filter_joins_costed, 0};
    MAGICDB_CHECK(r == 0 || (run.steps == effort.steps &&
                             run.dp_entries == effort.dp_entries &&
                             run.filter_joins == effort.filter_joins));
    effort = run;
  }
  std::sort(micros.begin(), micros.end());
  effort.micros = micros[micros.size() / 2];
  return effort;
}

void PrintComplexityTable() {
  std::cout << "=== E7 / Section 3: optimization effort vs number of join "
               "inputs ===\n"
            << "star join of Fact with N dimension views; steps = (subset, "
               "inner, method) combinations costed; us = median of "
            << kRepeats << " plannings\n\n";
  TablePrinter table({"N inputs", "no FJ: steps", "no FJ: us",
                      "FJ+Limits: steps", "FJ+Limits: us",
                      "FJ+prefixes: steps", "FJ+prefixes: us",
                      "prefix/limit step ratio"});
  for (int dims : {2, 3, 4, 5, 6, 7}) {
    StarOptions sopts;
    sopts.num_dims = dims;
    sopts.fact_rows = 500;
    sopts.dim_rows = 50;
    sopts.view_dims = dims;  // every dimension is a virtual relation
    auto db = MakeStarDatabase(sopts);
    const std::string query = StarQuery(dims);

    OptimizerOptions no_fj;
    no_fj.magic_mode = OptimizerOptions::MagicMode::kNever;
    Effort a = MeasurePlanning(db.get(), query, no_fj);

    OptimizerOptions with_fj;  // paper defaults: Limitations 1-3 applied
    Effort b = MeasurePlanning(db.get(), query, with_fj);

    OptimizerOptions prefixes = with_fj;
    prefixes.explore_prefix_production_sets = true;
    Effort c = MeasurePlanning(db.get(), query, prefixes);

    table.AddRow({std::to_string(dims + 1), std::to_string(a.steps),
                  std::to_string(a.micros), std::to_string(b.steps),
                  std::to_string(b.micros), std::to_string(c.steps),
                  std::to_string(c.micros),
                  FormatCost(static_cast<double>(c.filter_joins) /
                             std::max<int64_t>(1, b.filter_joins))});
  }
  table.Print();
  std::cout << "\n(the last column is the Filter-Join costings ratio: the "
               "prefix ablation grows with chain length, the paper's "
               "limited search does not)\n\n";
}

void BM_OptimizeStar(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  StarOptions sopts;
  sopts.num_dims = dims;
  sopts.fact_rows = 500;
  sopts.dim_rows = 50;
  sopts.view_dims = dims;
  auto db = MakeStarDatabase(sopts);
  const std::string query = StarQuery(dims);
  auto logical = db->Bind(query);
  MAGICDB_CHECK_OK(logical.status());
  for (auto _ : state) {
    Optimizer optimizer(db->catalog());
    auto plan = optimizer.Optimize(*logical);
    MAGICDB_CHECK_OK(plan.status());
    benchmark::DoNotOptimize(plan->est_cost);
  }
}
BENCHMARK(BM_OptimizeStar)->Arg(3)->Arg(5)->Arg(7);

}  // namespace
}  // namespace magicdb::bench

int main(int argc, char** argv) {
  magicdb::bench::PrintComplexityTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
