// E8 (§5.1): distributed joins. Reproduces the SDD-1 vs System R* debate:
// semi-join (a distributed Filter Join) wins when the filter is selective
// and tuples are wide (communication-dominated); fetch-inner wins when the
// filter removes little; fetch-matches wins for tiny outers. The cost-based
// optimizer should pick the winner in each regime.

#include <benchmark/benchmark.h>

#include <functional>
#include <iostream>

#include "src/common/logging.h"
#include "workloads/table_printer.h"
#include "workloads/workloads.h"

namespace magicdb::bench {
namespace {

std::string RunWith(Database* db, const std::string& query,
                    const std::function<void(OptimizerOptions*)>& configure,
                    double* cost_out = nullptr) {
  OptimizerOptions opts;
  configure(&opts);
  *db->mutable_optimizer_options() = opts;
  auto result = db->Run(query);
  if (!result.ok()) return "-";
  if (cost_out != nullptr) *cost_out = result->counters.TotalCost();
  return FormatCost(result->counters.TotalCost());
}

void ForceFetchMatches(OptimizerOptions* o) {
  o->enable_nested_loops = false;
  o->enable_hash_join = false;
  o->enable_sort_merge = false;
  o->magic_mode = OptimizerOptions::MagicMode::kNever;
  o->filter_join_on_stored = false;
}

void ForceFetchInner(OptimizerOptions* o) {
  o->enable_nested_loops = false;
  o->enable_index_nested_loops = false;
  o->enable_sort_merge = false;
  o->magic_mode = OptimizerOptions::MagicMode::kNever;
  o->filter_join_on_stored = false;
}

void ForceSemiJoin(OptimizerOptions* o) {
  o->enable_nested_loops = false;
  o->enable_index_nested_loops = false;
  o->enable_sort_merge = false;
  o->magic_mode = OptimizerOptions::MagicMode::kAlwaysOnVirtual;
  o->consider_bloom_filter_sets = false;
}

void PrintSelectivitySweep() {
  std::cout << "=== E8 / Section 5.1: distributed join strategies vs filter "
               "selectivity ===\n"
            << "R local (500 rows), S remote at site 1 (20000 rows, wide "
               "tuples); sweep = distinct R keys\n\n";
  TablePrinter table({"R distinct keys", "fetch matches", "fetch inner",
                      "semi-join (filter join)", "optimizer choice",
                      "optimizer picked"});
  for (int r_keys : {5, 20, 100, 500, 2000}) {
    TwoTableOptions opts;
    opts.r_rows = 500;
    opts.s_rows = 20000;
    opts.r_keys = r_keys;
    opts.s_keys = 2000;
    opts.payload_cols = 8;  // wide tuples: shipping dominates
    opts.s_site = 1;
    auto db = MakeTwoTableDatabase(opts);

    const std::string fm =
        RunWith(db.get(), kTwoTableQuery, ForceFetchMatches);
    const std::string fi = RunWith(db.get(), kTwoTableQuery, ForceFetchInner);
    const std::string sj = RunWith(db.get(), kTwoTableQuery, ForceSemiJoin);
    double chosen_cost = 0;
    const std::string chosen = RunWith(
        db.get(), kTwoTableQuery, [](OptimizerOptions*) {}, &chosen_cost);

    db->mutable_optimizer_options()->magic_mode =
        OptimizerOptions::MagicMode::kCostBased;
    auto plan = db->Run(kTwoTableQuery);
    std::string what = "?";
    if (plan.ok()) {
      if (!plan->filter_joins.empty()) {
        what = "semi-join";
      } else if (plan->explain.find("remote") != std::string::npos) {
        what = "fetch matches";
      } else {
        what = "fetch inner";
      }
    }
    table.AddRow({std::to_string(r_keys), fm, fi, sj, chosen, what});
  }
  table.Print();
  std::cout << "\n";
}

void PrintWidthSweep() {
  std::cout << "--- communication/local cost ratio sweep (payload width) "
               "---\n\n";
  TablePrinter table({"payload cols", "fetch inner", "semi-join",
                      "semi-join wins"});
  for (int width : {1, 2, 4, 8, 16}) {
    TwoTableOptions opts;
    opts.r_rows = 400;
    opts.s_rows = 20000;
    opts.r_keys = 50;
    opts.s_keys = 2000;
    opts.payload_cols = width;
    opts.s_site = 1;
    auto db = MakeTwoTableDatabase(opts);
    double fi_cost = 0, sj_cost = 0;
    RunWith(db.get(), kTwoTableQuery, ForceFetchInner, &fi_cost);
    RunWith(db.get(), kTwoTableQuery, ForceSemiJoin, &sj_cost);
    table.AddRow({std::to_string(width), FormatCost(fi_cost),
                  FormatCost(sj_cost), sj_cost < fi_cost ? "yes" : "no"});
  }
  table.Print();
  std::cout << "\n";
}

void BM_DistributedOptimizerChoice(benchmark::State& state) {
  TwoTableOptions opts;
  opts.r_rows = 200;
  opts.s_rows = 5000;
  opts.r_keys = 20;
  opts.s_keys = 500;
  opts.s_site = 1;
  auto db = MakeTwoTableDatabase(opts);
  for (auto _ : state) {
    auto result = db->Run(kTwoTableQuery);
    MAGICDB_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->rows);
  }
}
BENCHMARK(BM_DistributedOptimizerChoice);

}  // namespace
}  // namespace magicdb::bench

int main(int argc, char** argv) {
  magicdb::bench::PrintSelectivitySweep();
  magicdb::bench::PrintWidthSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
