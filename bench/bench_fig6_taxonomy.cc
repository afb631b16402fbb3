// E6 (Figure 6 / Appendix A): the cross-domain join-technique taxonomy.
// For each domain (stored relation, remote relation, view, user-defined
// relation) the bench executes every applicable strategy from the paper's
// table on a matched workload and reports measured cost — repeated probe,
// full computation, filter join, and lossy filter rows.

#include <benchmark/benchmark.h>

#include <iostream>

#include "src/common/logging.h"
#include "workloads/table_printer.h"
#include "workloads/workloads.h"

namespace magicdb::bench {
namespace {

/// Runs `query` with exactly the strategy the option combination permits;
/// returns measured cost ("-" when infeasible).
std::string RunWith(Database* db, const std::string& query,
                    const std::function<void(OptimizerOptions*)>& configure) {
  OptimizerOptions saved = *db->mutable_optimizer_options();
  OptimizerOptions opts;  // fresh defaults
  configure(&opts);
  *db->mutable_optimizer_options() = opts;
  auto result = db->Run(query);
  *db->mutable_optimizer_options() = saved;
  if (!result.ok()) return "-";
  return FormatCost(result->counters.TotalCost());
}

void DisableAll(OptimizerOptions* o) {
  o->enable_nested_loops = false;
  o->enable_hash_join = false;
  o->enable_sort_merge = false;
  o->enable_index_nested_loops = false;
  o->enable_function_memo = false;
  o->magic_mode = OptimizerOptions::MagicMode::kNever;
  o->filter_join_on_stored = false;
}

void PrintStoredRelationRow() {
  TwoTableOptions opts;
  opts.r_rows = 500;
  opts.s_rows = 20000;
  opts.r_keys = 40;
  opts.s_keys = 4000;
  auto db = MakeTwoTableDatabase(opts);

  TablePrinter table({"strategy (stored relation)", "measured cost"});
  table.AddRow({"repeated probe: indexed nested loops",
                RunWith(db.get(), kTwoTableQuery, [](OptimizerOptions* o) {
                  DisableAll(o);
                  o->enable_index_nested_loops = true;
                })});
  table.AddRow({"full computation: hash join",
                RunWith(db.get(), kTwoTableQuery, [](OptimizerOptions* o) {
                  DisableAll(o);
                  o->enable_hash_join = true;
                })});
  table.AddRow({"full computation: sort-merge",
                RunWith(db.get(), kTwoTableQuery, [](OptimizerOptions* o) {
                  DisableAll(o);
                  o->enable_sort_merge = true;
                })});
  table.AddRow({"full computation: nested loops",
                RunWith(db.get(), kTwoTableQuery, [](OptimizerOptions* o) {
                  DisableAll(o);
                  o->enable_nested_loops = true;
                })});
  table.AddRow({"filter join: local semi-join (exact)",
                RunWith(db.get(), kTwoTableQuery, [](OptimizerOptions* o) {
                  DisableAll(o);
                  o->magic_mode = OptimizerOptions::MagicMode::kCostBased;
                  o->filter_join_on_stored = true;
                  o->consider_bloom_filter_sets = false;
                })});
  table.AddRow({"lossy filter: Bloom semi-join",
                RunWith(db.get(), kTwoTableQuery, [](OptimizerOptions* o) {
                  DisableAll(o);
                  o->magic_mode = OptimizerOptions::MagicMode::kCostBased;
                  o->filter_join_on_stored = true;
                  o->consider_exact_filter_sets = false;
                })});
  table.Print();
  std::cout << "\n";
}

void PrintRemoteRelationRow() {
  TwoTableOptions opts;
  opts.r_rows = 500;
  opts.s_rows = 20000;
  opts.r_keys = 40;
  opts.s_keys = 4000;
  opts.s_site = 1;
  auto db = MakeTwoTableDatabase(opts);

  TablePrinter table({"strategy (remote relation, S at site 1)",
                      "measured cost"});
  table.AddRow({"repeated probe: fetch matches (System R*)",
                RunWith(db.get(), kTwoTableQuery, [](OptimizerOptions* o) {
                  DisableAll(o);
                  o->enable_index_nested_loops = true;
                })});
  table.AddRow({"full computation: fetch inner, local hash join",
                RunWith(db.get(), kTwoTableQuery, [](OptimizerOptions* o) {
                  DisableAll(o);
                  o->enable_hash_join = true;
                })});
  table.AddRow({"filter join: semi-join (SDD-1)",
                RunWith(db.get(), kTwoTableQuery, [](OptimizerOptions* o) {
                  DisableAll(o);
                  o->enable_hash_join = true;  // final join method
                  o->magic_mode = OptimizerOptions::MagicMode::kAlwaysOnVirtual;
                  o->consider_bloom_filter_sets = false;
                })});
  table.AddRow({"lossy filter: Bloom filter shipped",
                RunWith(db.get(), kTwoTableQuery, [](OptimizerOptions* o) {
                  DisableAll(o);
                  o->enable_hash_join = true;
                  o->magic_mode = OptimizerOptions::MagicMode::kAlwaysOnVirtual;
                  o->consider_exact_filter_sets = false;
                })});
  table.Print();
  std::cout << "\n";
}

void PrintViewRow() {
  Figure1Options opts;
  opts.num_depts = 400;
  opts.emps_per_dept = 5;
  opts.young_frac = 0.05;
  opts.big_frac = 0.05;
  auto db = MakeFigure1Database(opts);

  TablePrinter table({"strategy (view / table expression)", "measured cost"});
  table.AddRow({"repeated probe: correlation (nested iteration)",
                RunWith(db.get(), kFigure1Query, [](OptimizerOptions* o) {
                  DisableAll(o);
                  o->enable_nested_loops = true;
                })});
  table.AddRow({"full computation: decorrelation + hash join",
                RunWith(db.get(), kFigure1Query, [](OptimizerOptions* o) {
                  DisableAll(o);
                  o->enable_hash_join = true;
                  o->enable_index_nested_loops = true;
                })});
  table.AddRow({"filter join: magic sets",
                RunWith(db.get(), kFigure1Query, [](OptimizerOptions* o) {
                  DisableAll(o);
                  o->enable_hash_join = true;
                  o->enable_index_nested_loops = true;
                  o->magic_mode = OptimizerOptions::MagicMode::kAlwaysOnVirtual;
                  o->consider_bloom_filter_sets = false;
                })});
  table.AddRow({"lossy filter: magic with Bloom filter set",
                RunWith(db.get(), kFigure1Query, [](OptimizerOptions* o) {
                  DisableAll(o);
                  o->enable_hash_join = true;
                  o->enable_index_nested_loops = true;
                  o->magic_mode = OptimizerOptions::MagicMode::kAlwaysOnVirtual;
                  o->consider_exact_filter_sets = false;
                })});
  table.Print();
  std::cout << "\n";
}

void PrintUdrRow() {
  UdrOptions opts;
  opts.calls = 2000;
  opts.distinct_args = 50;
  auto db = MakeUdrDatabase(opts);

  TablePrinter table({"strategy (user-defined relation)", "measured cost"});
  table.AddRow({"repeated probe: procedure invocation per row",
                RunWith(db.get(), kUdrQuery, [](OptimizerOptions* o) {
                  DisableAll(o);
                })});
  table.AddRow({"repeated probe w/ caching: memoized invocation",
                RunWith(db.get(), kUdrQuery, [](OptimizerOptions* o) {
                  DisableAll(o);
                  o->enable_function_memo = true;
                })});
  table.AddRow({"filter join: consecutive procedure calls",
                RunWith(db.get(), kUdrQuery, [](OptimizerOptions* o) {
                  DisableAll(o);
                  o->enable_hash_join = true;
                  o->magic_mode = OptimizerOptions::MagicMode::kAlwaysOnVirtual;
                  o->consider_bloom_filter_sets = false;
                })});
  table.Print();
  std::cout << "\n";
}

void PrintTaxonomy() {
  std::cout << "=== E6 / Figure 6: join-technique taxonomy across domains "
               "===\n\n";
  PrintStoredRelationRow();
  PrintRemoteRelationRow();
  PrintViewRow();
  PrintUdrRow();
}

void BM_TaxonomyViewMagic(benchmark::State& state) {
  Figure1Options opts;
  opts.num_depts = 200;
  auto db = MakeFigure1Database(opts);
  for (auto _ : state) {
    auto result = db->Run(kFigure1Query);
    MAGICDB_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->rows);
  }
}
BENCHMARK(BM_TaxonomyViewMagic);

}  // namespace
}  // namespace magicdb::bench

int main(int argc, char** argv) {
  magicdb::bench::PrintTaxonomy();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
