// E10 (§5.3): Filter Joins over plain stored relations. The local
// semi-join performs two scans of the outer and one of the inner; it beats
// the classic methods when the filter set is small and selective, and loses
// when it filters nothing. The bench sweeps the outer's distinct-key count.

#include <benchmark/benchmark.h>

#include <functional>
#include <iostream>

#include "src/common/logging.h"
#include "workloads/table_printer.h"
#include "workloads/workloads.h"

namespace magicdb::bench {
namespace {

double RunWith(Database* db, const std::function<void(OptimizerOptions*)>&
                                 configure) {
  OptimizerOptions opts;
  opts.memory_budget_bytes = 64 * 1024;  // §5.3 presumes memory pressure
  configure(&opts);
  *db->mutable_optimizer_options() = opts;
  auto result = db->Run(kTwoTableQuery);
  MAGICDB_CHECK_OK(result.status());
  return result->counters.TotalCost();
}

void PrintLocalSemijoinSweep() {
  std::cout << "=== E10 / Section 5.3: local semi-join vs classic joins "
               "over stored relations ===\n"
            << "R = 10000 rows, S = 30000 rows over 10000 keys; memory "
               "budget 64KB (S build side spills); sweep = distinct keys "
               "in R\n\n";
  TablePrinter table({"R distinct keys", "hash join", "sort-merge",
                      "index NL", "local semi-join", "optimizer choice",
                      "semi-join wins"});
  for (int r_keys : {10, 100, 1000, 5000, 10000}) {
    TwoTableOptions opts;
    opts.r_rows = 10000;
    opts.s_rows = 30000;
    opts.r_keys = r_keys;
    opts.s_keys = 10000;
    opts.payload_cols = 6;
    auto db = MakeTwoTableDatabase(opts);

    const double hash = RunWith(db.get(), [](OptimizerOptions* o) {
      o->enable_index_nested_loops = false;
      o->enable_sort_merge = false;
      o->enable_nested_loops = false;
      o->magic_mode = OptimizerOptions::MagicMode::kNever;
    });
    const double smj = RunWith(db.get(), [](OptimizerOptions* o) {
      o->enable_index_nested_loops = false;
      o->enable_hash_join = false;
      o->enable_nested_loops = false;
      o->magic_mode = OptimizerOptions::MagicMode::kNever;
    });
    const double inl = RunWith(db.get(), [](OptimizerOptions* o) {
      o->enable_hash_join = false;
      o->enable_sort_merge = false;
      o->enable_nested_loops = false;
      o->magic_mode = OptimizerOptions::MagicMode::kNever;
    });
    const double semi = RunWith(db.get(), [](OptimizerOptions* o) {
      // With every classic method disabled the DP can only pick the
      // Filter Join (local semi-join).
      o->enable_index_nested_loops = false;
      o->enable_sort_merge = false;
      o->enable_nested_loops = false;
      o->enable_hash_join = false;
      o->filter_join_on_stored = true;
      o->consider_bloom_filter_sets = false;
    });
    const double chosen = RunWith(db.get(), [](OptimizerOptions*) {});

    const double best_classic = std::min({hash, smj, inl});
    table.AddRow({std::to_string(r_keys), FormatCost(hash), FormatCost(smj),
                  FormatCost(inl), FormatCost(semi), FormatCost(chosen),
                  semi < best_classic ? "yes" : "no"});
  }
  table.Print();
  std::cout << "\n";
}

void BM_LocalSemijoin(benchmark::State& state) {
  TwoTableOptions opts;
  opts.r_rows = 300;
  opts.s_rows = 10000;
  opts.r_keys = static_cast<int>(state.range(0));
  opts.s_keys = 5000;
  auto db = MakeTwoTableDatabase(opts);
  db->mutable_optimizer_options()->filter_join_on_stored = true;
  for (auto _ : state) {
    auto result = db->Run(kTwoTableQuery);
    MAGICDB_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->rows);
  }
}
BENCHMARK(BM_LocalSemijoin)->Arg(10)->Arg(300);

}  // namespace
}  // namespace magicdb::bench

int main(int argc, char** argv) {
  magicdb::bench::PrintLocalSemijoinSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
