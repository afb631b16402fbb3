// E9 (§5.2): joins with user-defined relations. Sweeps the duplication
// factor of argument values and compares naive per-row invocation, memoized
// invocation (function caching), and the Filter Join (distinct arguments,
// consecutive calls). Function invocations are the dominant cost.

#include <benchmark/benchmark.h>

#include <functional>
#include <iostream>

#include "src/common/logging.h"
#include "workloads/table_printer.h"
#include "workloads/workloads.h"

namespace magicdb::bench {
namespace {

struct Outcome {
  double cost = -1;
  int64_t invocations = 0;
};

Outcome RunWith(Database* db, const std::function<void(OptimizerOptions*)>&
                                  configure) {
  OptimizerOptions opts;
  configure(&opts);
  *db->mutable_optimizer_options() = opts;
  auto result = db->Run(kUdrQuery);
  if (!result.ok()) return {};
  return {result->counters.TotalCost(),
          result->counters.function_invocations};
}

void PrintUdrSweep() {
  std::cout << "=== E9 / Section 5.2: user-defined relation joins vs "
               "argument duplication ===\n"
            << "Calls has 2000 rows; distinct argument values sweep below "
               "(invocation cost dominates)\n\n";
  TablePrinter table({"distinct args", "naive cost", "naive calls",
                      "memoized cost", "memo calls", "filter join cost",
                      "FJ calls", "optimizer choice"});
  for (int d : {1, 10, 100, 500, 2000}) {
    UdrOptions opts;
    opts.calls = 2000;
    opts.distinct_args = d;
    auto db = MakeUdrDatabase(opts);

    Outcome naive = RunWith(db.get(), [](OptimizerOptions* o) {
      o->enable_function_memo = false;
      o->magic_mode = OptimizerOptions::MagicMode::kNever;
    });
    Outcome memo = RunWith(db.get(), [](OptimizerOptions* o) {
      o->magic_mode = OptimizerOptions::MagicMode::kNever;
    });
    Outcome fj = RunWith(db.get(), [](OptimizerOptions* o) {
      o->enable_function_memo = false;
      o->magic_mode = OptimizerOptions::MagicMode::kAlwaysOnVirtual;
    });
    Outcome chosen = RunWith(db.get(), [](OptimizerOptions*) {});

    table.AddRow({std::to_string(d), FormatCost(naive.cost),
                  std::to_string(naive.invocations), FormatCost(memo.cost),
                  std::to_string(memo.invocations), FormatCost(fj.cost),
                  std::to_string(fj.invocations), FormatCost(chosen.cost)});
  }
  table.Print();
  std::cout << "\n(filter join and memoization both invoke once per "
               "distinct argument; the filter join additionally avoids the "
               "per-probe cache lookups)\n\n";
}

void BM_UdrOptimizerChoice(benchmark::State& state) {
  UdrOptions opts;
  opts.calls = 1000;
  opts.distinct_args = static_cast<int>(state.range(0));
  auto db = MakeUdrDatabase(opts);
  for (auto _ : state) {
    auto result = db->Run(kUdrQuery);
    MAGICDB_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->rows);
  }
}
BENCHMARK(BM_UdrOptimizerChoice)->Arg(10)->Arg(1000);

}  // namespace
}  // namespace magicdb::bench

int main(int argc, char** argv) {
  magicdb::bench::PrintUdrSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
