// Parallel scaling of the morsel-driven executor (src/parallel) on the
// Figure-1/2 workload: wall-clock speedup of Database::Run(sql, {.dop}) at
// DoP in {1, 2, 4, 8}, for the plan shapes the executor parallelizes —
// the no-magic hash-join plan, the magic FilterJoin plan, and two-phase
// parallel GROUP BY aggregation at both cardinality extremes
// (low-cardinality = merge-heavy, high-cardinality = partition-heavy) —
// and, at DoP in {1, 2, 4}, a 1M-row scan returned whole, which measures
// what delivering every row through the result sink's lanes costs.
//
// Two invariants are asserted on every run, not just reported:
//   * rows are byte-identical to the DoP=1 execution, in the same order;
//   * the merged per-worker cost counters equal the DoP=1 counters exactly
//     (the Table-1 accounting contract at any degree of parallelism).
//
// Speedup is hardware-bound: on an N-core machine DoP > N adds scheduling
// overhead without adding compute, so the table prints the detected core
// count and the reader should judge the curve against it.
//
// `--smoke` shrinks tables, repetitions, and the DoP set to {1, 2} so CI
// (scripts/check.sh) can run the determinism assertions quickly.

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <sstream>
#include <thread>

#include "src/common/logging.h"
#include "workloads/json_writer.h"
#include "workloads/table_printer.h"
#include "workloads/workloads.h"

namespace magicdb::bench {
namespace {

int g_repetitions = 5;
std::vector<int> g_dops = {1, 2, 4, 8};

double MedianWallMs(Database* db, const char* query, int dop,
                    QueryResult* out) {
  std::vector<double> ms;
  for (int r = 0; r < g_repetitions; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    auto result = db->Run(query, {.dop = dop});
    const auto t1 = std::chrono::steady_clock::now();
    MAGICDB_CHECK_OK(result.status());
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (r == 0) *out = std::move(*result);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

void CheckIdentical(const QueryResult& base, const QueryResult& got) {
  MAGICDB_CHECK(got.rows.size() == base.rows.size());
  for (size_t i = 0; i < base.rows.size(); ++i) {
    MAGICDB_CHECK(CompareTuples(got.rows[i], base.rows[i]) == 0);
  }
  MAGICDB_CHECK(got.counters.pages_read == base.counters.pages_read);
  MAGICDB_CHECK(got.counters.pages_written == base.counters.pages_written);
  MAGICDB_CHECK(got.counters.tuples_processed ==
                base.counters.tuples_processed);
  MAGICDB_CHECK(got.counters.exprs_evaluated == base.counters.exprs_evaluated);
  MAGICDB_CHECK(got.counters.hash_operations == base.counters.hash_operations);
  MAGICDB_CHECK(got.counters.messages_sent == base.counters.messages_sent);
  MAGICDB_CHECK(got.counters.bytes_shipped == base.counters.bytes_shipped);
}

std::string Fmt(double v) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << v;
  return os.str();
}

// Two-way join over base tables only: both hash-join sides are scan
// chains, so the partitioned-build path parallelizes it.
const char* kTwoWayJoinQuery =
    "SELECT E.did, E.sal, D.budget FROM Emp E, Dept D "
    "WHERE E.did = D.did AND E.age < 30 AND D.budget > 100000";

// GROUP BY workloads for the two-phase parallel aggregation. Aggregates are
// chosen so every double addition involved is exact (COUNT, SUM over int64,
// MIN/MAX): byte-identity is then a hard assertion, not a tolerance.
//
// Low cardinality: age has two distinct values, so workers build tiny
// partial tables and nearly all work concentrates in the partitioned merge.
const char* kGroupByLowCardQuery =
    "SELECT E.age, COUNT(*) AS c, SUM(E.did) AS s, MIN(E.sal) AS m "
    "FROM Emp E GROUP BY E.age";
// High cardinality: sal is effectively unique per row, so partial tables
// are large and the hash-partition routing dominates.
const char* kGroupByHighCardQuery =
    "SELECT E.sal, COUNT(*) AS c, MAX(E.age) AS m "
    "FROM Emp E GROUP BY E.sal";

// The whole Emp relation: no breaker, so every row streams out of the
// workers' lanes.
const char* kWholeScanQuery = "SELECT E.did, E.sal, E.age FROM Emp E";

/// Runs `query` at every DoP in `dops` (the first must be 1), printing the
/// scaling table and asserting byte-identical rows + exactly-merged
/// counters against DoP=1.
void RunScalingLoop(Database* db, const char* plan_key, const char* query,
                    const std::vector<int>& dops, Json* json_results) {
  TablePrinter table({"dop", "used_dop", "wall_ms(median)", "speedup",
                      "measured_cost", "rows", "fallback"});
  QueryResult base;
  double base_ms = 0.0;
  for (int dop : dops) {
    QueryResult result;
    const double ms = MedianWallMs(db, query, dop, &result);
    if (dop == 1) {
      base_ms = ms;
    } else {
      CheckIdentical(base, result);
    }
    const double speedup = dop == 1 ? 1.0 : base_ms / std::max(1e-9, ms);
    table.AddRow({std::to_string(dop), std::to_string(result.used_dop),
                  Fmt(ms), Fmt(speedup), Fmt(result.counters.TotalCost()),
                  std::to_string(result.rows.size()),
                  result.parallel_fallback_reason.empty()
                      ? "-"
                      : result.parallel_fallback_reason});
    if (json_results != nullptr) {
      json_results->Append(
          Json::Object()
              .Set("plan", plan_key)
              .Set("dop", dop)
              .Set("used_dop", result.used_dop)
              .Set("wall_ms_median", ms)
              .Set("speedup", speedup)
              .Set("measured_cost", result.counters.TotalCost())
              .Set("rows", static_cast<int64_t>(result.rows.size()))
              .Set("fallback_reason", result.parallel_fallback_reason));
    }
    if (dop == 1) base = std::move(result);
  }
  table.Print();
  std::cout << "(rows and merged counters verified identical to dop=1 at "
               "every dop)\n\n";
}

void PrintScalingTable(const char* title, const char* plan_key,
                       const char* query, OptimizerOptions::MagicMode mode,
                       bool smoke, Json* json_results) {
  Figure1Options opts;
  opts.num_depts = smoke ? 200 : 2000;
  opts.emps_per_dept = smoke ? 10 : 50;
  opts.young_frac = 0.05;  // selective regime: magic wins and is chosen
  opts.big_frac = 0.05;
  opts.build_indexes = false;  // keep the plan in hash-join territory
  auto db = MakeFigure1Database(opts);
  auto* options = db->mutable_optimizer_options();
  options->magic_mode = mode;
  options->enable_nested_loops = false;
  options->enable_index_nested_loops = false;
  options->enable_sort_merge = false;

  std::cout << "=== " << title << " (Dept=" << opts.num_depts
            << ", Emp=" << opts.num_depts * opts.emps_per_dept << ") ===\n\n";
  RunScalingLoop(db.get(), plan_key, query, g_dops, json_results);
}

/// Scaling over the 1M-row Emp (smoke: 2,000 rows) at `dops`.
void PrintAggScalingTable(const char* title, const char* plan_key,
                          const char* query, const std::vector<int>& dops,
                          bool smoke, Json* json_results) {
  Figure1Options opts;
  // 1M input rows (2000 x 500) in the full run: large enough that the
  // accumulate phase dominates and DoP-4 speedup is observable on a
  // multi-core box.
  opts.num_depts = smoke ? 100 : 2000;
  opts.emps_per_dept = smoke ? 20 : 500;
  opts.build_indexes = false;
  auto db = MakeFigure1Database(opts);
  auto* options = db->mutable_optimizer_options();
  options->enable_nested_loops = false;
  options->enable_index_nested_loops = false;
  options->enable_sort_merge = false;

  std::cout << "=== " << title
            << " (Emp=" << opts.num_depts * opts.emps_per_dept << ") ===\n\n";
  RunScalingLoop(db.get(), plan_key, query, dops, json_results);
}

// ----- Adaptive re-optimization bake-off (DP vs greedy vs adaptive) -----

/// One (backend, adaptive, dop) cell of the bake-off.
struct BakeoffCell {
  QueryResult first;       // repetition 0: pays any feedback-driven re-plan
  QueryResult steady;      // final repetition: plans from the feedback store
  double median_ms = 0.0;  // over all repetitions
  double first_ms = 0.0;
  double steady_ms = 0.0;  // median over repetitions after the first
  int64_t reoptimizations = 0;  // summed over repetitions
};

BakeoffCell RunBakeoffCell(Database* db, const char* query,
                           const char* backend, bool adaptive, int dop) {
  // Each cell starts from a cold feedback store so every cell observes the
  // same estimate error and the dop sweep stays rep-for-rep comparable.
  db->feedback_store()->Clear();
  db->mutable_optimizer_options()->join_order_backend = backend;
  BakeoffCell cell;
  std::vector<double> all_ms, steady_ms;
  for (int r = 0; r < g_repetitions; ++r) {
    ExecOptions eo;
    eo.dop = dop;
    eo.reoptimize_qerror_threshold = adaptive ? 2.0 : 0.0;
    eo.persist_feedback = adaptive;
    const auto t0 = std::chrono::steady_clock::now();
    auto result = db->Run(query, eo);
    const auto t1 = std::chrono::steady_clock::now();
    MAGICDB_CHECK_OK(result.status());
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    all_ms.push_back(ms);
    if (r > 0) steady_ms.push_back(ms);
    cell.reoptimizations += result->reoptimizations;
    if (r == 0) {
      cell.first_ms = ms;
      cell.first = *result;
    }
    if (r == g_repetitions - 1) cell.steady = std::move(*result);
  }
  std::sort(all_ms.begin(), all_ms.end());
  std::sort(steady_ms.begin(), steady_ms.end());
  cell.median_ms = all_ms[all_ms.size() / 2];
  cell.steady_ms = steady_ms.empty() ? cell.first_ms
                                     : steady_ms[steady_ms.size() / 2];
  return cell;
}

/// Same answer set regardless of join order: order-insensitive comparison
/// for results produced by different plans.
void CheckSameMultiset(const QueryResult& a, const QueryResult& b) {
  MAGICDB_CHECK(a.rows.size() == b.rows.size());
  auto sorted = [](const QueryResult& r) {
    std::vector<Tuple> rows = r.rows;
    std::sort(rows.begin(), rows.end(),
              [](const Tuple& x, const Tuple& y) {
                return CompareTuples(x, y) < 0;
              });
    return rows;
  };
  const std::vector<Tuple> sa = sorted(a), sb = sorted(b);
  for (size_t i = 0; i < sa.size(); ++i) {
    MAGICDB_CHECK(CompareTuples(sa[i], sb[i]) == 0);
  }
}

/// The join-order bake-off on the skewed chain (see SkewedChainOptions):
/// static DP and static greedy plan from the 10x-wrong independence
/// estimate every time; the adaptive arm (DP backend + cardinality
/// feedback) aborts its first attempt at the first hash-join build, folds
/// the observed cardinality into an overlay, re-plans, and persists the
/// observation so later repetitions plan correctly from the start.
///
/// Asserted on every run: within an arm, rows and merged cost counters are
/// byte-identical across DoP (repetition-for-repetition, so restarted and
/// steady-state executions are both covered, re-opt on and off), and every
/// arm produces the same answer multiset.
void PrintAdaptiveBakeoff(bool smoke, Json* json_results) {
  SkewedChainOptions w;
  if (smoke) {
    w.fact_rows = 8000;
    w.keys = 900;
  }
  auto db = MakeSkewedChainDatabase(w);
  auto* options = db->mutable_optimizer_options();
  // Pure hash-join territory: the bake-off compares join orders, not
  // methods.
  options->magic_mode = OptimizerOptions::MagicMode::kNever;
  options->filter_join_on_stored = false;
  options->enable_nested_loops = false;
  options->enable_index_nested_loops = false;
  options->enable_sort_merge = false;
  // A small planning budget makes the HashSpill term price every
  // over-budget build side, so the optimizer strictly prefers building the
  // smaller input. Without it, build and probe cost the same per row and
  // tied build-side choices break arbitrarily. Execution keeps its own
  // default budget (ExecContext's), so runtime behavior is unchanged.
  options->memory_budget_bytes = 64 * 1024;

  const struct {
    const char* arm;
    const char* backend;
    bool adaptive;
  } arms[] = {
      {"dp_static", "dp", false},
      {"greedy_static", "greedy", false},
      {"dp_adaptive", "dp", true},
  };
  const std::vector<int> dops = smoke ? std::vector<int>{1, 2}
                                      : std::vector<int>{1, 4};

  std::cout << "=== Adaptive re-optimization bake-off, skewed chain (Fact="
            << w.fact_rows << ", Mid=" << w.keys * w.mid_fanout
            << ", filter underestimated 10x) ===\n\n";
  TablePrinter table({"arm", "dop", "first_ms", "steady_ms", "median_ms",
                      "reopts", "rows"});
  const QueryResult* reference = nullptr;
  QueryResult reference_storage;
  for (const auto& arm : arms) {
    BakeoffCell base;
    for (size_t d = 0; d < dops.size(); ++d) {
      BakeoffCell cell =
          RunBakeoffCell(db.get(), kSkewedChainQuery, arm.backend,
                         arm.adaptive, dops[d]);
      if (d == 0) {
        // Each arm's own restarted (first) and steady-state (last)
        // executions must be byte-identical at every dop, counters
        // included — aborted attempts never leak work into the totals.
        base = cell;
      } else {
        CheckIdentical(base.first, cell.first);
        CheckIdentical(base.steady, cell.steady);
        MAGICDB_CHECK(cell.reoptimizations == base.reoptimizations);
      }
      table.AddRow({arm.arm, std::to_string(dops[d]), Fmt(cell.first_ms),
                    Fmt(cell.steady_ms), Fmt(cell.median_ms),
                    std::to_string(cell.reoptimizations),
                    std::to_string(cell.steady.rows.size())});
      if (json_results != nullptr) {
        json_results->Append(
            Json::Object()
                .Set("arm", arm.arm)
                .Set("backend", arm.backend)
                .Set("adaptive", arm.adaptive)
                .Set("dop", dops[d])
                .Set("wall_ms_first", cell.first_ms)
                .Set("wall_ms_steady", cell.steady_ms)
                .Set("wall_ms_median", cell.median_ms)
                .Set("reoptimizations", cell.reoptimizations)
                .Set("rows", static_cast<int64_t>(cell.steady.rows.size())));
      }
    }
    if (std::getenv("MAGICDB_BENCH_DEBUG_EXPLAIN") != nullptr) {
      std::cout << "--- " << arm.arm << " first plan ---\n"
                << base.first.explain << "\n--- " << arm.arm
                << " steady plan ---\n"
                << base.steady.explain << "\n";
    }
    if (reference == nullptr) {
      reference_storage = std::move(base.steady);
      reference = &reference_storage;
    } else {
      CheckSameMultiset(*reference, base.steady);
    }
    MAGICDB_CHECK(arm.adaptive ? base.reoptimizations > 0
                               : base.reoptimizations == 0);
  }
  table.Print();
  std::cout << "(rows byte-identical across dop within each arm, same "
               "multiset across arms)\n\n";
}

void PrintScaling(bool smoke, const std::string& json_path) {
  std::cout << "hardware threads detected: "
            << std::thread::hardware_concurrency()
            << " — speedup beyond that count is not expected\n\n";
  Json results = Json::Array();
  Json* out = json_path.empty() ? nullptr : &results;
  PrintScalingTable("Parallel scaling, two-way hash-join plan",
                    "two_way_hash_join", kTwoWayJoinQuery,
                    OptimizerOptions::MagicMode::kNever, smoke, out);
  PrintScalingTable("Parallel scaling, magic FilterJoin plan",
                    "magic_filter_join", kFigure1Query,
                    OptimizerOptions::MagicMode::kAlwaysOnVirtual, smoke, out);
  PrintAggScalingTable(
      "Parallel scaling, GROUP BY low cardinality (merge-heavy)",
      "group_by_low_cardinality", kGroupByLowCardQuery, g_dops, smoke, out);
  PrintAggScalingTable(
      "Parallel scaling, GROUP BY high cardinality (partition-heavy)",
      "group_by_high_cardinality", kGroupByHighCardQuery, g_dops, smoke, out);
  PrintAggScalingTable("Whole result, scan returned by Database::Run",
                       "whole_result_scan", kWholeScanQuery,
                       smoke ? std::vector<int>{1, 2}
                             : std::vector<int>{1, 2, 4},
                       smoke, out);
  Json bakeoff_results = Json::Array();
  PrintAdaptiveBakeoff(smoke, json_path.empty() ? nullptr : &bakeoff_results);
  if (out != nullptr) {
    Json doc = Json::Object()
                   .Set("benchmark", "bench_parallel_scaling")
                   .Set("hardware_threads",
                        static_cast<int64_t>(
                            std::thread::hardware_concurrency()))
                   .Set("repetitions", static_cast<int64_t>(g_repetitions))
                   .Set("smoke", smoke)
                   .Set("results", std::move(results))
                   .Set("adaptive_bakeoff", std::move(bakeoff_results));
    if (WriteJsonFile(json_path, doc)) {
      std::cout << "JSON results written to " << json_path << "\n";
    }
  }
}

}  // namespace
}  // namespace magicdb::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  if (smoke) {
    magicdb::bench::g_repetitions = 2;
    magicdb::bench::g_dops = {1, 2};
  }
  magicdb::bench::PrintScaling(
      smoke, magicdb::bench::JsonPathFromArgs(argc, argv));
  return 0;
}
