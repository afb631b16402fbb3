// Join residuals on every join method. A join fills its output batch with
// candidate rows and keeps the residual's survivors in one vectorized
// predicate pass, so each query below must return the same rows and charge
// the same counters at any DoP and batch size, and its rows must equal an
// oracle computed straight from the loaded rows, without the executor.

#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/common/memory_tracker.h"
#include "src/db/database.h"
#include "src/exec/exec_context.h"
#include "src/exec/operator.h"
#include "src/spill/spill_manager.h"
#include "src/udr/table_function.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

constexpr int kDepts = 120;
constexpr int kEmps = 1200;

// Emp(eid, did, sal, age), Dept(did, budget) and Bonus(eid, amount).
struct Rows {
  std::vector<Tuple> emp;
  std::vector<Tuple> dept;
  std::vector<Tuple> bonus;
};

Rows MakeRows() {
  Random rng(43);
  Rows rows;
  for (int d = 0; d < kDepts; ++d) {
    rows.dept.push_back({Value::Int64(d),
                         Value::Double(100000.0 + rng.NextDouble() * 50000.0)});
  }
  for (int e = 0; e < kEmps; ++e) {
    // About 5% NULL join keys, which never join.
    Value did = rng.Bernoulli(0.05) ? Value::Null() : Value::Int64(e % kDepts);
    rows.emp.push_back(
        {Value::Int64(e), std::move(did),
         Value::Double(50000.0 + rng.NextDouble() * 100000.0),
         Value::Int64(20 + static_cast<int64_t>(rng.Uniform(40)))});
    rows.bonus.push_back(
        {Value::Int64(e), Value::Double(rng.NextDouble() * 5000.0)});
  }
  return rows;
}

// The table function fan(a) -> v: five rows per argument.
std::vector<int64_t> Fan(int64_t a) {
  std::vector<int64_t> v;
  for (int64_t j = 0; j < 5; ++j) v.push_back((a * 37 + j * 11) % 100);
  return v;
}

void Load(Database* db, const Rows& rows) {
  MAGICDB_CHECK_OK(
      db->Execute("CREATE TABLE Emp (eid INT, did INT, sal DOUBLE, age INT)"));
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Bonus (eid INT, amount DOUBLE)"));
  MAGICDB_CHECK_OK(db->LoadRows("Emp", rows.emp));
  MAGICDB_CHECK_OK(db->LoadRows("Dept", rows.dept));
  MAGICDB_CHECK_OK(db->LoadRows("Bonus", rows.bonus));
  (*db->catalog()->Lookup("Emp"))->table->CreateHashIndex({1});
  (*db->catalog()->Lookup("Dept"))->table->CreateHashIndex({0});
  MAGICDB_CHECK_OK(db->catalog()->AnalyzeAll());
  MAGICDB_CHECK_OK(db->Execute(
      "CREATE VIEW DeptComp AS SELECT E.did, AVG(E.sal + B.amount) AS "
      "avgcomp FROM Emp E, Bonus B WHERE E.eid = B.eid GROUP BY E.did"));
  MAGICDB_CHECK_OK(db->catalog()->RegisterFunction(
      std::make_unique<LambdaTableFunction>(
          "fan", Schema({{"", "a", DataType::kInt64}}),
          Schema({{"", "v", DataType::kInt64}}),
          [](const Tuple& in, std::vector<Tuple>* out) {
            for (int64_t v : Fan(in[0].AsInt64())) {
              out->push_back({Value::Int64(v)});
            }
            return Status::OK();
          },
          /*expected_rows=*/5.0)));
}

// ----- Oracles: plain loops over the loaded rows -----

// E.did = D.did AND E.sal > D.budget AND D.did < 24, as (E.eid, E.sal,
// D.budget).
std::vector<Tuple> EmpDeptOracle(const Rows& rows) {
  std::vector<Tuple> out;
  for (const Tuple& e : rows.emp) {
    for (const Tuple& d : rows.dept) {
      if (!e[1].is_null() && e[1].AsInt64() == d[0].AsInt64() &&
          e[2].AsDouble() > d[1].AsDouble() && d[0].AsInt64() < 24) {
        out.push_back({e[0], e[2], d[1]});
      }
    }
  }
  return out;
}

// E.eid = B.eid AND B.amount * 30 > E.sal, as (E.eid, E.sal, B.amount).
std::vector<Tuple> EmpBonusOracle(const Rows& rows) {
  std::vector<Tuple> out;
  for (const Tuple& e : rows.emp) {
    for (const Tuple& b : rows.bonus) {
      if (e[0].AsInt64() == b[0].AsInt64() &&
          b[1].AsDouble() * 30 > e[2].AsDouble()) {
        out.push_back({e[0], e[2], b[1]});
      }
    }
  }
  return out;
}

// Average compensation (salary + bonus) per department, as DeptComp
// computes it. Every employee has one bonus row, at the same position.
std::map<int64_t, double> DeptCompOracle(const Rows& rows) {
  std::map<int64_t, std::pair<double, int64_t>> sums;
  for (size_t i = 0; i < rows.emp.size(); ++i) {
    const Tuple& e = rows.emp[i];
    if (e[1].is_null()) continue;
    auto& [sum, count] = sums[e[1].AsInt64()];
    sum += e[2].AsDouble() + rows.bonus[i][1].AsDouble();
    ++count;
  }
  std::map<int64_t, double> avg;
  for (const auto& [did, sc] : sums) {
    avg[did] = sc.first / static_cast<double>(sc.second);
  }
  return avg;
}

// The departments with a budget over 146,000 whose average compensation
// exceeds 0.72 times the budget.
std::vector<Tuple> RichDeptsOracle(const Rows& rows) {
  const std::map<int64_t, double> avgcomp = DeptCompOracle(rows);
  std::vector<Tuple> out;
  for (const Tuple& d : rows.dept) {
    auto it = avgcomp.find(d[0].AsInt64());
    if (d[1].AsDouble() > 146000 && it != avgcomp.end() &&
        it->second > d[1].AsDouble() * 0.72) {
      out.push_back(d);
    }
  }
  return out;
}

// The employees of RichDeptsOracle's departments, as (E.eid, E.sal,
// D.budget).
std::vector<Tuple> RichDeptEmpsOracle(const Rows& rows) {
  std::vector<Tuple> out;
  for (const Tuple& d : RichDeptsOracle(rows)) {
    for (const Tuple& e : rows.emp) {
      if (!e[1].is_null() && e[1].AsInt64() == d[0].AsInt64()) {
        out.push_back({e[0], e[2], d[1]});
      }
    }
  }
  return out;
}

// E.did = F.a AND F.v < E.age, as (E.eid, F.v).
std::vector<Tuple> EmpFanOracle(const Rows& rows) {
  std::vector<Tuple> out;
  for (const Tuple& e : rows.emp) {
    if (e[1].is_null()) continue;
    for (int64_t v : Fan(e[1].AsInt64())) {
      if (v < e[3].AsInt64()) out.push_back({e[0], Value::Int64(v)});
    }
  }
  return out;
}

// A fifth of the departments, so the nested-loops join stays small.
const char* const kEmpDeptQuery =
    "SELECT E.eid, E.sal, D.budget FROM Emp E, Dept D "
    "WHERE E.did = D.did AND E.sal > D.budget AND D.did < 24";
const char* const kEmpBonusQuery =
    "SELECT E.eid, E.sal, B.amount FROM Emp E, Bonus B "
    "WHERE E.eid = B.eid AND B.amount * 30 > E.sal";

// Only the join method `method` is enabled, and magic is off.
void OnlyMethod(const std::string& method, OptimizerOptions* o) {
  o->magic_mode = OptimizerOptions::MagicMode::kNever;
  o->enable_nested_loops = method == "nested loops";
  o->enable_index_nested_loops = method == "index nested loops";
  o->enable_sort_merge = method == "sort-merge";
  o->enable_hash_join = method == "hash join";
}

void ExpectCountersEqual(const CostCounters& a, const CostCounters& b) {
  EXPECT_EQ(a.pages_read, b.pages_read);
  EXPECT_EQ(a.pages_written, b.pages_written);
  EXPECT_EQ(a.tuples_processed, b.tuples_processed);
  EXPECT_EQ(a.exprs_evaluated, b.exprs_evaluated);
  EXPECT_EQ(a.hash_operations, b.hash_operations);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_shipped, b.bytes_shipped);
  EXPECT_EQ(a.function_invocations, b.function_invocations);
  EXPECT_EQ(a.spill_bytes_written, b.spill_bytes_written);
  EXPECT_EQ(a.spill_bytes_read, b.spill_bytes_read);
}

void ExpectRowsIdentical(const std::vector<Tuple>& a,
                         const std::vector<Tuple>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(CompareTuples(a[i], b[i]), 0) << "row " << i << " differs";
  }
}

// The residual keeps a minority of the join's candidates, so most batches
// lose rows to it.
void ExpectMinority(const std::vector<Tuple>& survivors,
                    int64_t candidates) {
  EXPECT_GT(survivors.size(), 0u);
  EXPECT_LT(static_cast<int64_t>(survivors.size()) * 2, candidates);
}

struct Case {
  std::string name;
  const char* sql;
  std::function<void(OptimizerOptions*)> configure;
  std::string plan_node;  // the join the plan must contain
  std::function<std::vector<Tuple>(const Rows&)> oracle;
  std::string absent = "";  // text the plan must not contain
};

TEST(ResidualJoinTest, EveryMethodIsByteIdenticalAndMatchesTheOracle) {
  const Rows rows = MakeRows();
  const std::vector<Case> cases = {
      {"nested loops", kEmpDeptQuery,
       [](OptimizerOptions* o) { OnlyMethod("nested loops", o); },
       " NestedLoopsJoin(", EmpDeptOracle},
      {"index nested loops", kEmpDeptQuery,
       [](OptimizerOptions* o) { OnlyMethod("index nested loops", o); },
       "IndexNestedLoopsJoin(", EmpDeptOracle},
      {"sort-merge", kEmpDeptQuery,
       [](OptimizerOptions* o) { OnlyMethod("sort-merge", o); },
       "SortMergeJoin(", EmpDeptOracle},
      {"hash join", kEmpDeptQuery,
       [](OptimizerOptions* o) { OnlyMethod("hash join", o); },
       ", residual=(E.sal > D.budget)", EmpDeptOracle},
      // Dept is the Filter Join's production set and DeptComp its inner;
      // the residual V.avgcomp > D.budget * 0.72 sits on its final join,
      // the only place the plan can evaluate it, as no other join has a
      // residual. Hash joins only, so the plan also runs in parallel.
      {"filter join",
       "SELECT E.eid, E.sal, D.budget FROM Emp E, Dept D, DeptComp V "
       "WHERE E.did = D.did AND E.did = V.did "
       "AND V.avgcomp > D.budget * 0.72 AND D.budget > 146000",
       [](OptimizerOptions* o) {
         o->enable_nested_loops = false;
         o->enable_index_nested_loops = false;
         o->enable_sort_merge = false;
       },
       "FilterJoin(", RichDeptEmpsOracle, "residual="},
      {"function probe",
       "SELECT E.eid, F.v FROM Emp E, fan F WHERE E.did = F.a AND F.v < E.age",
       [](OptimizerOptions* o) {
         o->magic_mode = OptimizerOptions::MagicMode::kNever;
       },
       "FunctionProbeJoin(fan", EmpFanOracle},
  };
  Database db;
  Load(&db, rows);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    *db.mutable_optimizer_options() = OptimizerOptions();
    c.configure(db.mutable_optimizer_options());
    db.set_exec_batch_size(1);
    auto reference = db.Run(c.sql);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_NE(reference->explain.find(c.plan_node), std::string::npos)
        << reference->explain;
    if (!c.absent.empty()) {
      EXPECT_EQ(reference->explain.find(c.absent), std::string::npos)
          << reference->explain;
    }
    EXPECT_TRUE(testutil::SameMultiset(reference->rows, c.oracle(rows)));
    EXPECT_GT(reference->counters.exprs_evaluated, 0);
    for (int dop : {1, 4}) {
      for (int64_t batch : {1, 7, 1024}) {
        SCOPED_TRACE("dop=" + std::to_string(dop) +
                     " batch=" + std::to_string(batch));
        db.set_exec_batch_size(batch);
        ExecOptions exec;
        exec.dop = dop;
        auto result = db.Run(c.sql, exec);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        if (c.name == "hash join" || c.name == "filter join") {
          // Hash joins over base-table scans: the gang runs the residual.
          EXPECT_EQ(result->used_dop, dop) << result->parallel_fallback_reason;
        }
        ExpectRowsIdentical(result->rows, reference->rows);
        ExpectCountersEqual(result->counters, reference->counters);
      }
    }
  }
}

// The oracles' residuals keep a minority of the equi-join's matches.
TEST(ResidualJoinTest, ResidualsKeepAMinority) {
  const Rows rows = MakeRows();
  int64_t emp_with_did = 0;
  int64_t emp_in_first_depts = 0;
  for (const Tuple& e : rows.emp) {
    emp_with_did += e[1].is_null() ? 0 : 1;
    emp_in_first_depts += !e[1].is_null() && e[1].AsInt64() < 24;
  }
  ExpectMinority(EmpDeptOracle(rows), emp_in_first_depts);
  ExpectMinority(EmpBonusOracle(rows), kEmps);
  ExpectMinority(EmpFanOracle(rows), emp_with_did * 5);
  // The Filter Join's final join matches each big-budget department with
  // its DeptComp row.
  int64_t big_depts = 0;
  for (const Tuple& d : rows.dept) big_depts += d[1].AsDouble() > 146000;
  ExpectMinority(RichDeptsOracle(rows), big_depts);
}

// The hash join's residual through the Grace join: under a 16 KiB limit
// the build spills, and the leaf joins filter their matches before writing
// their runs. The plan drains straight into a vector, so only its
// operators charge the tracker, and the result is the in-memory one, with
// the in-memory join's candidates and residual evaluations, at any batch
// size.
TEST(ResidualJoinTest, GraceLeafJoinFiltersBeforeWritingRuns) {
  const Rows rows = MakeRows();
  Database db;
  Load(&db, rows);
  OnlyMethod("hash join", db.mutable_optimizer_options());
  const testutil::ScopedTempDir dir("residual");
  // limit 0 = ungoverned, in memory.
  auto run = [&](int64_t limit, int64_t batch) {
    auto planned =
        db.PlanSelect(kEmpBonusQuery, *db.mutable_optimizer_options());
    MAGICDB_CHECK_OK(planned.status());
    ExecContext ctx;
    ctx.set_batch_size(batch);
    if (limit > 0) {
      ctx.set_memory_tracker(std::make_shared<MemoryTracker>(limit));
      SpillConfig config;
      config.dir = dir.path();
      config.batch_bytes = 1024;
      ctx.set_spill_manager(std::make_shared<SpillManager>(config));
    }
    auto result = ExecuteToVector(planned->root.get(), &ctx);
    MAGICDB_CHECK_OK(result.status());
    return std::make_pair(*result, ctx.counters());
  };
  const auto [in_memory, in_memory_counters] = run(0, 1);
  EXPECT_TRUE(testutil::SameMultiset(in_memory, EmpBonusOracle(rows)));
  EXPECT_EQ(in_memory_counters.spill_bytes_written, 0);
  const auto [reference, counters] = run(16 * 1024, 1);
  EXPECT_GT(counters.spill_bytes_written, 0);
  ExpectRowsIdentical(reference, in_memory);
  EXPECT_EQ(counters.tuples_processed, in_memory_counters.tuples_processed);
  EXPECT_EQ(counters.exprs_evaluated, in_memory_counters.exprs_evaluated);
  for (int64_t batch : {7, 1024}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    const auto [result, result_counters] = run(16 * 1024, batch);
    ExpectRowsIdentical(result, reference);
    ExpectCountersEqual(result_counters, counters);
  }
  EXPECT_TRUE(dir.empty());  // every spill file is unlinked by now
}

}  // namespace
}  // namespace magicdb
