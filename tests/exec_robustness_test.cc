// Robustness tests for the executor: error propagation through operator
// trees, re-open semantics, empty inputs at every operator, and tree
// printing.

#include <gtest/gtest.h>

#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/db/database.h"
#include "src/exec/aggregate_op.h"
#include "src/exec/basic_ops.h"
#include "src/exec/exchange_op.h"
#include "src/exec/filter_join_op.h"
#include "src/exec/function_ops.h"
#include "src/exec/join_ops.h"
#include "src/exec/scan_ops.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

Schema OneCol() { return Schema({{"t", "a", DataType::kInt64}}); }

std::unique_ptr<Table> SmallTable(int n) {
  auto t = std::make_unique<Table>("t", OneCol());
  for (int i = 0; i < n; ++i) {
    MAGICDB_CHECK_OK(t->Insert({Value::Int64(i)}));
  }
  return t;
}

TEST(ExecErrorTest, DivisionByZeroPropagatesFromProject) {
  auto t = SmallTable(3);
  ExecContext ctx;
  std::vector<ExprPtr> exprs = {
      MakeArithmetic(ArithOp::kDiv, MakeLiteral(Value::Int64(1)),
                     MakeColumnRef(0, DataType::kInt64))};
  Schema out({{"", "inv", DataType::kDouble}});
  ProjectOp op(std::make_unique<SeqScanOp>(t.get()), exprs, out);
  // Row 0 has a = 0: 1/0 must surface as an error, not a crash.
  auto rows = ExecuteToVector(&op, &ctx);
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExecErrorTest, TypeErrorPropagatesThroughJoin) {
  Schema s({{"t", "s", DataType::kString}});
  Table strings("t", s);
  MAGICDB_CHECK_OK(strings.Insert({Value::String("x")}));
  auto nums = SmallTable(2);
  ExecContext ctx;
  // Predicate adds a string to an int: evaluation error mid-join.
  auto bad = MakeComparison(
      CompareOp::kGt,
      MakeArithmetic(ArithOp::kAdd, MakeColumnRef(0, DataType::kString),
                     MakeColumnRef(1, DataType::kInt64)),
      MakeLiteral(Value::Int64(0)));
  NestedLoopsJoinOp join(std::make_unique<SeqScanOp>(&strings),
                         std::make_unique<SeqScanOp>(nums.get()), bad);
  // EvalPredicate treats errors as false at the predicate level, so the
  // join completes with zero matches rather than failing: predicates are
  // filters, not computations.
  auto rows = ExecuteToVector(&join, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(ExecErrorTest, FunctionErrorPropagates) {
  Schema args({{"", "a", DataType::kInt64}});
  Schema results({{"", "r", DataType::kInt64}});
  LambdaTableFunction fn(
      "failing", args, results,
      [](const Tuple& in, std::vector<Tuple>* out) -> Status {
        if (in[0].AsInt64() == 2) {
          return Status::Internal("backend unavailable");
        }
        out->push_back({Value::Int64(0)});
        return Status::OK();
      });
  auto t = SmallTable(5);
  ExecContext ctx;
  FunctionProbeJoinOp op(std::make_unique<SeqScanOp>(t.get()), &fn, {0},
                         nullptr, false);
  auto rows = ExecuteToVector(&op, &ctx);
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInternal);
}

TEST(ExecReopenTest, HashJoinReopenProducesSameResult) {
  auto r = SmallTable(6);
  auto s = SmallTable(6);
  ExecContext ctx;
  HashJoinOp join(std::make_unique<SeqScanOp>(r.get()),
                  std::make_unique<SeqScanOp>(s.get()), {0}, {0}, nullptr);
  auto first = ExecuteToVector(&join, &ctx);
  auto second = ExecuteToVector(&join, &ctx);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(testutil::SameMultiset(*first, *second));
}

TEST(ExecReopenTest, AggregateReopenRecomputes) {
  auto t = SmallTable(4);
  ExecContext ctx;
  std::vector<AggSpec> aggs = {{AggFunc::kCountStar, nullptr, "c"}};
  Schema out({{"", "c", DataType::kInt64}});
  HashAggregateOp op(std::make_unique<SeqScanOp>(t.get()), {}, aggs, out);
  auto first = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(first.ok());
  // Mutating the table between opens is visible (no stale caching).
  MAGICDB_CHECK_OK(t->Insert({Value::Int64(99)}));
  auto second = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*first)[0][0], Value::Int64(4));
  EXPECT_EQ((*second)[0][0], Value::Int64(5));
}

TEST(ExecEmptyInputTest, EveryOperatorHandlesEmptyChild) {
  Table empty("t", OneCol());
  ExecContext ctx;
  {
    FilterOp op(std::make_unique<SeqScanOp>(&empty),
                MakeComparison(CompareOp::kEq,
                               MakeColumnRef(0, DataType::kInt64),
                               MakeLiteral(Value::Int64(1))));
    auto rows = ExecuteToVector(&op, &ctx);
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows->empty());
  }
  {
    DistinctOp op(std::make_unique<SeqScanOp>(&empty));
    auto rows = ExecuteToVector(&op, &ctx);
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows->empty());
  }
  {
    std::vector<SortOp::SortKey> keys = {
        {MakeColumnRef(0, DataType::kInt64), true}};
    SortOp op(std::make_unique<SeqScanOp>(&empty), keys);
    auto rows = ExecuteToVector(&op, &ctx);
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows->empty());
  }
  {
    auto s = SmallTable(3);
    SortMergeJoinOp op(std::make_unique<SeqScanOp>(&empty),
                       std::make_unique<SeqScanOp>(s.get()), {0}, {0},
                       nullptr);
    auto rows = ExecuteToVector(&op, &ctx);
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows->empty());
  }
  {
    auto r = SmallTable(3);
    HashJoinOp op(std::make_unique<SeqScanOp>(r.get()),
                  std::make_unique<SeqScanOp>(&empty), {0}, {0}, nullptr);
    auto rows = ExecuteToVector(&op, &ctx);
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows->empty());
  }
}

TEST(ExecTreePrintTest, NestedTreeRendersAllOperators) {
  auto r = SmallTable(2);
  auto s = SmallTable(2);
  HashJoinOp join(
      std::make_unique<FilterOp>(
          std::make_unique<SeqScanOp>(r.get()),
          MakeComparison(CompareOp::kGe, MakeColumnRef(0, DataType::kInt64),
                         MakeLiteral(Value::Int64(0)))),
      std::make_unique<SeqScanOp>(s.get()), {0}, {0}, nullptr);
  const std::string tree = join.TreeString();
  EXPECT_NE(tree.find("HashJoin"), std::string::npos);
  EXPECT_NE(tree.find("Filter"), std::string::npos);
  EXPECT_NE(tree.find("SeqScan"), std::string::npos);
  // Indentation: children are nested two spaces deeper.
  EXPECT_NE(tree.find("\n  "), std::string::npos);
}

TEST(ExecShipTest, ReopenResetsByteAccounting) {
  auto t = SmallTable(600);
  ExecContext ctx;
  ShipOp op(std::make_unique<SeqScanOp>(t.get()), 1, 0);
  ASSERT_TRUE(ExecuteToVector(&op, &ctx).ok());
  const int64_t first_bytes = ctx.counters().bytes_shipped;
  ASSERT_TRUE(ExecuteToVector(&op, &ctx).ok());
  EXPECT_EQ(ctx.counters().bytes_shipped, 2 * first_bytes);
}

TEST(ExecFilterJoinTest, ReopenRebuildsFilterSet) {
  auto r = SmallTable(5);
  auto s = SmallTable(10);
  ExecContext ctx;
  const std::string id = "robust_fs";
  auto inner = std::make_unique<FilterProbeOp>(
      std::make_unique<SeqScanOp>(s.get()), id, std::vector<int>{0});
  FilterJoinOp join(std::make_unique<SeqScanOp>(r.get()), std::move(inner),
                    id, {0}, {0}, nullptr, FilterSetImpl::kExact);
  auto first = ExecuteToVector(&join, &ctx);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->size(), 5u);
  auto second = ExecuteToVector(&join, &ctx);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(testutil::SameMultiset(*first, *second));
}

#ifdef MAGICDB_FAILPOINTS

// ----- Failpoint-driven error propagation -----
//
// Faults injected at operator internals (a storage page read, a hash-join
// build insert, the parallel aggregate merge) must surface through Run at
// any dop verbatim — same code, same message — with no partial result rows
// attached.

void MakeFailpointWorkload(Database* db) {
  MAGICDB_CHECK_OK(
      db->Execute("CREATE TABLE R (a INT, b INT)"));
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE S (a INT, c INT)"));
  std::vector<Tuple> r_rows, s_rows;
  for (int i = 0; i < 500; ++i) {
    r_rows.push_back({Value::Int64(i % 50), Value::Int64(i)});
    s_rows.push_back({Value::Int64(i % 50), Value::Int64(2 * i)});
  }
  MAGICDB_CHECK_OK(db->LoadRows("R", std::move(r_rows)));
  MAGICDB_CHECK_OK(db->LoadRows("S", std::move(s_rows)));
  OptimizerOptions* opts = db->mutable_optimizer_options();
  opts->enable_nested_loops = false;
  opts->enable_index_nested_loops = false;
  opts->enable_sort_merge = false;
}

TEST(ExecFailpointTest, ScanFaultSurfacesVerbatim) {
  Database db;
  MakeFailpointWorkload(&db);
  FailpointConfig config;
  config.inject = Status::Internal("injected: page torn");
  ScopedFailpoint armed(std::string("storage.page_read"), config);
  auto r = db.Run("SELECT a, b FROM R WHERE b < 100");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.status().message(), "injected: page torn");
}

TEST(ExecFailpointTest, HashJoinBuildFaultSurfacesVerbatim) {
  Database db;
  MakeFailpointWorkload(&db);
  FailpointConfig config;
  config.inject = Status::Internal("injected: build heap poisoned");
  ScopedFailpoint armed(std::string("exec.hash_join.build"), config);
  auto r = db.Run("SELECT R.b, S.c FROM R, S WHERE R.a = S.a");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.status().message(), "injected: build heap poisoned");
}

TEST(ExecFailpointTest, AggregateBuildFaultSurfacesVerbatim) {
  Database db;
  MakeFailpointWorkload(&db);
  FailpointConfig config;
  // Fire a little way in so the aggregate has already absorbed rows: the
  // half-built group table must not leak partial rows into the result.
  config.fire_from_hit = 10;
  config.inject = Status::Unavailable("injected: agg state corrupt");
  ScopedFailpoint armed(std::string("exec.aggregate.build"), config);
  auto r = db.Run("SELECT a, COUNT(*) FROM R GROUP BY a");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(r.status().message(), "injected: agg state corrupt");
}

TEST(ExecFailpointTest, ParallelMergeFaultSurfacesVerbatimAtDop2) {
  Database db;
  MakeFailpointWorkload(&db);
  // Fault-free parallel run first: proves the plan actually exercises the
  // parallel path this test means to fault.
  auto clean = db.Run("SELECT a, COUNT(*) FROM R GROUP BY a", {.dop = 2});
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  FailpointConfig config;
  config.inject = Status::Internal("injected: merge partition lost");
  {
    ScopedFailpoint armed(std::string("parallel.aggregate.merge"), config);
    auto r = db.Run("SELECT a, COUNT(*) FROM R GROUP BY a", {.dop = 2});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
    EXPECT_EQ(r.status().message(), "injected: merge partition lost");
  }

  // The merge fault tore down a gang mid-barrier; the database must still
  // answer the same query — sequentially and in parallel — afterwards.
  auto after = db.Run("SELECT a, COUNT(*) FROM R GROUP BY a", {.dop = 2});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rows.size(), clean->rows.size());
}

TEST(ExecFailpointTest, EveryKthTriggerFiresOnLaterQueryOnly) {
  Database db;
  MakeFailpointWorkload(&db);
  FailpointConfig config;
  // The scan site is hit once per page; arm it to fire far enough out that
  // the first query completes untouched and a later one trips.
  config.fire_from_hit = 1000000;
  config.inject = Status::Internal("injected: late fault");
  ScopedFailpoint armed(std::string("storage.page_read"), config);
  auto first = db.Run("SELECT a, b FROM R WHERE b < 100");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->rows.empty());
}

#endif  // MAGICDB_FAILPOINTS

}  // namespace
}  // namespace magicdb
