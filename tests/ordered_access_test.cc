// Tests for order-providing access paths (ordered-index scans) and the
// stacked-view magic rewrite.

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "src/exec/scan_ops.h"
#include "src/rewrite/magic_rewrite.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

using testutil::SameMultiset;

TEST(OrderedIndexScanTest, ProducesRowsInKeyOrder) {
  Schema s({{"t", "k", DataType::kInt64}, {"t", "v", DataType::kInt64}});
  Table t("t", s);
  OrderedIndex* index = t.CreateOrderedIndex({0});
  Random rng(44);
  for (int i = 0; i < 100; ++i) {
    MAGICDB_CHECK_OK(t.Insert(
        {Value::Int64(static_cast<int64_t>(rng.Uniform(1000))),
         Value::Int64(i)}));
  }
  ExecContext ctx;
  OrderedIndexScanOp scan(&t, index, "x");
  auto rows = ExecuteToVector(&scan, &ctx);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 100u);
  for (size_t i = 1; i < rows->size(); ++i) {
    EXPECT_LE((*rows)[i - 1][0].AsInt64(), (*rows)[i][0].AsInt64());
  }
  EXPECT_EQ(scan.schema().column(0).qualifier, "x");
  // Charged: tree height + table pages.
  EXPECT_GE(ctx.counters().pages_read, t.NumPages());
}

TEST(OrderedIndexScanTest, SameMultisetAsSeqScan) {
  Schema s({{"t", "k", DataType::kInt64}});
  Table t("t", s);
  OrderedIndex* index = t.CreateOrderedIndex({0});
  for (int i = 9; i >= 0; --i) {
    MAGICDB_CHECK_OK(t.Insert({Value::Int64(i % 4)}));
  }
  ExecContext ctx;
  OrderedIndexScanOp ordered(&t, index);
  SeqScanOp seq(&t);
  auto a = ExecuteToVector(&ordered, &ctx);
  auto b = ExecuteToVector(&seq, &ctx);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(SameMultiset(*a, *b));
}

TEST(OrderedAccessPathTest, OptimizerUsesOrderedScanForSortMergeChain) {
  // With only sort-merge joins available and ordered indexes on the join
  // keys, the DP should seed ordered scans and skip redundant sorts.
  Database db;
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE A (k INT, p INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE B (k INT, q INT)"));
  Random rng(45);
  std::vector<Tuple> a, b;
  for (int i = 0; i < 500; ++i) {
    a.push_back({Value::Int64(static_cast<int64_t>(rng.Uniform(50))),
                 Value::Int64(i)});
    b.push_back({Value::Int64(static_cast<int64_t>(rng.Uniform(50))),
                 Value::Int64(i)});
  }
  MAGICDB_CHECK_OK(db.LoadRows("A", std::move(a)));
  MAGICDB_CHECK_OK(db.LoadRows("B", std::move(b)));
  (*db.catalog()->Lookup("A"))->table->CreateOrderedIndex({0});
  (*db.catalog()->Lookup("B"))->table->CreateOrderedIndex({0});
  MAGICDB_CHECK_OK(db.catalog()->AnalyzeAll());

  OptimizerOptions opts;
  opts.enable_hash_join = false;
  opts.enable_index_nested_loops = false;
  opts.enable_nested_loops = false;
  opts.magic_mode = OptimizerOptions::MagicMode::kNever;
  opts.filter_join_on_stored = false;
  *db.mutable_optimizer_options() = opts;
  const char* query = "SELECT A.p, B.q FROM A, B WHERE A.k = B.k";
  auto smj = db.Run(query);
  ASSERT_TRUE(smj.ok()) << smj.status().ToString();
  EXPECT_NE(smj->explain.find("outer presorted"), std::string::npos)
      << smj->explain;
  EXPECT_NE(smj->explain.find("OrderedIndexScan"), std::string::npos)
      << smj->explain;

  // Results agree with the unrestricted optimizer.
  *db.mutable_optimizer_options() = OptimizerOptions();
  auto free_choice = db.Run(query);
  ASSERT_TRUE(free_choice.ok());
  EXPECT_TRUE(SameMultiset(smj->rows, free_choice->rows));
}

TEST(OrderedAccessPathTest, DisabledWithoutInterestingOrders) {
  Database db;
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE A (k INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE B (k INT)"));
  std::vector<Tuple> rows;
  for (int i = 0; i < 50; ++i) rows.push_back({Value::Int64(i % 5)});
  MAGICDB_CHECK_OK(db.LoadRows("A", rows));
  MAGICDB_CHECK_OK(db.LoadRows("B", std::move(rows)));
  (*db.catalog()->Lookup("A"))->table->CreateOrderedIndex({0});
  db.mutable_optimizer_options()->interesting_orders = false;
  auto result = db.Run("SELECT A.k FROM A, B WHERE A.k = B.k");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->explain.find("OrderedIndexScan"), std::string::npos);
}

TEST(StackedViewRewriteTest, RestrictionPushesThroughTwoViewLevels) {
  // YoungEmp is a view over Emp; DepAvgYoung aggregates over YoungEmp.
  // The rewrite must reach the base scan through both views.
  Database db;
  MAGICDB_CHECK_OK(
      db.Execute("CREATE TABLE Emp (did INT, sal DOUBLE, age INT)"));
  Random rng(46);
  std::vector<Tuple> emps;
  for (int d = 0; d < 40; ++d) {
    for (int e = 0; e < 5; ++e) {
      emps.push_back({Value::Int64(d),
                      Value::Double(40000 + rng.NextDouble() * 60000),
                      Value::Int64(20 + static_cast<int64_t>(rng.Uniform(30)))});
    }
  }
  MAGICDB_CHECK_OK(db.LoadRows("Emp", std::move(emps)));
  MAGICDB_CHECK_OK(db.Execute(
      "CREATE VIEW YoungEmp AS SELECT did, sal FROM Emp WHERE age < 30"));
  MAGICDB_CHECK_OK(db.Execute(
      "CREATE VIEW DepAvgYoung AS SELECT did, AVG(sal) AS a FROM YoungEmp "
      "GROUP BY did"));

  const CatalogEntry* outer_view = *db.catalog()->Lookup("DepAvgYoung");
  auto rewritten = MagicRewrite(outer_view->view_plan, {0}, "sv1",
                                RewriteStyle::kProbe, db.catalog());
  ASSERT_TRUE(rewritten.ok());
  // Without catalog expansion the probe would anchor at depth 2 (above the
  // YoungEmp scan); with expansion it reaches below the inner view's
  // Project/Filter, i.e. deeper.
  auto unexpanded = MagicRewrite(outer_view->view_plan, {0}, "sv2",
                                 RewriteStyle::kProbe, nullptr);
  ASSERT_TRUE(unexpanded.ok());
  EXPECT_GT(ProbeDepth(*rewritten), ProbeDepth(*unexpanded));
}

TEST(StackedViewRewriteTest, StackedViewQueryCorrectUnderAllModes) {
  Database db;
  MAGICDB_CHECK_OK(
      db.Execute("CREATE TABLE Emp (did INT, sal DOUBLE, age INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
  Random rng(47);
  std::vector<Tuple> emps, depts;
  for (int d = 0; d < 60; ++d) {
    depts.push_back({Value::Int64(d),
                     Value::Double(rng.Bernoulli(0.15) ? 200000.0 : 50000.0)});
    for (int e = 0; e < 5; ++e) {
      emps.push_back({Value::Int64(d),
                      Value::Double(40000 + rng.NextDouble() * 60000),
                      Value::Int64(20 + static_cast<int64_t>(rng.Uniform(30)))});
    }
  }
  MAGICDB_CHECK_OK(db.LoadRows("Emp", std::move(emps)));
  MAGICDB_CHECK_OK(db.LoadRows("Dept", std::move(depts)));
  (*db.catalog()->Lookup("Emp"))->table->CreateHashIndex({0});
  MAGICDB_CHECK_OK(db.catalog()->AnalyzeAll());
  MAGICDB_CHECK_OK(db.Execute(
      "CREATE VIEW YoungEmp AS SELECT did, sal FROM Emp WHERE age < 30"));
  MAGICDB_CHECK_OK(db.Execute(
      "CREATE VIEW DepAvgYoung AS SELECT did, AVG(sal) AS a FROM YoungEmp "
      "GROUP BY did"));

  const char* query =
      "SELECT D.did, V.a FROM Dept D, DepAvgYoung V "
      "WHERE D.did = V.did AND D.budget > 100000";
  auto magic = db.Run(query);
  ASSERT_TRUE(magic.ok()) << magic.status().ToString();
  db.mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kNever;
  auto plain = db.Run(query);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(SameMultiset(magic->rows, plain->rows));
}

}  // namespace
}  // namespace magicdb
