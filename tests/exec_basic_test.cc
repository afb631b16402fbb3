#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/exec/aggregate_op.h"
#include "src/exec/basic_ops.h"
#include "src/exec/scan_ops.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

Schema TestSchema() {
  return Schema({{"t", "a", DataType::kInt64},
                 {"t", "b", DataType::kInt64},
                 {"t", "s", DataType::kString}});
}

std::unique_ptr<Table> MakeTable(int n, int b_mod = 3) {
  auto t = std::make_unique<Table>("t", TestSchema());
  for (int i = 0; i < n; ++i) {
    MAGICDB_CHECK_OK(t->Insert({Value::Int64(i), Value::Int64(i % b_mod),
                                Value::String("s" + std::to_string(i % 2))}));
  }
  return t;
}

TEST(SeqScanTest, ProducesAllRowsAndChargesPages) {
  auto t = MakeTable(5);
  ExecContext ctx;
  SeqScanOp scan(t.get());
  auto rows = ExecuteToVector(&scan, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(ctx.counters().pages_read, 1);
  EXPECT_EQ(ctx.counters().tuples_processed, 5);
}

TEST(SeqScanTest, EmptyTableNoCharge) {
  Table t("t", TestSchema());
  ExecContext ctx;
  SeqScanOp scan(&t);
  auto rows = ExecuteToVector(&scan, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  EXPECT_EQ(ctx.counters().pages_read, 0);
}

TEST(SeqScanTest, PageChargesMatchTableNumPages) {
  auto t = MakeTable(500);
  ExecContext ctx;
  SeqScanOp scan(t.get());
  ASSERT_TRUE(ExecuteToVector(&scan, &ctx).ok());
  EXPECT_EQ(ctx.counters().pages_read, t->NumPages());
}

TEST(SeqScanTest, AliasRequalifiesSchema) {
  auto t = MakeTable(1);
  SeqScanOp scan(t.get(), "X");
  EXPECT_EQ(scan.schema().column(0).qualifier, "X");
}

TEST(SeqScanTest, ReopenRescans) {
  auto t = MakeTable(4);
  ExecContext ctx;
  SeqScanOp scan(t.get());
  ASSERT_TRUE(ExecuteToVector(&scan, &ctx).ok());
  auto again = ExecuteToVector(&scan, &ctx);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->size(), 4u);
  EXPECT_EQ(ctx.counters().pages_read, 2);  // two full scans
}

TEST(FilterOpTest, FiltersByPredicate) {
  auto t = MakeTable(10);
  ExecContext ctx;
  auto pred = MakeComparison(CompareOp::kLt,
                             MakeColumnRef(0, DataType::kInt64),
                             MakeLiteral(Value::Int64(4)));
  FilterOp op(std::make_unique<SeqScanOp>(t.get()), pred);
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);
  EXPECT_EQ(ctx.counters().exprs_evaluated, 10);
}

TEST(FilterOpTest, NullPredicateResultDropsTuple) {
  Table t("t", Schema({{"t", "a", DataType::kInt64}}));
  MAGICDB_CHECK_OK(t.Insert({Value::Null()}));
  MAGICDB_CHECK_OK(t.Insert({Value::Int64(1)}));
  ExecContext ctx;
  auto pred = MakeComparison(CompareOp::kEq,
                             MakeColumnRef(0, DataType::kInt64),
                             MakeLiteral(Value::Int64(1)));
  FilterOp op(std::make_unique<SeqScanOp>(&t), pred);
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST(ProjectOpTest, ComputesExpressions) {
  auto t = MakeTable(3);
  ExecContext ctx;
  std::vector<ExprPtr> exprs = {
      MakeArithmetic(ArithOp::kAdd, MakeColumnRef(0, DataType::kInt64),
                     MakeColumnRef(1, DataType::kInt64))};
  Schema out_schema({{"", "sum", DataType::kInt64}});
  ProjectOp op(std::make_unique<SeqScanOp>(t.get()), exprs, out_schema);
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[2][0], Value::Int64(2 + 2 % 3));
}

TEST(DistinctOpTest, RemovesDuplicates) {
  auto t = MakeTable(10);
  ExecContext ctx;
  std::vector<ExprPtr> exprs = {MakeColumnRef(1, DataType::kInt64)};
  Schema s({{"", "b", DataType::kInt64}});
  auto proj = std::make_unique<ProjectOp>(std::make_unique<SeqScanOp>(t.get()),
                                          exprs, s);
  DistinctOp op(std::move(proj));
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // b = i % 3
}

TEST(DistinctOpTest, DistinctOnNullsCollapsesThem) {
  Table t("t", Schema({{"t", "a", DataType::kInt64}}));
  MAGICDB_CHECK_OK(t.Insert({Value::Null()}));
  MAGICDB_CHECK_OK(t.Insert({Value::Null()}));
  ExecContext ctx;
  DistinctOp op(std::make_unique<SeqScanOp>(&t));
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST(SortOpTest, SortsAscendingAndDescending) {
  auto t = MakeTable(5);
  ExecContext ctx;
  std::vector<SortOp::SortKey> keys = {
      {MakeColumnRef(0, DataType::kInt64), /*ascending=*/false}};
  SortOp op(std::make_unique<SeqScanOp>(t.get()), keys);
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 5u);
  EXPECT_EQ((*rows)[0][0], Value::Int64(4));
  EXPECT_EQ((*rows)[4][0], Value::Int64(0));
}

TEST(SortOpTest, MultiKeySort) {
  auto t = MakeTable(6);
  ExecContext ctx;
  std::vector<SortOp::SortKey> keys = {
      {MakeColumnRef(1, DataType::kInt64), true},
      {MakeColumnRef(0, DataType::kInt64), false}};
  SortOp op(std::make_unique<SeqScanOp>(t.get()), keys);
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  // b groups 0,0,1,1,2,2 (i%3: rows 0,3 | 1,4 | 2,5); within group a desc.
  EXPECT_EQ((*rows)[0][0], Value::Int64(3));
  EXPECT_EQ((*rows)[1][0], Value::Int64(0));
}

TEST(SortOpTest, ExternalPassChargedWhenOverBudget) {
  auto t = MakeTable(2000);
  ExecContext ctx;
  ctx.set_memory_budget_bytes(1024);  // force external pass
  std::vector<SortOp::SortKey> keys = {{MakeColumnRef(0, DataType::kInt64),
                                        true}};
  SortOp op(std::make_unique<SeqScanOp>(t.get()), keys);
  ASSERT_TRUE(ExecuteToVector(&op, &ctx).ok());
  EXPECT_GT(ctx.counters().pages_written, 0);
}

TEST(LimitOpTest, CutsOffOutput) {
  auto t = MakeTable(10);
  ExecContext ctx;
  LimitOp op(std::make_unique<SeqScanOp>(t.get()), 3);
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST(HashAggregateTest, GroupByWithAverage) {
  auto t = MakeTable(9);  // b = i % 3, three groups of 3
  ExecContext ctx;
  std::vector<ExprPtr> groups = {MakeColumnRef(1, DataType::kInt64, "b")};
  std::vector<AggSpec> aggs = {
      {AggFunc::kAvg, MakeColumnRef(0, DataType::kInt64, "a"), "avg_a"},
      {AggFunc::kCountStar, nullptr, "cnt"}};
  Schema out({{"", "b", DataType::kInt64},
              {"", "avg_a", DataType::kDouble},
              {"", "cnt", DataType::kInt64}});
  HashAggregateOp op(std::make_unique<SeqScanOp>(t.get()), groups, aggs, out);
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  // Group b=0 holds a in {0,3,6} -> avg 3.
  for (const Tuple& r : *rows) {
    if (r[0] == Value::Int64(0)) {
      EXPECT_DOUBLE_EQ(r[1].AsDouble(), 3.0);
      EXPECT_EQ(r[2], Value::Int64(3));
    }
  }
}

TEST(HashAggregateTest, MinMaxSumCount) {
  auto t = MakeTable(5);
  ExecContext ctx;
  std::vector<AggSpec> aggs = {
      {AggFunc::kMin, MakeColumnRef(0, DataType::kInt64), "mn"},
      {AggFunc::kMax, MakeColumnRef(0, DataType::kInt64), "mx"},
      {AggFunc::kSum, MakeColumnRef(0, DataType::kInt64), "sm"},
      {AggFunc::kCount, MakeColumnRef(0, DataType::kInt64), "ct"}};
  Schema out({{"", "mn", DataType::kInt64},
              {"", "mx", DataType::kInt64},
              {"", "sm", DataType::kInt64},
              {"", "ct", DataType::kInt64}});
  HashAggregateOp op(std::make_unique<SeqScanOp>(t.get()), {}, aggs, out);
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], Value::Int64(0));
  EXPECT_EQ((*rows)[0][1], Value::Int64(4));
  EXPECT_EQ((*rows)[0][2], Value::Int64(10));
  EXPECT_EQ((*rows)[0][3], Value::Int64(5));
}

TEST(HashAggregateTest, EmptyInputScalarAggregate) {
  Table t("t", TestSchema());
  ExecContext ctx;
  std::vector<AggSpec> aggs = {
      {AggFunc::kCountStar, nullptr, "cnt"},
      {AggFunc::kSum, MakeColumnRef(0, DataType::kInt64), "sm"}};
  Schema out({{"", "cnt", DataType::kInt64}, {"", "sm", DataType::kInt64}});
  HashAggregateOp op(std::make_unique<SeqScanOp>(&t), {}, aggs, out);
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], Value::Int64(0));
  EXPECT_TRUE((*rows)[0][1].is_null());  // SUM over empty is NULL
}

TEST(HashAggregateTest, EmptyInputGroupedAggregateIsEmpty) {
  Table t("t", TestSchema());
  ExecContext ctx;
  std::vector<ExprPtr> groups = {MakeColumnRef(1, DataType::kInt64)};
  std::vector<AggSpec> aggs = {{AggFunc::kCountStar, nullptr, "cnt"}};
  Schema out({{"", "b", DataType::kInt64}, {"", "cnt", DataType::kInt64}});
  HashAggregateOp op(std::make_unique<SeqScanOp>(&t), groups, aggs, out);
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(HashAggregateTest, AggregatesSkipNulls) {
  Table t("t", Schema({{"t", "a", DataType::kInt64}}));
  MAGICDB_CHECK_OK(t.Insert({Value::Int64(2)}));
  MAGICDB_CHECK_OK(t.Insert({Value::Null()}));
  MAGICDB_CHECK_OK(t.Insert({Value::Int64(4)}));
  ExecContext ctx;
  std::vector<AggSpec> aggs = {
      {AggFunc::kAvg, MakeColumnRef(0, DataType::kInt64), "av"},
      {AggFunc::kCount, MakeColumnRef(0, DataType::kInt64), "ct"},
      {AggFunc::kCountStar, nullptr, "cs"}};
  Schema out({{"", "av", DataType::kDouble},
              {"", "ct", DataType::kInt64},
              {"", "cs", DataType::kInt64}});
  HashAggregateOp op(std::make_unique<SeqScanOp>(&t), {}, aggs, out);
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_DOUBLE_EQ((*rows)[0][0].AsDouble(), 3.0);
  EXPECT_EQ((*rows)[0][1], Value::Int64(2));
  EXPECT_EQ((*rows)[0][2], Value::Int64(3));
}

}  // namespace
}  // namespace magicdb
