// Binder edge cases: aggregate expressions, grouping rules, name
// resolution, and IN/BETWEEN desugaring end to end.

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/db/database.h"

namespace magicdb {
namespace {

class BinderFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    MAGICDB_CHECK_OK(db_.Execute("CREATE TABLE t (g INT, v INT, w DOUBLE)"));
    std::vector<Tuple> rows;
    for (int i = 0; i < 12; ++i) {
      rows.push_back({Value::Int64(i % 3), Value::Int64(i),
                      Value::Double(i * 0.5)});
    }
    MAGICDB_CHECK_OK(db_.LoadRows("t", std::move(rows)));
  }

  Database db_;
};

TEST_F(BinderFixture, ArithmeticOverAggregates) {
  auto result = db_.Run(
      "SELECT g, SUM(v) + COUNT(*) AS sc, SUM(v) / COUNT(*) AS avg_v "
      "FROM t GROUP BY g ORDER BY g");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 3u);
  // Group 0: v in {0,3,6,9}: sum 18, count 4.
  EXPECT_EQ(result->rows[0][1], Value::Int64(22));
  EXPECT_DOUBLE_EQ(result->rows[0][2].AsDouble(), 4.5);
}

TEST_F(BinderFixture, SameAggregateReusedOnce) {
  // SUM(v) appears three times; the aggregate is computed once and the
  // plan still evaluates correctly.
  auto result = db_.Run(
      "SELECT SUM(v), SUM(v) + 1, SUM(v) * 2 FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], Value::Int64(66));
  EXPECT_EQ(result->rows[0][1], Value::Int64(67));
  EXPECT_EQ(result->rows[0][2], Value::Int64(132));
}

TEST_F(BinderFixture, CountOfExpression) {
  auto result = db_.Run("SELECT COUNT(v + 1) FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0], Value::Int64(12));
}

TEST_F(BinderFixture, AggregateOfArithmetic) {
  auto result = db_.Run("SELECT g, MAX(v * 2) FROM t GROUP BY g ORDER BY g");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Group 2: v in {2,5,8,11} -> max(v*2) = 22.
  EXPECT_EQ(result->rows[2][1], Value::Int64(22));
}

TEST_F(BinderFixture, HavingReusesSelectAggregate) {
  auto result = db_.Run(
      "SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING SUM(v) > 20 "
      "ORDER BY s DESC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 2u);  // sums are 18, 22, 26
  EXPECT_EQ(result->rows[0][1], Value::Int64(26));
}

TEST_F(BinderFixture, HavingWithNewAggregate) {
  auto result = db_.Run(
      "SELECT g FROM t GROUP BY g HAVING MIN(v) < 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 1u);  // only group 0 has min 0
}

TEST_F(BinderFixture, GroupByExpression) {
  // Division is double-typed, so v / 6 yields one group per v; use an
  // integer expression with three distinct values instead.
  auto result = db_.Run(
      "SELECT g + 1 AS g1, COUNT(*) FROM t GROUP BY g + 1 ORDER BY g1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0][0], Value::Int64(1));
  EXPECT_EQ(result->rows[0][1], Value::Int64(4));
}

TEST_F(BinderFixture, InListExecutesCorrectly) {
  auto result = db_.Run("SELECT v FROM t WHERE v IN (1, 5, 9, 42)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 3u);
}

TEST_F(BinderFixture, BetweenExecutesCorrectly) {
  auto result = db_.Run("SELECT v FROM t WHERE v BETWEEN 3 AND 6");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 4u);
}

TEST_F(BinderFixture, OrderByAliasOfComputedColumn) {
  auto result =
      db_.Run("SELECT v * -1 AS neg FROM t ORDER BY neg LIMIT 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0], Value::Int64(-11));
}

TEST_F(BinderFixture, MixedCaseKeywordsAndWhitespace) {
  auto result = db_.Run(
      "select   G, count( * )\n from T_WRONG, t where g = 0 group by g");
  EXPECT_FALSE(result.ok());  // unknown table T_WRONG
  result = db_.Run("select g, count(*) from t group by g");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 3u);
}

TEST_F(BinderFixture, ErrorMessagesNameTheProblem) {
  auto missing = db_.Run("SELECT nope FROM t");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("nope"), std::string::npos);

  auto ungrouped = db_.Run("SELECT v, SUM(w) FROM t GROUP BY g");
  ASSERT_FALSE(ungrouped.ok());
  EXPECT_EQ(ungrouped.status().code(), StatusCode::kBindError);

  auto agg_in_where = db_.Run("SELECT g FROM t WHERE SUM(v) > 1");
  ASSERT_FALSE(agg_in_where.ok());
  EXPECT_EQ(agg_in_where.status().code(), StatusCode::kBindError);

  auto agg_in_group = db_.Run("SELECT g FROM t GROUP BY SUM(v)");
  EXPECT_FALSE(agg_in_group.ok());
}

TEST_F(BinderFixture, StarWithGroupByRejected) {
  EXPECT_FALSE(db_.Run("SELECT * FROM t GROUP BY g").ok());
}

TEST_F(BinderFixture, DoubleAndIntComparison) {
  auto result = db_.Run("SELECT v FROM t WHERE w = 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 1u);  // w = 2.0 at v = 4
  EXPECT_EQ(result->rows[0][0], Value::Int64(4));
}

}  // namespace
}  // namespace magicdb
