#include <gtest/gtest.h>

#include <map>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

using testutil::SameMultiset;

/// End-to-end fixture that sets up the paper's Figure-1 schema through SQL.
class DatabaseFigure1 : public ::testing::Test {
 protected:
  void Populate(int num_depts, int emps_per_dept, double young_frac,
                double big_frac, uint64_t seed = 7) {
    MAGICDB_CHECK_OK(
        db_.Execute("CREATE TABLE Emp (did INT, sal DOUBLE, age INT)"));
    MAGICDB_CHECK_OK(
        db_.Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
    Random rng(seed);
    std::vector<Tuple> emps, depts;
    for (int d = 0; d < num_depts; ++d) {
      depts.push_back({Value::Int64(d), Value::Double(rng.Bernoulli(big_frac)
                                                          ? 200000.0
                                                          : 50000.0)});
      for (int e = 0; e < emps_per_dept; ++e) {
        emps.push_back({Value::Int64(d),
                        Value::Double(50000.0 + rng.NextDouble() * 100000.0),
                        Value::Int64(rng.Bernoulli(young_frac) ? 25 : 45)});
      }
    }
    MAGICDB_CHECK_OK(db_.LoadRows("Dept", std::move(depts)));
    MAGICDB_CHECK_OK(db_.LoadRows("Emp", std::move(emps)));
    MAGICDB_CHECK_OK(db_.Execute(
        "CREATE VIEW DepAvgSal AS SELECT did, AVG(sal) AS avgsal "
        "FROM Emp GROUP BY did"));
  }

  static constexpr const char* kFigure1Query =
      "SELECT E.did, E.sal, V.avgsal "
      "FROM Emp E, Dept D, DepAvgSal V "
      "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal "
      "AND E.age < 30 AND D.budget > 100000";

  std::vector<Tuple> Reference() {
    const Table* emp = (*db_.catalog()->Lookup("Emp"))->table;
    const Table* dept = (*db_.catalog()->Lookup("Dept"))->table;
    std::map<int64_t, std::pair<double, int64_t>> sums;
    for (int64_t i = 0; i < emp->NumRows(); ++i) {
      auto& [s, c] = sums[emp->row(i)[0].AsInt64()];
      s += emp->row(i)[1].AsDouble();
      c += 1;
    }
    std::map<int64_t, double> budgets;
    for (int64_t i = 0; i < dept->NumRows(); ++i) {
      budgets[dept->row(i)[0].AsInt64()] = dept->row(i)[1].AsDouble();
    }
    std::vector<Tuple> out;
    for (int64_t i = 0; i < emp->NumRows(); ++i) {
      const Tuple& r = emp->row(i);
      const int64_t did = r[0].AsInt64();
      if (r[2].AsInt64() >= 30 || budgets[did] <= 100000.0) continue;
      const double avg = sums[did].first / sums[did].second;
      if (r[1].AsDouble() > avg) {
        out.push_back({Value::Int64(did), r[1], Value::Double(avg)});
      }
    }
    return out;
  }

  Database db_;
};

TEST_F(DatabaseFigure1, Figure1QueryCorrect) {
  Populate(25, 8, 0.3, 0.3);
  auto result = db_.Run(kFigure1Query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SameMultiset(result->rows, Reference()));
  EXPECT_EQ(result->schema.num_columns(), 3);
}

TEST_F(DatabaseFigure1, MagicModesAgreeOnResults) {
  Populate(30, 6, 0.2, 0.2);
  auto cost_based = db_.Run(kFigure1Query);
  ASSERT_TRUE(cost_based.ok());
  db_.mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kNever;
  auto never = db_.Run(kFigure1Query);
  ASSERT_TRUE(never.ok());
  db_.mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kAlwaysOnVirtual;
  auto always = db_.Run(kFigure1Query);
  ASSERT_TRUE(always.ok());
  EXPECT_TRUE(SameMultiset(cost_based->rows, never->rows));
  EXPECT_TRUE(SameMultiset(cost_based->rows, always->rows));
}

TEST_F(DatabaseFigure1, SelectiveWorkloadUsesFilterJoinAndWins) {
  Populate(400, 4, 0.02, 0.02);
  auto magic = db_.Run(kFigure1Query);
  ASSERT_TRUE(magic.ok());
  EXPECT_FALSE(magic->filter_joins.empty()) << magic->explain;

  db_.mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kNever;
  auto plain = db_.Run(kFigure1Query);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(SameMultiset(magic->rows, plain->rows));
  EXPECT_LT(magic->counters.TotalCost(), plain->counters.TotalCost());
}

TEST_F(DatabaseFigure1, ExplainShowsPlan) {
  Populate(10, 4, 0.5, 0.5);
  auto explain = db_.Explain(kFigure1Query);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("estimated cost="), std::string::npos);
  EXPECT_NE(explain->find("SeqScan"), std::string::npos);
}

TEST(DatabaseTest, CreateTableAndSimpleQueries) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b DOUBLE, s VARCHAR)").ok());
  std::vector<Tuple> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({Value::Int64(i), Value::Double(i * 0.5),
                    Value::String(i % 2 == 0 ? "even" : "odd")});
  }
  ASSERT_TRUE(db.LoadRows("t", std::move(rows)).ok());

  auto all = db.Run("SELECT * FROM t");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->rows.size(), 10u);
  EXPECT_EQ(all->schema.num_columns(), 3);

  auto filtered = db.Run("SELECT a FROM t WHERE s = 'even' AND a > 2");
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->rows.size(), 3u);  // 4, 6, 8

  auto computed = db.Run("SELECT a + 1 AS a1, b * 2 FROM t WHERE a = 3");
  ASSERT_TRUE(computed.ok());
  ASSERT_EQ(computed->rows.size(), 1u);
  EXPECT_EQ(computed->rows[0][0], Value::Int64(4));
  EXPECT_DOUBLE_EQ(computed->rows[0][1].AsDouble(), 3.0);
}

TEST(DatabaseTest, AggregationQueries) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (g INT, v INT)").ok());
  std::vector<Tuple> rows;
  for (int i = 0; i < 12; ++i) {
    rows.push_back({Value::Int64(i % 3), Value::Int64(i)});
  }
  ASSERT_TRUE(db.LoadRows("t", std::move(rows)).ok());

  auto grouped = db.Run(
      "SELECT g, COUNT(*) AS c, SUM(v) AS s, MIN(v), MAX(v), AVG(v) "
      "FROM t GROUP BY g ORDER BY g");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  ASSERT_EQ(grouped->rows.size(), 3u);
  // Group 0: v in {0,3,6,9}.
  EXPECT_EQ(grouped->rows[0][1], Value::Int64(4));
  EXPECT_EQ(grouped->rows[0][2], Value::Int64(18));
  EXPECT_EQ(grouped->rows[0][3], Value::Int64(0));
  EXPECT_EQ(grouped->rows[0][4], Value::Int64(9));
  EXPECT_DOUBLE_EQ(grouped->rows[0][5].AsDouble(), 4.5);

  auto having = db.Run(
      "SELECT g FROM t GROUP BY g HAVING SUM(v) > 20");
  ASSERT_TRUE(having.ok()) << having.status().ToString();
  EXPECT_EQ(having->rows.size(), 2u);  // groups 1 (22) and 2 (26)

  auto scalar = db.Run("SELECT COUNT(*), AVG(v) FROM t");
  ASSERT_TRUE(scalar.ok());
  ASSERT_EQ(scalar->rows.size(), 1u);
  EXPECT_EQ(scalar->rows[0][0], Value::Int64(12));
}

TEST(DatabaseTest, DistinctOrderLimit) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  std::vector<Tuple> rows;
  for (int i = 0; i < 20; ++i) rows.push_back({Value::Int64(i % 5)});
  ASSERT_TRUE(db.LoadRows("t", std::move(rows)).ok());

  auto result = db.Run("SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT 3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0][0], Value::Int64(4));
  EXPECT_EQ(result->rows[2][0], Value::Int64(2));
}

TEST(DatabaseTest, ViewsComposable) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (g INT, v INT)").ok());
  std::vector<Tuple> rows;
  for (int i = 0; i < 30; ++i) {
    rows.push_back({Value::Int64(i % 5), Value::Int64(i)});
  }
  ASSERT_TRUE(db.LoadRows("t", std::move(rows)).ok());
  ASSERT_TRUE(db.Execute("CREATE VIEW sums AS SELECT g, SUM(v) AS s FROM t "
                         "GROUP BY g")
                  .ok());
  auto result =
      db.Run("SELECT t.v, S.s FROM t, sums S WHERE t.g = S.g AND t.v < 3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 3u);
}

TEST(DatabaseTest, ErrorPaths) {
  Database db;
  EXPECT_FALSE(db.Run("SELECT * FROM missing").ok());
  EXPECT_FALSE(db.Execute("SELECT 1 FROM x").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  EXPECT_FALSE(db.Execute("CREATE TABLE t (a INT)").ok());  // duplicate
  EXPECT_FALSE(db.Run("SELECT b FROM t").ok());           // unknown column
  EXPECT_FALSE(db.Run("SELECT a FROM t WHERE AVG(a) > 1").ok());
  EXPECT_FALSE(db.Run("SELECT a, SUM(a) FROM t").ok());  // a not grouped
  EXPECT_FALSE(db.LoadRows("missing", {}).ok());
}

TEST(DatabaseTest, AmbiguousColumnRejected) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE r (k INT)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE s (k INT)").ok());
  EXPECT_FALSE(db.Run("SELECT k FROM r, s").ok());
  EXPECT_TRUE(db.Run("SELECT r.k FROM r, s").ok());
}

TEST(DatabaseTest, DuplicateAliasRejected) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE r (k INT)").ok());
  EXPECT_FALSE(db.Run("SELECT x.k FROM r x, r x").ok());
}

TEST(DatabaseTest, QueryResultToString) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db.LoadRows("t", {{Value::Int64(1)}, {Value::Int64(2)}}).ok());
  auto result = db.Run("SELECT a FROM t");
  ASSERT_TRUE(result.ok());
  std::string text = result->ToString();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("(2 rows)"), std::string::npos);
}

TEST(DatabaseTest, SelfJoinWithAliases) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT, v INT)").ok());
  std::vector<Tuple> rows;
  for (int i = 0; i < 6; ++i) {
    rows.push_back({Value::Int64(i % 3), Value::Int64(i)});
  }
  ASSERT_TRUE(db.LoadRows("t", std::move(rows)).ok());
  auto result =
      db.Run("SELECT a.v, b.v FROM t a, t b WHERE a.k = b.k AND a.v < b.v");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 3u);  // pairs (0,3),(1,4),(2,5)
}

}  // namespace
}  // namespace magicdb
