// Golden end-to-end SQL tests: a fixed micro-warehouse and a battery of
// queries with hand-computed results, each executed under three optimizer
// configurations (cost-based, magic-off, methods-restricted) that must all
// agree with the golden answer.

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/db/database.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

using testutil::SameMultiset;

/// The warehouse:
///   Emp(did, sal, age):   12 employees over 4 departments, fixed values.
///   Dept(did, budget):    4 departments; 1 and 3 are "big".
///   view DepAvgSal:       AVG(sal) by did.
class GoldenFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    MAGICDB_CHECK_OK(
        db_.Execute("CREATE TABLE Emp (did INT, sal DOUBLE, age INT)"));
    MAGICDB_CHECK_OK(
        db_.Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
    // did, sal, age — three employees per department, deterministic.
    const double sal[4][3] = {{100, 200, 300},
                              {150, 150, 300},
                              {90, 110, 100},
                              {500, 100, 300}};
    const int64_t age[4][3] = {{25, 45, 45},
                               {25, 25, 45},
                               {45, 45, 45},
                               {25, 45, 25}};
    std::vector<Tuple> emps;
    for (int d = 0; d < 4; ++d) {
      for (int e = 0; e < 3; ++e) {
        emps.push_back({Value::Int64(d), Value::Double(sal[d][e]),
                        Value::Int64(age[d][e])});
      }
    }
    MAGICDB_CHECK_OK(db_.LoadRows("Emp", std::move(emps)));
    MAGICDB_CHECK_OK(db_.LoadRows(
        "Dept", {{Value::Int64(0), Value::Double(50000)},
                 {Value::Int64(1), Value::Double(150000)},
                 {Value::Int64(2), Value::Double(80000)},
                 {Value::Int64(3), Value::Double(200000)}}));
    (*db_.catalog()->Lookup("Emp"))->table->CreateHashIndex({0});
    MAGICDB_CHECK_OK(db_.catalog()->AnalyzeAll());
    MAGICDB_CHECK_OK(db_.Execute(
        "CREATE VIEW DepAvgSal AS SELECT did, AVG(sal) AS avgsal FROM Emp "
        "GROUP BY did"));
  }

  /// Runs `sql` under several optimizer configurations and checks all
  /// agree with `expected`.
  void ExpectRows(const std::string& sql, std::vector<Tuple> expected) {
    struct Config {
      const char* name;
      void (*apply)(OptimizerOptions*);
    };
    const Config configs[] = {
        {"cost-based", [](OptimizerOptions*) {}},
        {"magic-off",
         [](OptimizerOptions* o) {
           o->magic_mode = OptimizerOptions::MagicMode::kNever;
         }},
        {"nl-only",
         [](OptimizerOptions* o) {
           o->enable_hash_join = false;
           o->enable_sort_merge = false;
           o->enable_index_nested_loops = false;
           o->magic_mode = OptimizerOptions::MagicMode::kNever;
           o->filter_join_on_stored = false;
         }},
    };
    for (const Config& config : configs) {
      OptimizerOptions opts;
      config.apply(&opts);
      *db_.mutable_optimizer_options() = opts;
      auto result = db_.Run(sql);
      ASSERT_TRUE(result.ok())
          << config.name << ": " << result.status().ToString();
      EXPECT_TRUE(SameMultiset(result->rows, expected))
          << config.name << "\nquery: " << sql << "\ngot "
          << result->rows.size() << " rows, want " << expected.size();
    }
  }

  Database db_;
};

TEST_F(GoldenFixture, SimpleProjection) {
  ExpectRows("SELECT did FROM Dept WHERE budget > 100000",
             {{Value::Int64(1)}, {Value::Int64(3)}});
}

TEST_F(GoldenFixture, ViewScanDirect) {
  // Averages: d0 = 200, d1 = 200, d2 = 100, d3 = 300.
  ExpectRows("SELECT did, avgsal FROM DepAvgSal",
             {{Value::Int64(0), Value::Double(200)},
              {Value::Int64(1), Value::Double(200)},
              {Value::Int64(2), Value::Double(100)},
              {Value::Int64(3), Value::Double(300)}});
}

TEST_F(GoldenFixture, Figure1Golden) {
  // Young (age<30) emps in big depts (1, 3) above their dept average:
  //   d1: young sal 150, 150 vs avg 200 -> none.
  //   d3: young sal 500 (>300 yes), 300 (=300 no) -> one row.
  ExpectRows(
      "SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V "
      "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal "
      "AND E.age < 30 AND D.budget > 100000",
      {{Value::Int64(3), Value::Double(500), Value::Double(300)}});
}

TEST_F(GoldenFixture, AboveAverageAnyDept) {
  // All emps above their dept average (any dept, any age):
  //   d0: 300 > 200. d1: 300 > 200. d2: 110 > 100. d3: 500 > 300.
  ExpectRows(
      "SELECT E.sal FROM Emp E, DepAvgSal V "
      "WHERE E.did = V.did AND E.sal > V.avgsal",
      {{Value::Double(300)},
       {Value::Double(300)},
       {Value::Double(110)},
       {Value::Double(500)}});
}

TEST_F(GoldenFixture, GroupCountsWithHaving) {
  // Young (age<30) per dept: d0:1, d1:2, d2:0, d3:2.
  ExpectRows(
      "SELECT did, COUNT(*) AS n FROM Emp WHERE age < 30 GROUP BY did "
      "HAVING COUNT(*) > 1",
      {{Value::Int64(1), Value::Int64(2)},
       {Value::Int64(3), Value::Int64(2)}});
}

TEST_F(GoldenFixture, MinMaxPerDept) {
  ExpectRows("SELECT did, MIN(sal), MAX(sal) FROM Emp GROUP BY did",
             {{Value::Int64(0), Value::Double(100), Value::Double(300)},
              {Value::Int64(1), Value::Double(150), Value::Double(300)},
              {Value::Int64(2), Value::Double(90), Value::Double(110)},
              {Value::Int64(3), Value::Double(100), Value::Double(500)}});
}

TEST_F(GoldenFixture, DistinctAges) {
  ExpectRows("SELECT DISTINCT age FROM Emp",
             {{Value::Int64(25)}, {Value::Int64(45)}});
}

TEST_F(GoldenFixture, SelfJoinPairsInDept) {
  // Pairs of distinct employees in dept 2 with a.sal < b.sal:
  // (90,100),(90,110),(100,110).
  ExpectRows(
      "SELECT a.sal, b.sal FROM Emp a, Emp b "
      "WHERE a.did = b.did AND a.did = 2 AND a.sal < b.sal",
      {{Value::Double(90), Value::Double(100)},
       {Value::Double(90), Value::Double(110)},
       {Value::Double(100), Value::Double(110)}});
}

TEST_F(GoldenFixture, InListAndBetween) {
  ExpectRows(
      "SELECT sal FROM Emp WHERE did IN (0, 2) AND sal BETWEEN 100 AND 200",
      {{Value::Double(100)}, {Value::Double(200)}, {Value::Double(110)},
       {Value::Double(100)}});
}

TEST_F(GoldenFixture, ScalarAggregatesOverJoin) {
  // Total salary of employees in big departments: d1 600 + d3 900 = 1500.
  ExpectRows(
      "SELECT SUM(E.sal) FROM Emp E, Dept D "
      "WHERE E.did = D.did AND D.budget > 100000",
      {{Value::Double(1500)}});
}

TEST_F(GoldenFixture, OrderByLimitDeterministic) {
  OptimizerOptions opts;
  *db_.mutable_optimizer_options() = opts;
  auto result = db_.Run("SELECT sal FROM Emp ORDER BY sal DESC LIMIT 3");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0][0], Value::Double(500));
  EXPECT_EQ(result->rows[1][0], Value::Double(300));
  EXPECT_EQ(result->rows[2][0], Value::Double(300));
}

TEST_F(GoldenFixture, ArithmeticInSelectAndWhere) {
  // sal = 100 appears in departments 0, 2 and 3.
  ExpectRows(
      "SELECT sal * 2 FROM Emp WHERE sal + 10 = 110",
      {{Value::Double(200)}, {Value::Double(200)}, {Value::Double(200)}});
}

TEST_F(GoldenFixture, CrossProductCount) {
  ExpectRows("SELECT COUNT(*) FROM Emp E, Dept D",
             {{Value::Int64(48)}});
}

TEST_F(GoldenFixture, EmptyResultStaysEmpty) {
  ExpectRows("SELECT did FROM Dept WHERE budget > 999999", {});
  ExpectRows(
      "SELECT E.did FROM Emp E, DepAvgSal V "
      "WHERE E.did = V.did AND V.avgsal > 1000",
      {});
}

}  // namespace
}  // namespace magicdb
