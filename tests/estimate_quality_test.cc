// Estimate-quality checks: the optimizer's cardinality and cost estimates
// must stay within sane factors of reality across workload shapes. The
// paper's argument only needs *ordering* fidelity, but estimates that
// drift orders of magnitude would undermine it; these tests pin the drift.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/db/database.h"

namespace magicdb {
namespace {

struct EstimateParams {
  int num_depts;
  int emps_per_dept;
  double young_frac;
  double big_frac;
};

class EstimateQualityTest : public ::testing::TestWithParam<EstimateParams> {
};

TEST_P(EstimateQualityTest, RowAndCostEstimatesWithinBounds) {
  const EstimateParams& p = GetParam();
  Database db;
  MAGICDB_CHECK_OK(
      db.Execute("CREATE TABLE Emp (did INT, sal DOUBLE, age INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
  Random rng(60 + p.num_depts);
  std::vector<Tuple> emps, depts;
  for (int d = 0; d < p.num_depts; ++d) {
    depts.push_back(
        {Value::Int64(d),
         Value::Double(rng.Bernoulli(p.big_frac) ? 200000.0 : 50000.0)});
    for (int e = 0; e < p.emps_per_dept; ++e) {
      emps.push_back(
          {Value::Int64(d), Value::Double(50000 + rng.NextDouble() * 100000),
           Value::Int64(rng.Bernoulli(p.young_frac) ? 25 : 45)});
    }
  }
  MAGICDB_CHECK_OK(db.LoadRows("Dept", std::move(depts)));
  MAGICDB_CHECK_OK(db.LoadRows("Emp", std::move(emps)));
  (*db.catalog()->Lookup("Emp"))->table->CreateHashIndex({0});
  MAGICDB_CHECK_OK(db.catalog()->AnalyzeAll());
  MAGICDB_CHECK_OK(db.Execute(
      "CREATE VIEW DepAvgSal AS SELECT did, AVG(sal) AS avgsal FROM Emp "
      "GROUP BY did"));

  auto result = db.Run(
      "SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V "
      "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal "
      "AND E.age < 30 AND D.budget > 100000");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Cost: predicted within 5x of measured in either direction (same
  // units; most runs are within ~20%, the bound is a regression tripwire).
  const double measured = result->counters.TotalCost();
  EXPECT_LT(result->est_cost, measured * 5 + 50) << "overestimate";
  EXPECT_GT(result->est_cost * 5 + 50, measured) << "underestimate";

  // Rows: System-R-style estimation drifts through a three-way join with
  // a non-equi residual (the 1/3 range heuristic); the tripwire is set an
  // order of magnitude wide to catch regressions, not to certify accuracy.
  const double actual_rows = static_cast<double>(result->rows.size());
  EXPECT_LT(result->est_rows, actual_rows * 30 + 30);
  EXPECT_GT(result->est_rows * 30 + 30, actual_rows);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EstimateQualityTest,
    ::testing::Values(EstimateParams{100, 5, 0.05, 0.05},
                      EstimateParams{100, 5, 0.5, 0.5},
                      EstimateParams{400, 3, 0.02, 0.5},
                      EstimateParams{50, 20, 0.9, 0.9},
                      EstimateParams{200, 10, 0.3, 0.1}));

TEST(EstimateQualityTest, FilterSetSizePredictionTracksActual) {
  // The Yao-based |F| prediction must track the true distinct count of the
  // production set's keys across selectivities.
  for (double frac : {0.05, 0.2, 0.6}) {
    Database db;
    MAGICDB_CHECK_OK(
        db.Execute("CREATE TABLE Emp (did INT, sal DOUBLE, age INT)"));
    MAGICDB_CHECK_OK(
        db.Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
    Random rng(70);
    std::vector<Tuple> emps, depts;
    int actual_qualifying = 0;
    for (int d = 0; d < 300; ++d) {
      const bool big = rng.Bernoulli(frac);
      if (big) ++actual_qualifying;
      depts.push_back(
          {Value::Int64(d), Value::Double(big ? 200000.0 : 50000.0)});
      for (int e = 0; e < 4; ++e) {
        emps.push_back({Value::Int64(d),
                        Value::Double(50000 + rng.NextDouble() * 100000),
                        Value::Int64(25)});
      }
    }
    MAGICDB_CHECK_OK(db.LoadRows("Dept", std::move(depts)));
    MAGICDB_CHECK_OK(db.LoadRows("Emp", std::move(emps)));
    (*db.catalog()->Lookup("Emp"))->table->CreateHashIndex({0});
    MAGICDB_CHECK_OK(db.catalog()->AnalyzeAll());
    MAGICDB_CHECK_OK(db.Execute(
        "CREATE VIEW V AS SELECT did, AVG(sal) AS a FROM Emp GROUP BY did"));

    db.mutable_optimizer_options()->magic_mode =
        OptimizerOptions::MagicMode::kAlwaysOnVirtual;
    auto result = db.Run(
        "SELECT D.did, V.a FROM Dept D, V "
        "WHERE D.did = V.did AND D.budget > 100000");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result->filter_joins.empty()) continue;  // heuristic kept plain plan
    const double predicted = result->filter_joins[0].filter_set_size;
    // |F| should be the number of qualifying departments, within 2x + 5.
    EXPECT_LT(predicted, 2.0 * actual_qualifying + 5) << "frac=" << frac;
    EXPECT_GT(2.0 * predicted + 5, actual_qualifying) << "frac=" << frac;
  }
}

TEST(EstimateQualityTest, MeasuredFilterJoinPhasesTrackPredictions) {
  Database db;
  MAGICDB_CHECK_OK(
      db.Execute("CREATE TABLE Emp (did INT, sal DOUBLE, age INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
  Random rng(80);
  std::vector<Tuple> emps, depts;
  for (int d = 0; d < 500; ++d) {
    depts.push_back(
        {Value::Int64(d),
         Value::Double(rng.Bernoulli(0.03) ? 200000.0 : 50000.0)});
    for (int e = 0; e < 5; ++e) {
      emps.push_back({Value::Int64(d),
                      Value::Double(50000 + rng.NextDouble() * 100000),
                      Value::Int64(rng.Bernoulli(0.03) ? 25 : 45)});
    }
  }
  MAGICDB_CHECK_OK(db.LoadRows("Dept", std::move(depts)));
  MAGICDB_CHECK_OK(db.LoadRows("Emp", std::move(emps)));
  (*db.catalog()->Lookup("Emp"))->table->CreateHashIndex({0});
  MAGICDB_CHECK_OK(db.catalog()->AnalyzeAll());
  MAGICDB_CHECK_OK(db.Execute(
      "CREATE VIEW DepAvgSal AS SELECT did, AVG(sal) AS avgsal FROM Emp "
      "GROUP BY did"));

  auto result = db.Run(
      "SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V "
      "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal "
      "AND E.age < 30 AND D.budget > 100000");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  if (result->filter_joins.empty()) {
    GTEST_SKIP() << "optimizer chose a non-FilterJoin plan";
  }
  ASSERT_FALSE(result->filter_join_measured.empty());
  const FilterJoinCostBreakdown& bd = result->filter_joins[0];
  const FilterJoinMeasured& ms = result->filter_join_measured[0];
  // The operator's measured phases must track the Table-1 predictions:
  // totals within 2x, and the dominant component (FilterCost_Rk) within 2x.
  const double predicted_total = bd.join_cost_p + bd.StepTotal();
  EXPECT_GT(ms.Total(), predicted_total / 2);
  EXPECT_LT(ms.Total(), predicted_total * 2);
  const double predicted_filter = bd.filter_cost_rk + bd.avail_cost_rk;
  EXPECT_GT(ms.filter_inner, predicted_filter / 2);
  EXPECT_LT(ms.filter_inner, predicted_filter * 2);
  // Every measured phase is non-negative and the sum is consistent.
  EXPECT_GE(ms.production, 0);
  EXPECT_GE(ms.projection, 0);
  EXPECT_GE(ms.avail_filter, 0);
  EXPECT_GE(ms.final_join, 0);
}

// ---------------------------------------------------------------------------
// Adaptive re-optimization: runtime cardinality feedback.
// ---------------------------------------------------------------------------

// Workload whose estimates are wrong by construction: Fact.a == Fact.b on
// every row, so under the independence assumption the conjunction
// "a < 1 AND b < 1" is estimated at ~1% of Fact while ~10% actually
// qualifies — a ~10x underestimate on the filtered scan. Dim is kept
// smaller than the (under)estimated filtered Fact so the hash-join cost
// model (which minimizes probe rows) puts the misestimated stream on the
// build side, where the breaker observes it.
void MakeCorrelatedWorkload(Database* db, int fact_rows = 4000,
                            int dim_rows = 30) {
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Fact (k INT, a INT, b INT)"));
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Dim (k INT, tag INT)"));
  std::vector<Tuple> facts, dims;
  for (int i = 0; i < fact_rows; ++i) {
    const int64_t v = i % 10;
    facts.push_back({Value::Int64(i % dim_rows), Value::Int64(v),
                     Value::Int64(v)});
  }
  for (int k = 0; k < dim_rows; ++k) {
    dims.push_back({Value::Int64(k), Value::Int64(k * 7)});
  }
  MAGICDB_CHECK_OK(db->LoadRows("Fact", std::move(facts)));
  MAGICDB_CHECK_OK(db->LoadRows("Dim", std::move(dims)));
  MAGICDB_CHECK_OK(db->catalog()->AnalyzeAll());
}

const char* kCorrelatedQuery =
    "SELECT F.k, D.tag FROM Dim D, Fact F "
    "WHERE F.k = D.k AND F.a < 1 AND F.b < 1";

std::vector<Tuple> Sorted(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end(), [](const Tuple& x, const Tuple& y) {
    return CompareTuples(x, y) < 0;
  });
  return rows;
}

void ExpectRowsIdentical(const std::vector<Tuple>& a,
                         const std::vector<Tuple>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(CompareTuples(a[i], b[i]), 0) << "row " << i << " differs";
  }
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
}

TEST(ReoptimizationTest, CorrelatedPredicateTriggersAndShrinksQError) {
  Database db;
  MakeCorrelatedWorkload(&db);

  // Baseline pins re-optimization explicitly off, immune to the
  // MAGICDB_TEST_REOPT_QERROR sweep.
  ExecOptions off;
  off.reoptimize_qerror_threshold = 0.0;
  auto baseline = db.Run(kCorrelatedQuery, off);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_FALSE(baseline->rows.empty());
  EXPECT_EQ(baseline->reoptimizations, 0);

  ExecOptions adaptive;
  adaptive.reoptimize_qerror_threshold = 2.0;
  adaptive.persist_feedback = true;

  // First adaptive run: the breaker above the misestimated scan observes
  // the ~10x error, aborts, and re-plans against the observed count.
  auto r1 = db.Run(kCorrelatedQuery, adaptive);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_GE(r1->reoptimizations, 1);
  ExpectRowsIdentical(Sorted(r1->rows), Sorted(baseline->rows));
  bool saw_bad_estimate = false;
  for (const CardinalityObservation& obs : r1->feedback) {
    if (IsOverlayKey(obs.key) && obs.QError() >= 2.0) saw_bad_estimate = true;
  }
  EXPECT_TRUE(saw_bad_estimate) << "no overlay-eligible q-error >= 2 recorded";

  // Second run plans from the persisted feedback: the corrected estimate
  // means no q-error crosses the threshold and no re-plan happens.
  EXPECT_GT(db.feedback_store()->size(), 0u);
  auto r2 = db.Run(kCorrelatedQuery, adaptive);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->reoptimizations, 0);
  ExpectRowsIdentical(Sorted(r2->rows), Sorted(baseline->rows));
  for (const CardinalityObservation& obs : r2->feedback) {
    if (!IsOverlayKey(obs.key) || !obs.exact) continue;
    EXPECT_LT(obs.QError(), 2.0) << obs.key << ": est " << obs.estimated
                                 << " actual " << obs.actual;
  }
}

TEST(ReoptimizationTest, ResultsByteIdenticalAcrossDopWithAndWithoutReopt) {
  for (double threshold : {0.0, 1.5}) {
    Database db;
    MakeCorrelatedWorkload(&db);
    ExecOptions base;
    base.reoptimize_qerror_threshold = threshold;

    ExecOptions seq = base;
    seq.dop = 1;
    auto r1 = db.Run(kCorrelatedQuery, seq);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_FALSE(r1->rows.empty());
    if (threshold > 0) EXPECT_GE(r1->reoptimizations, 1);

    ExecOptions par = base;
    par.dop = 4;
    auto r4 = db.Run(kCorrelatedQuery, par);
    ASSERT_TRUE(r4.ok()) << r4.status().ToString();

    // The engine's DoP-invariance contract holds through restarts: same
    // rows in the same order, and the same merged cost counters.
    ExpectRowsIdentical(r4->rows, r1->rows);
    ExpectCountersEqual(r4->counters, r1->counters);
    EXPECT_EQ(r4->reoptimizations, r1->reoptimizations) << threshold;
  }
}

TEST(ReoptimizationTest, MaxReoptimizationsZeroDisablesRestarts) {
  Database db;
  MakeCorrelatedWorkload(&db);
  ExecOptions opts;
  opts.reoptimize_qerror_threshold = 1.1;
  opts.max_reoptimizations = 0;
  auto r = db.Run(kCorrelatedQuery, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->reoptimizations, 0);
  // Observations are still collected for diagnostics / persistence.
  EXPECT_FALSE(r->feedback.empty());
}

}  // namespace
}  // namespace magicdb
