// Property-based tests: parameterized sweeps over workload shapes checking
// the engine's core invariants — plan-independence of results, magic-
// rewrite equivalence, Bloom superset semantics, and cost-model ordering.

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "src/optimizer/optimizer.h"
#include "src/rewrite/magic_rewrite.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

using testutil::SameMultiset;

// ----- Figure-1 equivalence across optimizer modes -----

struct Fig1Params {
  int num_depts;
  int emps_per_dept;
  double young_frac;
  double big_frac;
  double null_frac;  // fraction of NULL Emp.did values
};

class MagicEquivalenceTest : public ::testing::TestWithParam<Fig1Params> {
 protected:
  void SetUp() override {
    const Fig1Params& p = GetParam();
    MAGICDB_CHECK_OK(
        db_.Execute("CREATE TABLE Emp (did INT, sal DOUBLE, age INT)"));
    MAGICDB_CHECK_OK(
        db_.Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
    Random rng(1000 + p.num_depts);
    std::vector<Tuple> emps, depts;
    for (int d = 0; d < p.num_depts; ++d) {
      depts.push_back(
          {Value::Int64(d),
           Value::Double(rng.Bernoulli(p.big_frac) ? 200000.0 : 50000.0)});
      for (int e = 0; e < p.emps_per_dept; ++e) {
        Value did = rng.Bernoulli(p.null_frac) ? Value::Null()
                                               : Value::Int64(d);
        emps.push_back(
            {did, Value::Double(50000.0 + rng.NextDouble() * 100000.0),
             Value::Int64(rng.Bernoulli(p.young_frac) ? 25 : 45)});
      }
    }
    MAGICDB_CHECK_OK(db_.LoadRows("Dept", std::move(depts)));
    MAGICDB_CHECK_OK(db_.LoadRows("Emp", std::move(emps)));
    (*db_.catalog()->Lookup("Emp"))->table->CreateHashIndex({0});
    (*db_.catalog()->Lookup("Dept"))->table->CreateHashIndex({0});
    MAGICDB_CHECK_OK(db_.catalog()->AnalyzeAll());
    MAGICDB_CHECK_OK(
        db_.Execute("CREATE VIEW DepAvgSal AS SELECT did, AVG(sal) AS "
                    "avgsal FROM Emp GROUP BY did"));
  }

  static constexpr const char* kQuery =
      "SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V "
      "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal "
      "AND E.age < 30 AND D.budget > 100000";

  Database db_;
};

TEST_P(MagicEquivalenceTest, AllOptimizerModesAgree) {
  db_.mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kNever;
  auto never = db_.Run(kQuery);
  ASSERT_TRUE(never.ok()) << never.status().ToString();

  db_.mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kCostBased;
  auto cost = db_.Run(kQuery);
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();

  db_.mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kAlwaysOnVirtual;
  auto always = db_.Run(kQuery);
  ASSERT_TRUE(always.ok()) << always.status().ToString();

  EXPECT_TRUE(SameMultiset(never->rows, cost->rows));
  EXPECT_TRUE(SameMultiset(never->rows, always->rows));
}

TEST_P(MagicEquivalenceTest, ExactAndBloomFilterSetsAgree) {
  db_.mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kAlwaysOnVirtual;
  db_.mutable_optimizer_options()->consider_bloom_filter_sets = false;
  auto exact = db_.Run(kQuery);
  ASSERT_TRUE(exact.ok());

  db_.mutable_optimizer_options()->consider_bloom_filter_sets = true;
  db_.mutable_optimizer_options()->consider_exact_filter_sets = false;
  auto bloom = db_.Run(kQuery);
  ASSERT_TRUE(bloom.ok());
  EXPECT_TRUE(SameMultiset(exact->rows, bloom->rows));
}

TEST_P(MagicEquivalenceTest, CostBasedNeverBeatenByBaselines) {
  db_.mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kCostBased;
  auto cost = db_.Run(kQuery);
  ASSERT_TRUE(cost.ok());
  db_.mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kNever;
  auto never = db_.Run(kQuery);
  ASSERT_TRUE(never.ok());
  EXPECT_LE(cost->est_cost, never->est_cost * 1.0001);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadShapes, MagicEquivalenceTest,
    ::testing::Values(Fig1Params{10, 3, 0.5, 0.5, 0.0},
                      Fig1Params{50, 5, 0.05, 0.05, 0.0},
                      Fig1Params{100, 2, 1.0, 1.0, 0.0},
                      Fig1Params{40, 8, 0.3, 0.9, 0.1},
                      Fig1Params{1, 1, 1.0, 1.0, 0.0},
                      Fig1Params{60, 4, 0.0, 0.5, 0.0},
                      Fig1Params{25, 6, 0.2, 0.2, 0.5}));

// ----- Magic rewrite equivalence against a semantic reference -----

struct RewriteParams {
  int num_keys;     // key domain of the view's group-by column
  int rows;         // base-table rows
  double fs_frac;   // fraction of keys placed in the filter set
  RewriteStyle style;
};

class RewriteEquivalenceTest
    : public ::testing::TestWithParam<RewriteParams> {};

TEST_P(RewriteEquivalenceTest, RestrictedPlanEqualsFilteredOriginal) {
  const RewriteParams& p = GetParam();
  Catalog catalog;
  Schema base_schema(
      {{"", "k", DataType::kInt64}, {"", "v", DataType::kDouble}});
  Table* base = *catalog.CreateTable("Base", base_schema);
  Random rng(p.rows * 7 + p.num_keys);
  for (int i = 0; i < p.rows; ++i) {
    MAGICDB_CHECK_OK(base->Insert(
        {Value::Int64(static_cast<int64_t>(rng.Uniform(p.num_keys))),
         Value::Double(rng.NextDouble() * 100)}));
  }
  base->CreateHashIndex({0});
  MAGICDB_CHECK_OK(catalog.AnalyzeAll());

  // View: SELECT k, SUM(v) FROM Base GROUP BY k.
  Schema scan_schema = base->schema().WithQualifier("B");
  auto scan = std::make_shared<RelScanNode>("Base", "B", scan_schema);
  std::vector<ExprPtr> groups = {MakeColumnRef(0, DataType::kInt64, "B.k")};
  std::vector<AggSpec> aggs = {
      {AggFunc::kSum, MakeColumnRef(1, DataType::kDouble, "B.v"), "s"}};
  Schema view_schema(
      {{"", "k", DataType::kInt64}, {"", "s", DataType::kDouble}});
  LogicalPtr view =
      std::make_shared<AggregateNode>(scan, groups, aggs, view_schema);

  // Filter set: every key divisible by the stride implied by fs_frac.
  std::vector<Tuple> fs_keys;
  const int stride =
      p.fs_frac > 0 ? std::max(1, static_cast<int>(1.0 / p.fs_frac)) : 0;
  for (int k = 0; stride > 0 && k < p.num_keys; k += stride) {
    fs_keys.push_back({Value::Int64(k)});
  }

  auto rewritten = MagicRewrite(view, {0}, "prop_fs", p.style);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();

  Optimizer optimizer(&catalog);
  auto plan = optimizer.OptimizeWithFilterSets(
      *rewritten,
      {{"prop_fs", static_cast<double>(std::max<size_t>(1, fs_keys.size()))}});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  ExecContext ctx;
  Schema key_schema({{"F", "k", DataType::kInt64}});
  ctx.BindFilterSet("prop_fs",
                    FilterSetBinding::Exact(key_schema, fs_keys));
  auto restricted = ExecuteToVector(plan->root.get(), &ctx);
  ASSERT_TRUE(restricted.ok()) << restricted.status().ToString();

  // Reference: evaluate the full view, then keep rows whose key is in the
  // filter set.
  auto full_plan = optimizer.Optimize(view);
  ASSERT_TRUE(full_plan.ok());
  ExecContext full_ctx;
  auto full = ExecuteToVector(full_plan->root.get(), &full_ctx);
  ASSERT_TRUE(full.ok());
  std::vector<Tuple> expected;
  for (const Tuple& row : *full) {
    for (const Tuple& key : fs_keys) {
      if (row[0].Compare(key[0]) == 0) {
        expected.push_back(row);
        break;
      }
    }
  }
  EXPECT_TRUE(SameMultiset(*restricted, expected))
      << "restricted=" << restricted->size()
      << " expected=" << expected.size();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RewriteEquivalenceTest,
    ::testing::Values(RewriteParams{20, 200, 0.1, RewriteStyle::kProbe},
                      RewriteParams{20, 200, 0.1, RewriteStyle::kJoin},
                      RewriteParams{50, 500, 0.5, RewriteStyle::kProbe},
                      RewriteParams{50, 500, 0.5, RewriteStyle::kJoin},
                      RewriteParams{5, 50, 1.0, RewriteStyle::kJoin},
                      RewriteParams{100, 100, 0.02, RewriteStyle::kJoin},
                      RewriteParams{10, 1000, 0.3, RewriteStyle::kProbe}));

// ----- Cost-model ordering: cheaper-predicted => cheaper-measured -----

struct OrderParams {
  int r_rows, s_rows, r_keys, s_keys;
};

class CostOrderTest : public ::testing::TestWithParam<OrderParams> {};

TEST_P(CostOrderTest, ConfidentPredictionsOrderCorrectly) {
  const OrderParams& p = GetParam();
  Database db;
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE R (k INT, x INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE S (k INT, y INT)"));
  Random rng(p.r_rows + p.s_rows);
  std::vector<Tuple> r_rows, s_rows;
  for (int i = 0; i < p.r_rows; ++i) {
    r_rows.push_back({Value::Int64(static_cast<int64_t>(rng.Uniform(p.r_keys))),
                      Value::Int64(i)});
  }
  for (int i = 0; i < p.s_rows; ++i) {
    s_rows.push_back({Value::Int64(static_cast<int64_t>(rng.Uniform(p.s_keys))),
                      Value::Int64(i)});
  }
  MAGICDB_CHECK_OK(db.LoadRows("R", std::move(r_rows)));
  MAGICDB_CHECK_OK(db.LoadRows("S", std::move(s_rows)));
  (*db.catalog()->Lookup("S"))->table->CreateHashIndex({0});
  MAGICDB_CHECK_OK(db.catalog()->AnalyzeAll());

  const char* query = "SELECT R.x, S.y FROM R, S WHERE R.k = S.k";

  // Evaluate each single-method configuration: predicted and measured.
  struct Outcome {
    double est, measured;
  };
  std::vector<Outcome> outcomes;
  using Cfg = void (*)(OptimizerOptions*);
  const Cfg configs[] = {
      [](OptimizerOptions* o) {
        o->enable_sort_merge = false;
        o->enable_index_nested_loops = false;
        o->enable_nested_loops = false;
      },
      [](OptimizerOptions* o) {
        o->enable_hash_join = false;
        o->enable_index_nested_loops = false;
        o->enable_nested_loops = false;
      },
      [](OptimizerOptions* o) {
        o->enable_hash_join = false;
        o->enable_sort_merge = false;
        o->enable_nested_loops = false;
      },
  };
  for (const Cfg cfg : configs) {
    OptimizerOptions opts;
    opts.magic_mode = OptimizerOptions::MagicMode::kNever;
    opts.filter_join_on_stored = false;
    cfg(&opts);
    *db.mutable_optimizer_options() = opts;
    auto result = db.Run(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    outcomes.push_back({result->est_cost, result->counters.TotalCost()});
  }
  // Whenever the model is confident (2x margin), the measurement agrees.
  for (size_t a = 0; a < outcomes.size(); ++a) {
    for (size_t b = 0; b < outcomes.size(); ++b) {
      if (outcomes[a].est * 2 < outcomes[b].est) {
        EXPECT_LT(outcomes[a].measured, outcomes[b].measured * 1.25)
            << "config " << a << " vs " << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(JoinShapes, CostOrderTest,
                         ::testing::Values(OrderParams{100, 1000, 10, 100},
                                           OrderParams{50, 5000, 5, 1000},
                                           OrderParams{1000, 1000, 100, 100},
                                           OrderParams{10, 10000, 10, 5000},
                                           OrderParams{2000, 100, 500, 20}));

// ----- Filter join on stored tables equals hash join, under spills -----

class SpillParityTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(SpillParityTest, ResultsUnaffectedByMemoryBudget) {
  Database db;
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE R (k INT, x INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE S (k INT, y INT)"));
  Random rng(99);
  std::vector<Tuple> r_rows, s_rows;
  for (int i = 0; i < 2000; ++i) {
    r_rows.push_back(
        {Value::Int64(static_cast<int64_t>(rng.Uniform(200))), Value::Int64(i)});
    s_rows.push_back(
        {Value::Int64(static_cast<int64_t>(rng.Uniform(400))), Value::Int64(i)});
  }
  MAGICDB_CHECK_OK(db.LoadRows("R", std::move(r_rows)));
  MAGICDB_CHECK_OK(db.LoadRows("S", std::move(s_rows)));
  MAGICDB_CHECK_OK(db.catalog()->AnalyzeAll());

  db.mutable_optimizer_options()->memory_budget_bytes = GetParam();
  auto result = db.Run("SELECT R.x, S.y FROM R, S WHERE R.k = S.k");
  ASSERT_TRUE(result.ok());

  db.mutable_optimizer_options()->memory_budget_bytes = 64 * 1024 * 1024;
  auto reference = db.Run("SELECT R.x, S.y FROM R, S WHERE R.k = S.k");
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(SameMultiset(result->rows, reference->rows));
}

INSTANTIATE_TEST_SUITE_P(Budgets, SpillParityTest,
                         ::testing::Values(1024, 16 * 1024, 1 << 20));

}  // namespace
}  // namespace magicdb
