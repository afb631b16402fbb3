// Tests for equi-join transitive closure and order-propagation through the
// plan (the completion of System R's "interesting orders").

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "src/optimizer/optimizer.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

using testutil::SameMultiset;

class TransitivityFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // A.k = B.k and A.k = C.k, but no direct B-C predicate.
    for (const char* t : {"A", "B", "C"}) {
      MAGICDB_CHECK_OK(db_.Execute(std::string("CREATE TABLE ") + t +
                                   " (k INT, p INT)"));
    }
    Random rng(55);
    for (const char* t : {"A", "B", "C"}) {
      std::vector<Tuple> rows;
      for (int i = 0; i < 200; ++i) {
        rows.push_back({Value::Int64(static_cast<int64_t>(rng.Uniform(20))),
                        Value::Int64(i)});
      }
      MAGICDB_CHECK_OK(db_.LoadRows(t, std::move(rows)));
    }
    MAGICDB_CHECK_OK(db_.catalog()->AnalyzeAll());
  }

  static constexpr const char* kQuery =
      "SELECT A.p, B.p, C.p FROM A, B, C WHERE A.k = B.k AND A.k = C.k";

  Database db_;
};

TEST_F(TransitivityFixture, ImpliedEdgeAvoidsCrossProducts) {
  // Every one of the six join orders should be joinable with equi methods;
  // with the implied B.k = C.k edge, B-C-first orders are hash joins, not
  // cross products, so the spread between orders stays small.
  auto logical = db_.Bind(kQuery);
  ASSERT_TRUE(logical.ok());
  Optimizer opt(db_.catalog());
  auto orders = opt.EnumerateJoinOrders(*logical);
  ASSERT_TRUE(orders.ok()) << orders.status().ToString();
  ASSERT_EQ(orders->size(), 6u);
  double best = -1, worst = -1;
  for (const JoinOrderCost& joc : *orders) {
    EXPECT_EQ(joc.methods_without.find("NL"), std::string::npos)
        << joc.methods_without;
    if (best < 0 || joc.cost_without_filter_join < best) {
      best = joc.cost_without_filter_join;
    }
    worst = std::max(worst, joc.cost_without_filter_join);
  }
  EXPECT_LT(worst, best * 20);  // no cross-product blowups
}

TEST_F(TransitivityFixture, ResultsUnchangedByTransitivity) {
  auto result = db_.Run(kQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Reference via nested loops over everything (methods disabled one way).
  OptimizerOptions opts;
  opts.enable_hash_join = false;
  opts.enable_sort_merge = false;
  opts.enable_index_nested_loops = false;
  opts.magic_mode = OptimizerOptions::MagicMode::kNever;
  opts.filter_join_on_stored = false;
  *db_.mutable_optimizer_options() = opts;
  auto reference = db_.Run(kQuery);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(SameMultiset(result->rows, reference->rows));
}

TEST_F(TransitivityFixture, NoDuplicateRowsFromImpliedEdges) {
  // Implied conjuncts must not be applied as extra filters that change
  // multiplicities. Compare against hand-computed counts.
  auto result = db_.Run(
      "SELECT A.k FROM A, B, C WHERE A.k = B.k AND A.k = C.k AND A.p = 0");
  ASSERT_TRUE(result.ok());
  // Row A.p=0 has some key k0; result multiplicity = |B.k=k0| * |C.k=k0|.
  const Table* a = (*db_.catalog()->Lookup("A"))->table;
  const Table* b = (*db_.catalog()->Lookup("B"))->table;
  const Table* c = (*db_.catalog()->Lookup("C"))->table;
  const int64_t k0 = a->row(0)[0].AsInt64();
  int64_t nb = 0, nc = 0;
  for (int64_t i = 0; i < b->NumRows(); ++i) {
    if (b->row(i)[0].AsInt64() == k0) ++nb;
  }
  for (int64_t i = 0; i < c->NumRows(); ++i) {
    if (c->row(i)[0].AsInt64() == k0) ++nc;
  }
  EXPECT_EQ(static_cast<int64_t>(result->rows.size()), nb * nc);
}

TEST(OrderPropagationTest, OrderByElidedWhenPlanDeliversOrder) {
  Database db;
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE A (k INT, p INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE B (k INT, q INT)"));
  Random rng(56);
  std::vector<Tuple> a, b;
  for (int i = 0; i < 400; ++i) {
    a.push_back({Value::Int64(static_cast<int64_t>(rng.Uniform(40))),
                 Value::Int64(i)});
    b.push_back({Value::Int64(static_cast<int64_t>(rng.Uniform(40))),
                 Value::Int64(i)});
  }
  MAGICDB_CHECK_OK(db.LoadRows("A", std::move(a)));
  MAGICDB_CHECK_OK(db.LoadRows("B", std::move(b)));
  (*db.catalog()->Lookup("A"))->table->CreateOrderedIndex({0});
  (*db.catalog()->Lookup("B"))->table->CreateOrderedIndex({0});
  MAGICDB_CHECK_OK(db.catalog()->AnalyzeAll());

  // Force sort-merge so the join output is ordered by A.k; ORDER BY A.k
  // should then cost nothing extra (no Sort operator in the plan).
  OptimizerOptions opts;
  opts.enable_hash_join = false;
  opts.enable_index_nested_loops = false;
  opts.enable_nested_loops = false;
  opts.magic_mode = OptimizerOptions::MagicMode::kNever;
  opts.filter_join_on_stored = false;
  *db.mutable_optimizer_options() = opts;
  auto sorted = db.Run(
      "SELECT A.k, B.q FROM A, B WHERE A.k = B.k ORDER BY k");
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  EXPECT_EQ(sorted->explain.find("Sort("), std::string::npos)
      << sorted->explain;
  // And the output really is sorted.
  for (size_t i = 1; i < sorted->rows.size(); ++i) {
    EXPECT_LE(sorted->rows[i - 1][0].AsInt64(), sorted->rows[i][0].AsInt64());
  }
}

TEST(OrderPropagationTest, DescendingOrderStillSorts) {
  Database db;
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE A (k INT)"));
  std::vector<Tuple> rows;
  for (int i = 0; i < 50; ++i) rows.push_back({Value::Int64(i % 7)});
  MAGICDB_CHECK_OK(db.LoadRows("A", std::move(rows)));
  (*db.catalog()->Lookup("A"))->table->CreateOrderedIndex({0});
  auto result = db.Run("SELECT k FROM A ORDER BY k DESC");
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->rows.size(); ++i) {
    EXPECT_GE(result->rows[i - 1][0].AsInt64(), result->rows[i][0].AsInt64());
  }
}

}  // namespace
}  // namespace magicdb
