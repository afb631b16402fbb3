// Multi-attribute join keys (§2.1): when a join has several attributes the
// filter set may use all of them or only a subset ("lossy by omission").
// These tests check correctness of multi-key magic and the partial-key
// SIPS option.

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "src/exec/filter_join_op.h"
#include "src/exec/scan_ops.h"
#include "src/rewrite/magic_rewrite.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

using testutil::SameMultiset;

/// Orders(region, product, qty) and a view aggregating by (region,
/// product); the query joins on both attributes.
class MultiKeyFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    MAGICDB_CHECK_OK(db_.Execute(
        "CREATE TABLE Orders (region INT, product INT, qty INT)"));
    MAGICDB_CHECK_OK(db_.Execute(
        "CREATE TABLE Promo (region INT, product INT, discount DOUBLE)"));
    Random rng(31);
    std::vector<Tuple> orders, promos;
    for (int i = 0; i < 2000; ++i) {
      orders.push_back({Value::Int64(static_cast<int64_t>(rng.Uniform(20))),
                        Value::Int64(static_cast<int64_t>(rng.Uniform(30))),
                        Value::Int64(1 + static_cast<int64_t>(rng.Uniform(9)))});
    }
    for (int r = 0; r < 20; ++r) {
      for (int p = 0; p < 30; ++p) {
        if (rng.Bernoulli(0.1)) {  // 10% of (region, product) pairs promoted
          promos.push_back({Value::Int64(r), Value::Int64(p),
                            Value::Double(rng.NextDouble() * 0.5)});
        }
      }
    }
    MAGICDB_CHECK_OK(db_.LoadRows("Orders", std::move(orders)));
    MAGICDB_CHECK_OK(db_.LoadRows("Promo", std::move(promos)));
    MAGICDB_CHECK_OK(db_.catalog()->AnalyzeAll());
    MAGICDB_CHECK_OK(db_.Execute(
        "CREATE VIEW SalesByRP AS SELECT region, product, SUM(qty) AS "
        "total FROM Orders GROUP BY region, product"));
  }

  static constexpr const char* kQuery =
      "SELECT P.region, P.product, V.total "
      "FROM Promo P, SalesByRP V "
      "WHERE P.region = V.region AND P.product = V.product "
      "AND P.discount > 0.25";

  Database db_;
};

TEST_F(MultiKeyFixture, MultiKeyMagicMatchesBaseline) {
  auto magic = db_.Run(kQuery);
  ASSERT_TRUE(magic.ok()) << magic.status().ToString();
  db_.mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kNever;
  auto plain = db_.Run(kQuery);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(SameMultiset(magic->rows, plain->rows));
}

TEST_F(MultiKeyFixture, ForcedMultiKeyFilterJoinIsCorrect) {
  db_.mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kAlwaysOnVirtual;
  auto forced = db_.Run(kQuery);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  ASSERT_FALSE(forced->filter_joins.empty());
  // Default Limitation 3: every join attribute contributes.
  EXPECT_EQ(forced->filter_joins[0].filter_key_count, 2);

  db_.mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kNever;
  auto plain = db_.Run(kQuery);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(SameMultiset(forced->rows, plain->rows));
}

TEST_F(MultiKeyFixture, PartialKeyOptionKeepsResults) {
  db_.mutable_optimizer_options()->consider_partial_key_filter_sets = true;
  db_.mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kAlwaysOnVirtual;
  auto partial = db_.Run(kQuery);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();

  db_.mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kNever;
  auto plain = db_.Run(kQuery);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(SameMultiset(partial->rows, plain->rows));
}

TEST_F(MultiKeyFixture, PartialKeyOptionCostsMoreVariants) {
  db_.mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kAlwaysOnVirtual;
  auto all_keys = db_.Run(kQuery);
  ASSERT_TRUE(all_keys.ok());

  db_.mutable_optimizer_options()->consider_partial_key_filter_sets = true;
  auto with_partial = db_.Run(kQuery);
  ASSERT_TRUE(with_partial.ok());
  EXPECT_GT(with_partial->optimizer_stats.filter_joins_costed,
            all_keys->optimizer_stats.filter_joins_costed);
  // The chosen plan can only improve (or stay equal) in estimated cost.
  EXPECT_LE(with_partial->est_cost, all_keys->est_cost * 1.0001);
}

TEST(MultiKeyRewriteTest, TwoKeyPushBelowAggregate) {
  Schema base({{"O", "region", DataType::kInt64},
               {"O", "product", DataType::kInt64},
               {"O", "qty", DataType::kInt64}});
  auto scan = std::make_shared<RelScanNode>("Orders", "O", base);
  std::vector<ExprPtr> groups = {
      MakeColumnRef(0, DataType::kInt64, "O.region"),
      MakeColumnRef(1, DataType::kInt64, "O.product")};
  std::vector<AggSpec> aggs = {
      {AggFunc::kSum, MakeColumnRef(2, DataType::kInt64, "O.qty"), "total"}};
  Schema out({{"", "region", DataType::kInt64},
              {"", "product", DataType::kInt64},
              {"", "total", DataType::kInt64}});
  auto view = std::make_shared<AggregateNode>(scan, groups, aggs, out);

  // Both keys are group-by columns: pushable below the aggregate.
  auto both = MagicRewrite(view, {0, 1}, "mk1", RewriteStyle::kProbe);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(ProbeDepth(*both), 1);

  // A single key is still pushable (partial SIPS).
  auto single = MagicRewrite(view, {1}, "mk2", RewriteStyle::kProbe);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(ProbeDepth(*single), 1);
  const auto* probe = static_cast<const FilterSetProbeNode*>(
      (*single)->children()[0].get());
  EXPECT_EQ(probe->key_columns(), (std::vector<int>{1}));

  // Keys including the aggregate output stay above it.
  auto agg_key = MagicRewrite(view, {0, 2}, "mk3", RewriteStyle::kProbe);
  ASSERT_TRUE(agg_key.ok());
  EXPECT_EQ(ProbeDepth(*agg_key), 0);
}

TEST(MultiKeyExecTest, PartialFilterKeysAreLossyButJoinIsExact) {
  // Operator-level check: FilterJoinOp with a single-attribute filter over
  // a two-attribute join returns exactly the two-attribute join result.
  Schema rs({{"r", "a", DataType::kInt64}, {"r", "b", DataType::kInt64}});
  Schema ss({{"s", "a", DataType::kInt64},
             {"s", "b", DataType::kInt64},
             {"s", "y", DataType::kInt64}});
  Table r("r", rs), s("s", ss);
  Random rng(33);
  for (int i = 0; i < 50; ++i) {
    MAGICDB_CHECK_OK(r.Insert({Value::Int64(static_cast<int64_t>(rng.Uniform(5))),
                               Value::Int64(static_cast<int64_t>(rng.Uniform(5)))}));
    MAGICDB_CHECK_OK(
        s.Insert({Value::Int64(static_cast<int64_t>(rng.Uniform(5))),
                  Value::Int64(static_cast<int64_t>(rng.Uniform(5))),
                  Value::Int64(i)}));
  }
  std::vector<Tuple> expected;
  for (int64_t i = 0; i < r.NumRows(); ++i) {
    for (int64_t j = 0; j < s.NumRows(); ++j) {
      if (r.row(i)[0] == s.row(j)[0] && r.row(i)[1] == s.row(j)[1]) {
        expected.push_back(ConcatTuples(r.row(i), s.row(j)));
      }
    }
  }
  ExecContext ctx;
  const std::string id = "mk_exec";
  // Filter only on attribute a (position 0 of the key list).
  auto inner = std::make_unique<FilterProbeOp>(std::make_unique<SeqScanOp>(&s),
                                               id, std::vector<int>{0});
  FilterJoinOp join(std::make_unique<SeqScanOp>(&r), std::move(inner), id,
                    {0, 1}, {0, 1}, nullptr, FilterSetImpl::kExact, 0, 10.0,
                    /*filter_key_positions=*/{0});
  auto rows = ExecuteToVector(&join, &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(SameMultiset(*rows, expected));
}

}  // namespace
}  // namespace magicdb
