// Option-toggle tests: every join-method switch must be honored by the
// plans the optimizer emits, and combinations must stay executable.

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

using testutil::SameMultiset;

std::unique_ptr<Database> TwoTables() {
  auto db = std::make_unique<Database>();
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE R (k INT, x INT)"));
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE S (k INT, y INT)"));
  Random rng(91);
  std::vector<Tuple> r, s;
  for (int i = 0; i < 300; ++i) {
    r.push_back({Value::Int64(static_cast<int64_t>(rng.Uniform(30))),
                 Value::Int64(i)});
    s.push_back({Value::Int64(static_cast<int64_t>(rng.Uniform(30))),
                 Value::Int64(i)});
  }
  MAGICDB_CHECK_OK(db->LoadRows("R", std::move(r)));
  MAGICDB_CHECK_OK(db->LoadRows("S", std::move(s)));
  (*db->catalog()->Lookup("S"))->table->CreateHashIndex({0});
  MAGICDB_CHECK_OK(db->catalog()->AnalyzeAll());
  return db;
}

constexpr const char* kJoinQuery =
    "SELECT R.x, S.y FROM R, S WHERE R.k = S.k";

struct MethodToggle {
  const char* name;       // display
  const char* marker;     // Describe() substring that must disappear
  void (*disable)(OptimizerOptions*);
};

// Prints the display name, so each case's test name is stable across
// runs instead of spelling out the struct's pointer bytes.
void PrintTo(const MethodToggle& toggle, std::ostream* os) {
  *os << toggle.name;
}

class MethodToggleTest : public ::testing::TestWithParam<MethodToggle> {};

TEST_P(MethodToggleTest, DisabledMethodNeverAppears) {
  const MethodToggle& toggle = GetParam();
  auto db = TwoTables();
  OptimizerOptions opts;
  opts.magic_mode = OptimizerOptions::MagicMode::kNever;
  opts.filter_join_on_stored = false;
  toggle.disable(&opts);
  *db->mutable_optimizer_options() = opts;
  auto result = db->Run(kJoinQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->explain.find(toggle.marker), std::string::npos)
      << toggle.name << "\n"
      << result->explain;

  // Results must match the unrestricted plan.
  *db->mutable_optimizer_options() = OptimizerOptions();
  auto reference = db->Run(kJoinQuery);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(SameMultiset(result->rows, reference->rows));
}

INSTANTIATE_TEST_SUITE_P(
    Methods, MethodToggleTest,
    ::testing::Values(
        MethodToggle{"hash", "HashJoin",
                     [](OptimizerOptions* o) { o->enable_hash_join = false; }},
        MethodToggle{"sort-merge", "SortMergeJoin",
                     [](OptimizerOptions* o) { o->enable_sort_merge = false; }},
        MethodToggle{"index-nl", "IndexNestedLoopsJoin",
                     [](OptimizerOptions* o) {
                       o->enable_index_nested_loops = false;
                     }},
        MethodToggle{"nested-loops", "NestedLoopsJoin(",
                     [](OptimizerOptions* o) {
                       o->enable_nested_loops = false;
                     }}));

TEST(OptimizerOptionsTest, MagicNeverSuppressesFilterJoins) {
  auto db = TwoTables();
  db->mutable_optimizer_options()->magic_mode =
      OptimizerOptions::MagicMode::kNever;
  auto result = db->Run(kJoinQuery);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->explain.find("FilterJoin"), std::string::npos);
  EXPECT_TRUE(result->filter_joins.empty());
}

TEST(OptimizerOptionsTest, FilterJoinOnStoredRespectsFlag) {
  auto db = TwoTables();
  OptimizerOptions opts;
  opts.enable_hash_join = false;
  opts.enable_sort_merge = false;
  opts.enable_index_nested_loops = false;
  opts.enable_nested_loops = false;
  opts.filter_join_on_stored = false;
  *db->mutable_optimizer_options() = opts;
  // With everything disabled, planning must fail rather than sneak a
  // method in.
  EXPECT_FALSE(db->Run(kJoinQuery).ok());

  opts.filter_join_on_stored = true;
  *db->mutable_optimizer_options() = opts;
  auto result = db->Run(kJoinQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->explain.find("FilterJoin"), std::string::npos);
}

TEST(OptimizerOptionsTest, BloomBitsPerKeyAffectsExecution) {
  auto db = TwoTables();
  OptimizerOptions opts;
  opts.consider_exact_filter_sets = false;  // force Bloom
  opts.filter_join_on_stored = true;
  opts.enable_hash_join = false;
  opts.enable_sort_merge = false;
  opts.enable_index_nested_loops = false;
  opts.enable_nested_loops = false;
  opts.bloom_bits_per_key = 2.0;  // sloppy filter
  *db->mutable_optimizer_options() = opts;
  auto sloppy = db->Run(kJoinQuery);
  ASSERT_TRUE(sloppy.ok()) << sloppy.status().ToString();

  opts.bloom_bits_per_key = 16.0;  // tight filter
  *db->mutable_optimizer_options() = opts;
  auto tight = db->Run(kJoinQuery);
  ASSERT_TRUE(tight.ok());
  // Same results regardless of filter quality.
  EXPECT_TRUE(SameMultiset(sloppy->rows, tight->rows));
}

TEST(JoinOrderBackendTest, GreedyMatchesDpResultsAndExplainNamesBackend) {
  auto db = TwoTables();
  auto dp = db->Run(kJoinQuery);
  ASSERT_TRUE(dp.ok()) << dp.status().ToString();
  EXPECT_NE(dp->explain.find("backend=dp"), std::string::npos) << dp->explain;

  db->mutable_optimizer_options()->join_order_backend = "greedy";
  auto greedy = db->Run(kJoinQuery);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  EXPECT_NE(greedy->explain.find("backend=greedy"), std::string::npos)
      << greedy->explain;
  // Both backends search the same plan space under the same cost model;
  // whatever order each picks, the answer set is identical.
  EXPECT_TRUE(SameMultiset(dp->rows, greedy->rows));
}

TEST(JoinOrderBackendTest, UnknownBackendFailsWithInvalidArgument) {
  auto db = TwoTables();
  db->mutable_optimizer_options()->join_order_backend = "simulated-annealing";
  auto r = db->Run(kJoinQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("join_order_backend"),
            std::string::npos);
}

TEST(JoinOrderBackendTest, FingerprintSeparatesBackends) {
  OptimizerOptions a, b;
  b.join_order_backend = "greedy";
  EXPECT_NE(OptimizerOptionsFingerprint(a), OptimizerOptionsFingerprint(b));
}

TEST(OptimizerOptionsTest, MemoryBudgetChangesCostsNotResults) {
  auto db = TwoTables();
  db->mutable_optimizer_options()->memory_budget_bytes = 1 << 26;
  auto roomy = db->Run(kJoinQuery);
  ASSERT_TRUE(roomy.ok());
  db->mutable_optimizer_options()->memory_budget_bytes = 512;
  auto tight = db->Run(kJoinQuery);
  ASSERT_TRUE(tight.ok());
  EXPECT_TRUE(SameMultiset(roomy->rows, tight->rows));
  // A starved executor does at least as much I/O.
  EXPECT_GE(tight->counters.TotalCost(), roomy->counters.TotalCost() * 0.99);
}

}  // namespace
}  // namespace magicdb
