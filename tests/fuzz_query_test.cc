// Randomized end-to-end fuzzing: generate random schemas, data and queries
// within the supported SQL subset, then execute each query under the
// cost-based optimizer and under a nested-loops-only reference
// configuration — results must agree exactly. Seeds are fixed, so failures
// reproduce deterministically.

#include <gtest/gtest.h>

#include <sstream>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

using testutil::SameMultiset;

/// Builds a random 2-3 table database with a view, returning table names.
std::vector<std::string> BuildRandomDatabase(Database* db, Random* rng) {
  const int num_tables = 2 + static_cast<int>(rng->Uniform(2));
  std::vector<std::string> tables;
  for (int t = 0; t < num_tables; ++t) {
    const std::string name = "t" + std::to_string(t);
    MAGICDB_CHECK_OK(
        db->Execute("CREATE TABLE " + name + " (k INT, v INT, w DOUBLE)"));
    const int rows = 5 + static_cast<int>(rng->Uniform(120));
    const int keys = 1 + static_cast<int>(rng->Uniform(15));
    std::vector<Tuple> data;
    for (int i = 0; i < rows; ++i) {
      // ~5% NULL keys to exercise three-valued join semantics.
      Value k = rng->Bernoulli(0.05)
                    ? Value::Null()
                    : Value::Int64(static_cast<int64_t>(rng->Uniform(keys)));
      data.push_back({k, Value::Int64(static_cast<int64_t>(rng->Uniform(50))),
                      Value::Double(rng->NextDouble() * 100)});
    }
    MAGICDB_CHECK_OK(db->LoadRows(name, std::move(data)));
    if (rng->Bernoulli(0.5)) {
      (*db->catalog()->Lookup(name))->table->CreateHashIndex({0});
    }
    tables.push_back(name);
  }
  MAGICDB_CHECK_OK(db->catalog()->AnalyzeAll());
  // A view over the first table.
  MAGICDB_CHECK_OK(db->Execute(
      "CREATE VIEW agg0 AS SELECT k, SUM(v) AS s, COUNT(*) AS c FROM t0 "
      "GROUP BY k"));
  tables.push_back("agg0");
  return tables;
}

/// Generates a random join query over 1-3 of the relations.
std::string RandomQuery(const std::vector<std::string>& tables, Random* rng) {
  const int nfrom = 1 + static_cast<int>(rng->Uniform(3));
  std::vector<std::string> aliases;
  std::ostringstream from;
  for (int i = 0; i < nfrom; ++i) {
    const std::string& table =
        tables[rng->Uniform(static_cast<uint64_t>(tables.size()))];
    const std::string alias = "r" + std::to_string(i);
    if (i > 0) from << ", ";
    from << table << " " << alias;
    aliases.push_back(alias);
  }
  std::ostringstream where;
  // Chain equi joins on k.
  for (size_t i = 1; i < aliases.size(); ++i) {
    if (i > 1) where << " AND ";
    where << aliases[i - 1] << ".k = " << aliases[i] << ".k";
  }
  // Optional local predicate.
  if (rng->Bernoulli(0.7)) {
    if (where.tellp() > 0) where << " AND ";
    where << aliases[0] << ".k "
          << (rng->Bernoulli(0.5) ? "<" : ">=") << " "
          << rng->Uniform(10);
  }
  std::string select = aliases[0] + ".k";
  for (size_t i = 0; i < aliases.size(); ++i) {
    select += ", " + aliases[i] + ".k";
  }
  std::string sql = "SELECT " + select + " FROM " + from.str();
  const std::string pred = where.str();
  if (!pred.empty()) sql += " WHERE " + pred;
  return sql;
}

class FuzzQueryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzQueryTest, AllModesAgreeOnRandomQueries) {
  Random rng(GetParam());
  Database db;
  const std::vector<std::string> tables = BuildRandomDatabase(&db, &rng);
  for (int q = 0; q < 12; ++q) {
    const std::string sql = RandomQuery(tables, &rng);
    // Reference: nested loops only, no magic.
    OptimizerOptions nl_only;
    nl_only.enable_hash_join = false;
    nl_only.enable_sort_merge = false;
    nl_only.enable_index_nested_loops = false;
    nl_only.magic_mode = OptimizerOptions::MagicMode::kNever;
    nl_only.filter_join_on_stored = false;
    *db.mutable_optimizer_options() = nl_only;
    auto reference = db.Run(sql);
    ASSERT_TRUE(reference.ok()) << sql << "\n"
                                << reference.status().ToString();

    for (auto mode : {OptimizerOptions::MagicMode::kCostBased,
                      OptimizerOptions::MagicMode::kAlwaysOnVirtual}) {
      OptimizerOptions opts;
      opts.magic_mode = mode;
      opts.filter_join_on_stored = true;
      *db.mutable_optimizer_options() = opts;
      auto result = db.Run(sql);
      ASSERT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
      EXPECT_TRUE(SameMultiset(result->rows, reference->rows))
          << "seed=" << GetParam() << " mode="
          << (mode == OptimizerOptions::MagicMode::kCostBased ? "cost"
                                                              : "always")
          << "\nquery: " << sql << "\ngot " << result->rows.size()
          << " rows, reference " << reference->rows.size();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzQueryTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808));

}  // namespace
}  // namespace magicdb
