// Plan identity: the optimizer's output for a fixed grid of queries and
// option sets, compared byte for byte with tests/golden/plan_identity.txt.
// Each case records the EXPLAIN text (Filter Join binding ids included),
// est_cost and est_rows at %.17g, the Table-1 breakdown of every chosen
// Filter Join, and the six OptimizerStats counters. A change to how the
// optimizer searches or prices plans that is meant to leave its choices
// alone must leave this file unchanged.
//
// On a mismatch the test writes the whole actual output next to the test
// temp files (the failure message names the path); copy it over the golden
// file only when the plan change is intended.

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "src/optimizer/optimizer.h"
#include "src/udr/table_function.h"

namespace magicdb {
namespace {

std::string G17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Figure 1 (Emp, Dept, DepAvgSal) plus a remote copy of Dept at site 2 and
// a table function, so every access kind a join block can hold is priced.
std::unique_ptr<Database> MakeFigure1Db(uint64_t seed) {
  auto db = std::make_unique<Database>();
  MAGICDB_CHECK_OK(
      db->Execute("CREATE TABLE Emp (did INT, sal DOUBLE, age INT)"));
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
  Random rng(seed);
  constexpr int kDepts = 400;
  constexpr int kEmpsPerDept = 10;
  std::vector<Tuple> depts, emps;
  for (int d = 0; d < kDepts; ++d) {
    const bool big = rng.Uniform(20) == 0;
    depts.push_back({Value::Int64(d), Value::Double(big ? 200000.0 : 50000.0)});
    for (int e = 0; e < kEmpsPerDept; ++e) {
      emps.push_back({Value::Int64(d),
                      Value::Double(50000.0 + rng.NextDouble() * 100000.0),
                      Value::Int64(rng.Uniform(10) < 3 ? 25 : 45)});
    }
  }
  std::vector<Tuple> remote_depts = depts;
  MAGICDB_CHECK_OK(db->LoadRows("Dept", std::move(depts)));
  MAGICDB_CHECK_OK(db->LoadRows("Emp", std::move(emps)));
  (*db->catalog()->Lookup("Emp"))->table->CreateHashIndex({0});
  (*db->catalog()->Lookup("Dept"))->table->CreateHashIndex({0});
  MAGICDB_CHECK_OK(
      db->Execute("CREATE VIEW DepAvgSal AS SELECT did, AVG(sal) AS avgsal "
                  "FROM Emp GROUP BY did"));
  Schema rdept(
      {{"", "did", DataType::kInt64}, {"", "budget", DataType::kDouble}});
  Table* remote = *db->catalog()->CreateRemoteTable("RDept", rdept, 2);
  MAGICDB_CHECK_OK(remote->InsertAll(std::move(remote_depts)));
  Schema args({{"", "a", DataType::kInt64}});
  Schema results({{"", "bonus", DataType::kInt64}});
  MAGICDB_CHECK_OK(db->catalog()->RegisterFunction(
      std::make_unique<LambdaTableFunction>(
          "AgeBonus", args, results,
          [](const Tuple& in, std::vector<Tuple>* out) {
            out->push_back({Value::Int64(in[0].AsInt64() * 10)});
            return Status::OK();
          })));
  MAGICDB_CHECK_OK(db->catalog()->AnalyzeAll());
  return db;
}

// The E7 star: Fact(d0..d5, measure) over six dimension views Dim<i> on
// DimBase<i>(id, attr); Dim0 and Dim1 aggregate.
std::unique_ptr<Database> MakeStarDb(uint64_t seed) {
  constexpr int kDims = 6;
  constexpr int kFactRows = 2000;
  constexpr int kDimRows = 1000;
  auto db = std::make_unique<Database>();
  std::string fact_cols = "(";
  for (int i = 0; i < kDims; ++i) {
    fact_cols += "d" + std::to_string(i) + " INT, ";
  }
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Fact " + fact_cols +
                               "measure DOUBLE)"));
  Random rng(seed);
  std::vector<Tuple> fact;
  for (int r = 0; r < kFactRows; ++r) {
    Tuple t;
    for (int i = 0; i < kDims; ++i) {
      t.push_back(Value::Int64(static_cast<int64_t>(rng.Uniform(kDimRows))));
    }
    t.push_back(Value::Double(rng.NextDouble() * 100.0));
    fact.push_back(std::move(t));
  }
  MAGICDB_CHECK_OK(db->LoadRows("Fact", std::move(fact)));
  for (int i = 0; i < kDims; ++i) {
    const std::string base = "DimBase" + std::to_string(i);
    const std::string dim = "Dim" + std::to_string(i);
    MAGICDB_CHECK_OK(
        db->Execute("CREATE TABLE " + base + " (id INT, attr INT)"));
    std::vector<Tuple> rows;
    for (int r = 0; r < kDimRows; ++r) {
      rows.push_back({Value::Int64(r), Value::Int64(rng.UniformInt(0, 9))});
    }
    MAGICDB_CHECK_OK(db->LoadRows(base, std::move(rows)));
    (*db->catalog()->Lookup(base))->table->CreateHashIndex({0});
    MAGICDB_CHECK_OK(db->Execute(
        i < 2 ? "CREATE VIEW " + dim +
                    " AS SELECT id, MAX(attr) AS attr FROM " + base +
                    " GROUP BY id"
              : "CREATE VIEW " + dim + " AS SELECT id, attr FROM " + base));
  }
  MAGICDB_CHECK_OK(db->catalog()->AnalyzeAll());
  return db;
}

std::string Figure1(const char* age_op, int age, int min_budget) {
  return "SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V "
         "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal "
         "AND E.age " + std::string(age_op) + " " + std::to_string(age) +
         " AND D.budget > " + std::to_string(min_budget);
}

std::vector<std::pair<std::string, std::string>> Figure1Queries() {
  return {
      {"figure1", Figure1("<", 30, 100000)},
      {"figure1_old", Figure1(">", 30, 100000)},
      {"big_depts",
       "SELECT D.did, V.avgsal FROM Dept D, DepAvgSal V "
       "WHERE D.did = V.did AND D.budget > 100000"},
      {"figure1_all_ages",
       "SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V "
       "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal "
       "AND D.budget > 100000"},
      {"figure1_pairs",
       "SELECT E.did, E.sal, V.avgsal, F.sal FROM Emp E, Emp F, Dept D, "
       "DepAvgSal V WHERE E.did = D.did AND F.did = D.did AND "
       "E.did = V.did AND E.sal > V.avgsal AND F.sal > E.sal AND "
       "D.budget > 100000"},
      {"spill_join",
       "SELECT A.did, B.sal FROM Emp A, Emp B WHERE A.sal = B.sal AND "
       "A.did >= 40 AND A.did < 190 AND B.did >= 40 AND B.did < 190"},
      {"spill_agg",
       "SELECT E.did, E.age, COUNT(*) AS c, MIN(E.sal) AS m FROM Emp E "
       "WHERE E.did >= 100 AND E.did < 300 GROUP BY E.did, E.age"},
      {"spill_sort",
       "SELECT E.sal, E.age FROM Emp E WHERE E.did >= 100 AND E.did < 300 "
       "ORDER BY sal DESC, age"},
      {"remote_dept",
       "SELECT E.did, E.sal, R.budget FROM Emp E, RDept R "
       "WHERE E.did = R.did AND E.age < 30 AND R.budget > 100000"},
      {"function_join",
       "SELECT E.did, B.bonus FROM Emp E, Dept D, AgeBonus B "
       "WHERE E.did = D.did AND E.age = B.a AND D.budget > 100000"},
  };
}

std::string StarQuery(const std::string& select, int dims,
                      const std::string& extra_from,
                      const std::string& extra_where,
                      const std::string& tail) {
  std::string from = "Fact F";
  std::string where;
  for (int i = 0; i < dims; ++i) {
    const std::string n = std::to_string(i);
    from += ", Dim" + n + " D" + n;
    if (!where.empty()) where += " AND ";
    where += "F.d" + n + " = D" + n + ".id AND D" + n + ".attr < " +
             std::to_string(3 + i % 5);
  }
  return select + " FROM " + from + extra_from + " WHERE " + where +
         extra_where + tail;
}

std::vector<std::pair<std::string, std::string>> StarQueries() {
  return {
      {"star3", StarQuery("SELECT F.measure", 2, "", "", "")},
      {"star5", StarQuery("SELECT COUNT(*)", 4, "", "", "")},
      {"star5_selective_fact",
       StarQuery("SELECT F.measure, D1.attr", 4, "", " AND F.measure < 2", "")},
      {"star5_base", StarQuery("SELECT COUNT(*)", 3, ", DimBase0 B0",
                               " AND B0.id = D0.id", "")},
      {"star7", StarQuery("SELECT D0.attr, COUNT(*), MAX(F.measure) AS top",
                          6, "", "", " GROUP BY D0.attr")},
  };
}

struct OptionSet {
  const char* name;
  void (*apply)(OptimizerOptions*);
};

const OptionSet kOptionSets[] = {
    {"defaults", [](OptimizerOptions*) {}},
    {"partial_keys",
     [](OptimizerOptions* o) { o->consider_partial_key_filter_sets = true; }},
    {"prefix_production",
     [](OptimizerOptions* o) { o->explore_prefix_production_sets = true; }},
    {"no_bloom",
     [](OptimizerOptions* o) { o->consider_bloom_filter_sets = false; }},
    {"hash_only_dop3",
     [](OptimizerOptions* o) {
       o->enable_nested_loops = false;
       o->enable_index_nested_loops = false;
       o->enable_sort_merge = false;
       o->degree_of_parallelism = 3;
     }},
};

const std::pair<const char*, OptimizerOptions::MagicMode> kMagicModes[] = {
    {"cost_based", OptimizerOptions::MagicMode::kCostBased},
    {"never", OptimizerOptions::MagicMode::kNever},
    {"always_on_virtual", OptimizerOptions::MagicMode::kAlwaysOnVirtual},
};

const char* const kBackends[] = {"dp", "greedy"};

/// What the optimizer produced for one case.
std::string RecordCase(Database* db, const std::string& sql,
                       const OptimizerOptions& opts) {
  std::ostringstream os;
  auto logical = db->Bind(sql);
  MAGICDB_CHECK_OK(logical.status());
  Optimizer optimizer(db->catalog(), opts);
  auto plan = optimizer.Optimize(*logical);
  if (!plan.ok()) {
    os << "error: " << plan.status().ToString() << "\n";
  } else {
    os << "est_cost=" << G17(plan->est_cost)
       << " est_rows=" << G17(plan->est_rows) << "\n"
       << plan->explain;
    if (plan->explain.empty() || plan->explain.back() != '\n') os << "\n";
    for (const FilterJoinCostBreakdown& bd : plan->filter_joins) {
      os << "filter_join p=" << G17(bd.join_cost_p)
         << " prod=" << G17(bd.production_cost)
         << " proj=" << G17(bd.proj_cost)
         << " avail_f=" << G17(bd.avail_cost_f)
         << " filter_rk=" << G17(bd.filter_cost_rk)
         << " avail_rk=" << G17(bd.avail_cost_rk)
         << " final=" << G17(bd.final_join_cost)
         << " f=" << G17(bd.filter_set_size)
         << " rk=" << G17(bd.restricted_rows)
         << " keys=" << bd.filter_key_count
         << " prefix=" << bd.production_prefix_len << "\n";
    }
  }
  const OptimizerStats& s = optimizer.stats();
  os << "stats join_steps_costed=" << s.join_steps_costed
     << " dp_entries=" << s.dp_entries
     << " nested_optimizations=" << s.nested_optimizations
     << " eq_class_hits=" << s.eq_class_hits
     << " eq_class_misses=" << s.eq_class_misses
     << " filter_joins_costed=" << s.filter_joins_costed << "\n";
  return os.str();
}

/// Every left-deep order of the query's top join block, priced with and
/// without the Filter Join.
std::string RecordOrders(Database* db, const std::string& sql,
                         const OptimizerOptions& opts) {
  auto logical = db->Bind(sql);
  MAGICDB_CHECK_OK(logical.status());
  Optimizer optimizer(db->catalog(), opts);
  auto orders = optimizer.EnumerateJoinOrders(*logical);
  if (!orders.ok()) return "error: " + orders.status().ToString() + "\n";
  std::string out;
  for (const JoinOrderCost& o : *orders) {
    out += "without=" + G17(o.cost_without_filter_join) + " " +
           o.methods_without + " | with=" + G17(o.cost_with_filter_join) +
           " " + o.methods_with + "\n";
  }
  const OptimizerStats& s = optimizer.stats();
  return out + "stats join_steps_costed=" +
         std::to_string(s.join_steps_costed) +
         " filter_joins_costed=" + std::to_string(s.filter_joins_costed) +
         " eq_class_misses=" + std::to_string(s.eq_class_misses) + "\n";
}

/// Every case of the grid, keyed by its header, in file order.
std::vector<std::pair<std::string, std::string>> RecordAll() {
  std::vector<std::pair<std::string, std::string>> cases;
  auto run = [&cases](Database* db, const std::string& family,
                      const std::vector<std::pair<std::string, std::string>>&
                          queries) {
    for (const auto& [qname, sql] : queries) {
      for (const char* backend : kBackends) {
        for (const auto& [mname, mode] : kMagicModes) {
          for (const OptionSet& set : kOptionSets) {
            OptimizerOptions opts;
            opts.join_order_backend = backend;
            opts.magic_mode = mode;
            set.apply(&opts);
            const std::string header = "== " + family + "/" + qname + " " +
                                       backend + " " + mname + " " +
                                       set.name + " ==";
            cases.emplace_back(header, RecordCase(db, sql, opts));
          }
        }
      }
    }
  };
  // EnumerateJoinOrders prices every order, not only the chosen one; the
  // defaults and the prefix production sets (which walk the outer chain).
  auto orders = [&cases](Database* db, const std::string& family,
                         const std::string& qname, const std::string& sql) {
    for (const OptionSet& set : {kOptionSets[0], kOptionSets[2]}) {
      OptimizerOptions opts;
      set.apply(&opts);
      const std::string header =
          "== orders " + family + "/" + qname + " " + set.name + " ==";
      cases.emplace_back(header, RecordOrders(db, sql, opts));
    }
  };
  auto fig1 = MakeFigure1Db(/*seed=*/1);
  const auto fig1_queries = Figure1Queries();
  run(fig1.get(), "figure1", fig1_queries);
  orders(fig1.get(), "figure1", "figure1_pairs", fig1_queries[4].second);
  orders(fig1.get(), "figure1", "function_join", fig1_queries[9].second);
  auto star = MakeStarDb(/*seed=*/1);
  const auto star_queries = StarQueries();
  run(star.get(), "star", star_queries);
  orders(star.get(), "star", "star5_selective_fact", star_queries[2].second);
  orders(star.get(), "star", "star5_base", star_queries[3].second);
  return cases;
}

std::string Join(
    const std::vector<std::pair<std::string, std::string>>& cases) {
  std::string out;
  for (const auto& [header, body] : cases) out += header + "\n" + body;
  return out;
}

/// Splits a golden file back into (header, body) cases.
std::map<std::string, std::string> SplitCases(const std::string& text) {
  std::map<std::string, std::string> cases;
  std::istringstream in(text);
  std::string line;
  std::string* body = nullptr;
  while (std::getline(in, line)) {
    if (line.rfind("== ", 0) == 0) {
      body = &cases[line];
      continue;
    }
    if (body != nullptr) *body += line + "\n";
  }
  return cases;
}

TEST(PlanIdentityTest, OptimizerOutputMatchesGolden) {
  const std::string path =
      std::string(MAGICDB_TEST_GOLDEN_DIR) + "/plan_identity.txt";
  const auto actual = RecordAll();
  const std::string actual_text = Join(actual);

  std::ifstream in(path);
  std::stringstream golden_stream;
  golden_stream << in.rdbuf();
  const std::string golden_text = golden_stream.str();
  if (golden_text == actual_text) return;

  const std::string actual_path =
      ::testing::TempDir() + "plan_identity.actual.txt";
  std::ofstream(actual_path) << actual_text;
  ADD_FAILURE() << "optimizer output differs from " << path
                << "; the actual output is in " << actual_path;
  const std::map<std::string, std::string> golden = SplitCases(golden_text);
  EXPECT_EQ(golden.size(), actual.size()) << "number of cases";
  int reported = 0;
  for (const auto& [header, body] : actual) {
    auto it = golden.find(header);
    const std::string expected =
        it == golden.end() ? "(missing from the golden file)\n" : it->second;
    if (expected == body) continue;
    EXPECT_EQ(expected, body) << header;
    if (++reported == 5) break;
  }
}

}  // namespace
}  // namespace magicdb
