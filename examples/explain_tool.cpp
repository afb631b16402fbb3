// Interactive EXPLAIN shell over a demo warehouse. Type SQL; see the
// chosen physical plan (with Filter Join decisions and Table-1 cost
// breakdowns), then the results. DDL (CREATE TABLE / CREATE VIEW) works
// too. Commands:
//
//   .magic cost|never|always   switch the optimizer's magic mode
//   .explain <select>          plan only, do not execute
//   .quit                      exit
//
// Run:  ./build/examples/explain_tool  (pipe a script in, or type)

#include <iostream>
#include <string>

#include "src/common/random.h"
#include "src/db/database.h"

using magicdb::Database;
using magicdb::OptimizerOptions;
using magicdb::Random;
using magicdb::Tuple;
using magicdb::Value;

namespace {

void Check(const magicdb::Status& status) {
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    std::exit(1);
  }
}

void SetupDemoWarehouse(Database* db) {
  Check(db->Execute("CREATE TABLE Emp (did INT, sal DOUBLE, age INT)"));
  Check(db->Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
  Random rng(3);
  std::vector<Tuple> emps, depts;
  for (int d = 0; d < 200; ++d) {
    depts.push_back({Value::Int64(d),
                     Value::Double(rng.Bernoulli(0.1) ? 300000.0 : 90000.0)});
    for (int e = 0; e < 8; ++e) {
      emps.push_back({Value::Int64(d),
                      Value::Double(45000.0 + rng.NextDouble() * 90000.0),
                      Value::Int64(22 + static_cast<int64_t>(rng.Uniform(40)))});
    }
  }
  Check(db->LoadRows("Dept", std::move(depts)));
  Check(db->LoadRows("Emp", std::move(emps)));
  (*db->catalog()->Lookup("Emp"))->table->CreateHashIndex({0});
  (*db->catalog()->Lookup("Dept"))->table->CreateHashIndex({0});
  Check(db->catalog()->AnalyzeAll());
  Check(db->Execute(
      "CREATE VIEW DepAvgSal AS "
      "SELECT did, AVG(sal) AS avgsal FROM Emp GROUP BY did"));
}

}  // namespace

int main() {
  Database db;
  SetupDemoWarehouse(&db);
  std::cout
      << "magicdb explain shell — demo warehouse loaded:\n"
      << "  Emp(did, sal, age)  Dept(did, budget)  view DepAvgSal(did, "
         "avgsal)\n"
      << "try:\n"
      << "  SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V\n"
      << "  WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal\n"
      << "  AND E.age < 30 AND D.budget > 100000\n\n";

  std::string line, statement;
  while (true) {
    std::cout << (statement.empty() ? "magicdb> " : "      -> ")
              << std::flush;
    if (!std::getline(std::cin, line)) break;
    if (line == ".quit" || line == ".exit") break;
    if (line.rfind(".magic", 0) == 0) {
      OptimizerOptions::MagicMode mode = OptimizerOptions::MagicMode::kCostBased;
      if (line.find("never") != std::string::npos) {
        mode = OptimizerOptions::MagicMode::kNever;
      } else if (line.find("always") != std::string::npos) {
        mode = OptimizerOptions::MagicMode::kAlwaysOnVirtual;
      }
      db.mutable_optimizer_options()->magic_mode = mode;
      std::cout << "ok\n";
      continue;
    }
    statement += line + "\n";
    // Statements end with ';' or a blank line.
    if (line.empty() || line.find(';') != std::string::npos) {
      std::string sql = statement;
      statement.clear();
      if (sql.find_first_not_of(" \t\n;") == std::string::npos) continue;

      bool explain_only = false;
      const size_t dot = sql.find(".explain");
      if (dot != std::string::npos) {
        explain_only = true;
        sql = sql.substr(dot + 8);
      }
      if (explain_only) {
        auto text = db.Explain(sql);
        std::cout << (text.ok() ? *text : text.status().ToString()) << "\n";
        continue;
      }
      // DDL?
      std::string upper = sql.substr(sql.find_first_not_of(" \t\n"),
                                     std::string::npos);
      if (upper.rfind("CREATE", 0) == 0 || upper.rfind("create", 0) == 0) {
        magicdb::Status st = db.Execute(sql);
        std::cout << (st.ok() ? "ok" : st.ToString()) << "\n";
        continue;
      }
      auto result = db.Run(sql);
      if (!result.ok()) {
        std::cout << result.status().ToString() << "\n";
        continue;
      }
      std::cout << result->explain << "\n"
                << result->ToString(20)
                << "measured cost: " << result->counters.TotalCost()
                << " (estimated " << result->est_cost << ")\n";
      for (const auto& fj : result->filter_joins) {
        std::cout << "filter join: " << fj.ToString() << "\n";
      }
      std::cout << "\n";
    }
  }
  return 0;
}
