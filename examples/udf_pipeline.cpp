// User-defined relations (§5.2): joining a table with a function-backed
// relation. A geocoding-style function is expensive per call; the optimizer
// chooses between invoking it per probe row, memoizing, or a Filter Join
// that deduplicates arguments first and invokes consecutively.

#include <iostream>

#include "src/common/random.h"
#include "src/db/database.h"

using magicdb::Database;
using magicdb::DataType;
using magicdb::LambdaTableFunction;
using magicdb::OptimizerOptions;
using magicdb::Random;
using magicdb::Schema;
using magicdb::Status;
using magicdb::Tuple;
using magicdb::Value;

namespace {

constexpr const char* kQuery =
    "SELECT S.city, S.total, G.zone "
    "FROM Shipments S, geocode G "
    "WHERE S.city = G.city";

void Check(const Status& status) {
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    std::exit(1);
  }
}

}  // namespace

int main() {
  Database db;
  Check(db.Execute("CREATE TABLE Shipments (city INT, total DOUBLE)"));

  // 5000 shipments across only 40 distinct cities: heavy argument
  // duplication, the regime where consecutive invocation shines.
  Random rng(11);
  std::vector<Tuple> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({Value::Int64(static_cast<int64_t>(rng.Uniform(40))),
                    Value::Double(rng.NextDouble() * 1000.0)});
  }
  Check(db.LoadRows("Shipments", std::move(rows)));

  // The user-defined relation: geocode(city) -> zone. Each invocation is
  // charged kFunctionInvokeCost (think: an RPC to a geo service).
  Schema args({{"", "city", DataType::kInt64}});
  Schema results({{"", "zone", DataType::kInt64}});
  Check(db.catalog()->RegisterFunction(std::make_unique<LambdaTableFunction>(
      "geocode", args, results,
      [](const Tuple& in, std::vector<Tuple>* out) {
        out->push_back({Value::Int64(in[0].AsInt64() % 7)});
        return Status::OK();
      })));

  struct Mode {
    const char* label;
    void (*configure)(OptimizerOptions*);
  };
  const Mode modes[] = {
      {"naive: invoke per shipment row",
       [](OptimizerOptions* o) {
         o->enable_function_memo = false;
         o->magic_mode = OptimizerOptions::MagicMode::kNever;
       }},
      {"memoized invocation (function caching)",
       [](OptimizerOptions* o) {
         o->magic_mode = OptimizerOptions::MagicMode::kNever;
       }},
      {"filter join: distinct cities, consecutive calls",
       [](OptimizerOptions* o) {
         o->enable_function_memo = false;
         o->magic_mode = OptimizerOptions::MagicMode::kAlwaysOnVirtual;
       }},
      {"cost-based optimizer choice", [](OptimizerOptions*) {}},
  };
  for (const Mode& mode : modes) {
    OptimizerOptions opts;
    mode.configure(&opts);
    *db.mutable_optimizer_options() = opts;
    auto result = db.Run(kQuery);
    Check(result.status());
    std::cout << "--- " << mode.label << " ---\n"
              << "  function invocations: "
              << result->counters.function_invocations
              << ", measured cost: " << result->counters.TotalCost()
              << ", rows: " << result->rows.size() << "\n";
  }
  std::cout << "\n(5000 probe rows, 40 distinct cities: the filter join and "
               "the cache both invoke 40 times; per-row invocation pays "
               "5000)\n";
  return 0;
}
