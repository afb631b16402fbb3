#include "dataset.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/random.h"

namespace magicdb::perfbench {
namespace {

void LoadFigure1(Database* db, const DatasetSizes& sizes, Random* rng) {
  MAGICDB_CHECK_OK(
      db->Execute("CREATE TABLE Emp (did INT, sal DOUBLE, age INT)"));
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
  // Seeded partial Fisher-Yates: which departments are big varies with the
  // seed, how many does not.
  std::vector<int> order(static_cast<size_t>(sizes.num_depts));
  for (int d = 0; d < sizes.num_depts; ++d) order[static_cast<size_t>(d)] = d;
  std::vector<bool> big(order.size(), false);
  for (int i = 0; i < sizes.big_depts; ++i) {
    const int j = static_cast<int>(rng->UniformInt(i, sizes.num_depts - 1));
    std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
    big[static_cast<size_t>(order[static_cast<size_t>(i)])] = true;
  }
  std::vector<Tuple> emps, depts;
  emps.reserve(static_cast<size_t>(sizes.emp_rows()));
  depts.reserve(static_cast<size_t>(sizes.num_depts));
  std::vector<char> young(static_cast<size_t>(sizes.emps_per_dept), 0);
  std::fill_n(young.begin(), sizes.young_per_dept, 1);
  for (int d = 0; d < sizes.num_depts; ++d) {
    depts.push_back(
        {Value::Int64(d), Value::Double(big[static_cast<size_t>(d)]
                                            ? kBigBudget
                                            : kSmallBudget)});
    // Seeded shuffle: which employees are young varies with the seed, how
    // many does not.
    for (size_t i = young.size() - 1; i > 0; --i) {
      std::swap(young[i], young[rng->Uniform(i + 1)]);
    }
    for (int e = 0; e < sizes.emps_per_dept; ++e) {
      emps.push_back({Value::Int64(d),
                      Value::Double(50000.0 + rng->NextDouble() * 100000.0),
                      Value::Int64(young[static_cast<size_t>(e)] ? kYoungAge
                                                                 : kOldAge)});
    }
  }
  MAGICDB_CHECK_OK(db->LoadRows("Dept", std::move(depts)));
  MAGICDB_CHECK_OK(db->LoadRows("Emp", std::move(emps)));
  (*db->catalog()->Lookup("Emp"))->table->CreateHashIndex({0});
  (*db->catalog()->Lookup("Dept"))->table->CreateHashIndex({0});
  MAGICDB_CHECK_OK(
      db->Execute("CREATE VIEW DepAvgSal AS SELECT did, AVG(sal) AS avgsal "
                  "FROM Emp GROUP BY did"));
}

void LoadStar(Database* db, const DatasetSizes& sizes, Random* rng) {
  std::string fact_cols = "(";
  for (int i = 0; i < sizes.star_dims; ++i) {
    fact_cols += "d" + std::to_string(i) + " INT, ";
  }
  fact_cols += "measure DOUBLE)";
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Fact " + fact_cols));
  std::vector<Tuple> fact;
  fact.reserve(static_cast<size_t>(sizes.fact_rows));
  for (int r = 0; r < sizes.fact_rows; ++r) {
    Tuple t;
    for (int i = 0; i < sizes.star_dims; ++i) {
      t.push_back(Value::Int64(
          static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(
              sizes.dim_rows)))));
    }
    t.push_back(Value::Double(rng->NextDouble() * 100.0));
    fact.push_back(std::move(t));
  }
  MAGICDB_CHECK_OK(db->LoadRows("Fact", std::move(fact)));

  for (int i = 0; i < sizes.star_dims; ++i) {
    const std::string base = "DimBase" + std::to_string(i);
    const std::string dim = "Dim" + std::to_string(i);
    MAGICDB_CHECK_OK(
        db->Execute("CREATE TABLE " + base + " (id INT, attr INT)"));
    std::vector<Tuple> rows;
    rows.reserve(static_cast<size_t>(sizes.dim_rows));
    for (int r = 0; r < sizes.dim_rows; ++r) {
      rows.push_back({Value::Int64(r), Value::Int64(rng->UniformInt(0, 9))});
    }
    MAGICDB_CHECK_OK(db->LoadRows(base, std::move(rows)));
    (*db->catalog()->Lookup(base))->table->CreateHashIndex({0});
    MAGICDB_CHECK_OK(db->Execute(
        i < sizes.star_agg_views
            ? "CREATE VIEW " + dim + " AS SELECT id, MAX(attr) AS attr FROM " +
                  base + " GROUP BY id"
            : "CREATE VIEW " + dim + " AS SELECT id, attr FROM " + base));
  }
}

}  // namespace

std::unique_ptr<Database> MakeDataset(const DatasetSizes& sizes,
                                      uint64_t seed) {
  auto db = std::make_unique<Database>();
  Random rng(seed);
  LoadFigure1(db.get(), sizes, &rng);
  LoadStar(db.get(), sizes, &rng);
  // Indexes were built after the loads; refresh statistics so the
  // optimizer costs index nested loops and Filter Joins against them.
  MAGICDB_CHECK_OK(db->catalog()->AnalyzeAll());
  return db;
}

std::string DescribeDataset(const DatasetSizes& sizes) {
  std::ostringstream os;
  os << "Emp=" << sizes.emp_rows() << " rows (" << sizes.num_depts
     << " depts x " << sizes.emps_per_dept
     << "), Dept=" << sizes.num_depts << " rows (" << sizes.big_depts
     << " big budgets), Fact=" << sizes.fact_rows << " rows, "
     << sizes.star_dims << " dims x " << sizes.dim_rows << " rows ("
     << sizes.star_agg_views << " aggregating views)";
  return os.str();
}

}  // namespace magicdb::perfbench
