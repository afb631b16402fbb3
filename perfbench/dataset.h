#ifndef MAGICDB_PERFBENCH_DATASET_H_
#define MAGICDB_PERFBENCH_DATASET_H_

// The one seeded database every workload runs against. Only the traffic
// differs between workloads; the data depends on the seed alone.

#include <cstdint>
#include <memory>
#include <string>

#include "src/db/database.h"

namespace magicdb::perfbench {

/// Table sizes. Fixed, not workload-dependent, so set-up work is the same
/// for every workload and every seed.
struct DatasetSizes {
  /// Figure-1 schema: Emp(did, sal, age), Dept(did, budget), view
  /// DepAvgSal. Hash indexes on both did columns.
  int num_depts = 10000;
  int emps_per_dept = 20;
  /// Departments with a big budget (0.2%): the few outer tuples that make
  /// a Filter Join into DepAvgSal pay off. A fixed count, not a
  /// probability, so every seed gives the Filter Join the same work.
  int big_depts = 20;
  /// Young employees in each department (30%). A fixed count, not a
  /// probability: the age statistics, and with them every plan the
  /// optimizer picks, are then the same for every seed.
  int young_per_dept = 6;
  /// E7 star schema: Fact(d0..d4, measure) over five dimensions
  /// Dim0..Dim4, each a view over DimBase<i>(id, attr) with a hash index
  /// on id; the first `star_agg_views` are aggregating views.
  int star_dims = 5;
  int fact_rows = 2000;
  int dim_rows = 100;
  int star_agg_views = 2;

  int64_t emp_rows() const {
    return static_cast<int64_t>(num_depts) * emps_per_dept;
  }
};

/// Budgets and ages take two values each, so the histograms estimate every
/// threshold between them exactly and the seeded literals never change the
/// work: any `budget > t` with kSmallBudget <= t < kBigBudget selects
/// exactly the big departments, and any `age < a` with
/// kYoungAge < a <= kOldAge the young.
inline constexpr double kSmallBudget = 50000.0;
inline constexpr double kBigBudget = 200000.0;
inline constexpr int64_t kYoungAge = 25;
inline constexpr int64_t kOldAge = 45;

/// Creates, loads, indexes and analyzes the database. Deterministic in
/// `seed`.
std::unique_ptr<Database> MakeDataset(const DatasetSizes& sizes,
                                      uint64_t seed);

/// One-line description of the sizes, for the run header.
std::string DescribeDataset(const DatasetSizes& sizes);

}  // namespace magicdb::perfbench

#endif  // MAGICDB_PERFBENCH_DATASET_H_
