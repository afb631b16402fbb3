#ifndef MAGICDB_STATS_TABLE_STATS_H_
#define MAGICDB_STATS_TABLE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/stats/histogram.h"
#include "src/storage/table.h"
#include "src/types/schema.h"

namespace magicdb {

/// Per-column statistics gathered by Analyze().
struct ColumnStats {
  int64_t num_distinct = 0;
  double null_fraction = 0.0;
  /// Numeric min/max; only meaningful when `numeric` is true.
  bool numeric = false;
  double min = 0.0;
  double max = 0.0;
  EquiDepthHistogram histogram;  // numeric columns only
  /// Zone span: the mean over pages of (page max - page min) /
  /// (column max - column min), read from the table's zone map. 0 means
  /// every page holds one value, 1 that every page spans the column (and
  /// what a column without a zone map gets). A page holding a NaN counts 1,
  /// a page holding no value 0.
  double zone_span = 1.0;
};

/// Statistics for one relation: cardinality plus per-column detail. The
/// optimizer derives all selectivity and cardinality estimates from these.
struct TableStats {
  int64_t num_rows = 0;
  int64_t num_pages = 0;
  int64_t tuple_width_bytes = 0;
  std::vector<ColumnStats> columns;

  /// Scans `table` and computes exact statistics (this simulator analyzes
  /// exhaustively; a production system would sample).
  static TableStats Analyze(const Table& table, int histogram_buckets = 16);

  std::string ToString() const;
};

/// Yao's formula [Yao77]: expected number of distinct values observed when
/// drawing `k` rows (without replacement) from a relation of `n` rows that
/// contains `d` distinct values, each value appearing n/d times.
///
/// The optimizer uses this to estimate projection cardinality: the distinct
/// filter set produced by projecting a production set of k rows.
double YaoEstimate(int64_t n, int64_t d, int64_t k);

}  // namespace magicdb

#endif  // MAGICDB_STATS_TABLE_STATS_H_
