#ifndef MAGICDB_STATS_HISTOGRAM_H_
#define MAGICDB_STATS_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/types/value.h"

namespace magicdb {

/// Equi-depth histogram over numeric values. Buckets hold (approximately)
/// equal row counts; boundaries are data values. Non-numeric columns do not
/// get histograms (the estimator falls back to distinct counts).
class EquiDepthHistogram {
 public:
  /// Builds a histogram with at most `num_buckets` buckets from `values`
  /// (non-NULL numeric values; order irrelevant). Empty input yields an
  /// empty histogram.
  static EquiDepthHistogram Build(std::vector<double> values,
                                  int num_buckets);

  bool empty() const { return buckets_.empty(); }
  int num_buckets() const { return static_cast<int>(buckets_.size()); }

  /// Estimated fraction of rows with value < x (continuous interpolation
  /// within a bucket).
  double FractionBelow(double x) const;

  /// Estimated fraction of rows between `lo` and `hi`, each end included
  /// or not: FractionBelow(hi) - FractionBelow(lo), with FractionEqual
  /// added for an included `hi` and taken off for an excluded `lo`, the
  /// way the single-bound estimates count them. An infinite end is open.
  double FractionBetween(double lo, double hi, bool lo_inclusive = true,
                         bool hi_inclusive = true) const;

  /// Estimated fraction of rows equal to x (bucket depth spread over the
  /// bucket's distinct span).
  double FractionEqual(double x) const;

  double min() const { return min_; }
  double max() const { return max_; }

  std::string ToString() const;

 private:
  struct Bucket {
    double lower;   // inclusive
    double upper;   // inclusive
    int64_t count;  // rows in bucket
    int64_t distinct;  // approximate distinct values in bucket
  };

  std::vector<Bucket> buckets_;
  int64_t total_count_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace magicdb

#endif  // MAGICDB_STATS_HISTOGRAM_H_
