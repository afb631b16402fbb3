#include "src/stats/histogram.h"

#include <algorithm>
#include <sstream>

namespace magicdb {

EquiDepthHistogram EquiDepthHistogram::Build(std::vector<double> values,
                                             int num_buckets) {
  EquiDepthHistogram h;
  if (values.empty() || num_buckets <= 0) return h;
  std::sort(values.begin(), values.end());
  h.total_count_ = static_cast<int64_t>(values.size());
  h.min_ = values.front();
  h.max_ = values.back();

  const int64_t n = h.total_count_;
  const int64_t target_depth =
      std::max<int64_t>(1, (n + num_buckets - 1) / num_buckets);
  int64_t i = 0;
  while (i < n) {
    Bucket b;
    b.lower = values[i];
    int64_t end = std::min<int64_t>(n, i + target_depth);
    // Extend the bucket so equal values never straddle a boundary.
    while (end < n && values[end] == values[end - 1]) ++end;
    b.upper = values[end - 1];
    b.count = end - i;
    b.distinct = 1;
    for (int64_t j = i + 1; j < end; ++j) {
      if (values[j] != values[j - 1]) ++b.distinct;
    }
    h.buckets_.push_back(b);
    i = end;
  }
  return h;
}

double EquiDepthHistogram::FractionBelow(double x) const {
  if (empty()) return 0.0;
  if (x <= min_) return 0.0;
  if (x > max_) return 1.0;
  int64_t below = 0;
  for (const Bucket& b : buckets_) {
    if (x > b.upper) {
      below += b.count;
      continue;
    }
    if (x > b.lower) {
      // Linear interpolation within the bucket.
      const double span = b.upper - b.lower;
      const double frac = span > 0 ? (x - b.lower) / span : 0.0;
      below += static_cast<int64_t>(frac * static_cast<double>(b.count));
    }
    break;
  }
  return static_cast<double>(below) / static_cast<double>(total_count_);
}

double EquiDepthHistogram::FractionBetween(double lo, double hi,
                                           bool lo_inclusive,
                                           bool hi_inclusive) const {
  if (empty() || hi < lo) return 0.0;
  const double below_hi =
      FractionBelow(hi) + (hi_inclusive ? FractionEqual(hi) : 0.0);
  const double below_lo =
      FractionBelow(lo) + (lo_inclusive ? 0.0 : FractionEqual(lo));
  return std::clamp(below_hi - below_lo, 0.0, 1.0);
}

double EquiDepthHistogram::FractionEqual(double x) const {
  if (empty() || x < min_ || x > max_) return 0.0;
  for (const Bucket& b : buckets_) {
    if (x >= b.lower && x <= b.upper) {
      const double per_value =
          static_cast<double>(b.count) /
          static_cast<double>(std::max<int64_t>(1, b.distinct));
      return per_value / static_cast<double>(total_count_);
    }
  }
  return 0.0;
}

std::string EquiDepthHistogram::ToString() const {
  std::ostringstream os;
  os << "hist[" << buckets_.size() << " buckets, n=" << total_count_ << "]";
  return os.str();
}

}  // namespace magicdb
