#include "src/stats/table_stats.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

namespace magicdb {

namespace {

double ZoneSpan(const std::vector<ZoneEntry>& zones) {
  double lo = 0.0;
  double hi = 0.0;
  bool any = false;
  for (const ZoneEntry& z : zones) {
    if (z.min.is_null()) continue;
    const double zmin = *z.min.AsNumeric();
    const double zmax = *z.max.AsNumeric();
    lo = any ? std::min(lo, zmin) : zmin;
    hi = any ? std::max(hi, zmax) : zmax;
    any = true;
  }
  const double width = hi - lo;
  if (!any || !std::isfinite(width)) return 1.0;
  double sum = 0.0;
  for (const ZoneEntry& z : zones) {
    if (z.has_nan) {
      sum += 1.0;
    } else if (!z.min.is_null() && width > 0.0) {
      sum += (*z.max.AsNumeric() - *z.min.AsNumeric()) / width;
    }
  }
  return sum / static_cast<double>(zones.size());
}

}  // namespace

TableStats TableStats::Analyze(const Table& table, int histogram_buckets) {
  TableStats stats;
  stats.num_rows = table.NumRows();
  stats.num_pages = table.NumPages();
  stats.tuple_width_bytes = table.schema().TupleWidthBytes();
  const int ncols = table.schema().num_columns();
  stats.columns.resize(ncols);

  for (int c = 0; c < ncols; ++c) {
    ColumnStats& cs = stats.columns[c];
    std::set<Value> distinct;
    std::vector<double> numeric_values;
    int64_t nulls = 0;
    bool all_numeric = true;
    for (int64_t r = 0; r < table.NumRows(); ++r) {
      const Value& v = table.row(r)[c];
      if (v.is_null()) {
        ++nulls;
        continue;
      }
      distinct.insert(v);
      auto num = v.AsNumeric();
      if (num.ok()) {
        numeric_values.push_back(*num);
      } else {
        all_numeric = false;
      }
    }
    cs.num_distinct = static_cast<int64_t>(distinct.size());
    cs.null_fraction =
        stats.num_rows > 0
            ? static_cast<double>(nulls) / static_cast<double>(stats.num_rows)
            : 0.0;
    cs.numeric = all_numeric && !numeric_values.empty();
    if (cs.numeric) {
      cs.histogram =
          EquiDepthHistogram::Build(numeric_values, histogram_buckets);
      cs.min = cs.histogram.min();
      cs.max = cs.histogram.max();
      if (!table.zones(c).empty()) cs.zone_span = ZoneSpan(table.zones(c));
    }
  }
  return stats;
}

std::string TableStats::ToString() const {
  std::ostringstream os;
  os << "rows=" << num_rows << " pages=" << num_pages << " cols=[";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) os << ", ";
    os << "d=" << columns[i].num_distinct;
  }
  os << "]";
  return os.str();
}

double YaoEstimate(int64_t n, int64_t d, int64_t k) {
  if (n <= 0 || d <= 0 || k <= 0) return 0.0;
  if (k >= n) return static_cast<double>(d);
  // Each distinct value appears n/d times. The probability that a given
  // value is entirely absent from a sample of k rows is approximately
  // ((1 - k/n))^(n/d); Yao's exact hypergeometric form is well-approximated
  // by this for the sizes the optimizer sees.
  const double miss =
      std::pow(1.0 - static_cast<double>(k) / static_cast<double>(n),
               static_cast<double>(n) / static_cast<double>(d));
  return static_cast<double>(d) * (1.0 - miss);
}

}  // namespace magicdb
