#ifndef MAGICDB_PERFBENCH_HARNESS_H_
#define MAGICDB_PERFBENCH_HARNESS_H_

// Measurement helpers of the benchmark, kept free of database code so the
// helper tests can exercise them directly: the percentile rule, result
// checksums, span recording with self time, and the metric catalogue with
// its output format.

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/types/tuple.h"

namespace magicdb::perfbench {

// ---------------------------------------------------------------- percentile

/// Samples beyond a reported percentile needed before it is reported.
inline constexpr int64_t kMinSamplesBeyond = 10;

/// A failed operation counts as missing any limit: it sorts after every
/// measured value and, when a percentile lands on it, reads as this.
inline constexpr double kFailedSample = std::numeric_limits<double>::infinity();

struct PercentileResult {
  /// False when fewer than kMinSamplesBeyond samples lie beyond the
  /// percentile; `value` is then meaningless.
  bool supported = false;
  double value = 0.0;
  /// Samples (values plus failures) strictly beyond the percentile's rank.
  int64_t beyond = 0;
  /// Samples the percentile was taken over (values plus failures).
  int64_t count = 0;
};

/// Nearest-rank percentile (`q` in (0, 1]) over `values` plus `failures`
/// failed operations, which sort last as kFailedSample.
PercentileResult Percentile(std::vector<double> values, int64_t failures,
                            double q);

// ------------------------------------------------------------------ checksum

/// Row count plus a 64-bit digest of a result. Ordered mode digests the
/// row sequence, so it detects reordering; multiset mode digests the bag of
/// rows, so two plans that emit the same rows in another order agree.
/// Values are digested by type and exact bit pattern.
class Checksum {
 public:
  enum class Mode { kOrdered, kMultiset };

  explicit Checksum(Mode mode) : mode_(mode) {}

  void Add(const Tuple& row);
  void AddAll(const std::vector<Tuple>& rows) {
    for (const Tuple& row : rows) Add(row);
  }

  int64_t rows() const { return rows_; }
  uint64_t digest() const { return digest_; }
  bool operator==(const Checksum& o) const {
    return mode_ == o.mode_ && rows_ == o.rows_ && digest_ == o.digest_;
  }
  bool operator!=(const Checksum& o) const { return !(*this == o); }

  /// Hash of one row, independent of its position.
  static uint64_t RowHash(const Tuple& row);

 private:
  Mode mode_;
  int64_t rows_ = 0;
  uint64_t digest_ = 0;
};

// --------------------------------------------------------------------- spans

/// One timed interval of the traced run. `parent` indexes the enclosing
/// span in the same recorder (-1 for a root); `query_id` ties every span of
/// one statement together.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  int64_t query_id = 0;

  double duration_us() const { return end_us - start_us; }
};

/// In-memory span store of one thread: spans are appended as they open,
/// closed in place, and read only after the run.
class SpanRecorder {
 public:
  /// Opens a span and returns its index; close it with End().
  int Begin(const std::string& name, int parent, int64_t query_id,
            double start_us);
  void End(int index, double end_us) { spans_[index].end_us = end_us; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// A span's duration minus the union of its direct children's intervals
/// (clipped to the span), so overlapping children are not subtracted twice.
double SelfTimeUs(const std::vector<Span>& spans, int index);

// ------------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run prints, in output order.
const std::vector<MetricDef>& EndToEndMetrics();

/// The per-layer metrics every traced run prints, in output order.
const std::vector<MetricDef>& PerLayerMetrics();

/// One reported metric value plus how many samples it summarizes.
struct MetricValue {
  double value = 0.0;
  int64_t samples = 0;
};

/// Human-readable lines, one per metric in `defs`: name, value, unit and
/// sample count. Fails (returns false with `missing` set) when `values`
/// lacks a metric of `defs`.
bool FormatMetricLines(const std::vector<MetricDef>& defs,
                       const std::map<std::string, MetricValue>& values,
                       std::string* out, std::string* missing);

/// The one-line JSON result object the run ends with: exactly the keys
/// correct, attempted, failed and metrics; each metric of `defs` as
/// {"value": v, "unit": u}, numbers printed with all their digits.
std::string FormatResultJson(bool correct, int64_t attempted, int64_t failed,
                             const std::vector<MetricDef>& defs,
                             const std::map<std::string, MetricValue>& values);

}  // namespace magicdb::perfbench

#endif  // MAGICDB_PERFBENCH_HARNESS_H_
