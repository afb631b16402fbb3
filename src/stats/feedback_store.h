#ifndef MAGICDB_STATS_FEEDBACK_STORE_H_
#define MAGICDB_STATS_FEEDBACK_STORE_H_

// Runtime cardinality feedback: observations taken at pipeline breakers,
// the overlay that feeds them back into planning, and the cross-query
// store that persists them. The per-query ledger living on ExecContext is
// in src/exec/cardinality_feedback.h; this header holds the planner-facing
// half so the optimizer need not depend on executor headers.

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/expr/expr.h"

namespace magicdb {

/// One runtime cardinality measurement from a pipeline breaker.
struct CardinalityObservation {
  /// Identity of the measured stream. Base join-block inputs use
  /// FeedbackScanKey ("scan:Emp|pred&pred", "view:DepAvgSal|..."); other
  /// breakers use site-local keys ("fj:<binding>", "agg:...").
  std::string key;
  /// Breaker kind: "hash_join_build", "filter_join_build",
  /// "aggregate_build". Doubles as the re-optimization metric reason label.
  std::string site;
  double estimated = 0.0;
  double actual = 0.0;
  /// True when `actual` is an exact, DoP-invariant total for the stream
  /// named by `key` — the bar for feeding the number back into planning.
  bool exact = false;

  /// Multiplicative estimation error, >= 1 (1 = perfect).
  double QError() const {
    const double e = std::max(1.0, estimated);
    const double a = std::max(1.0, actual);
    return std::max(a / e, e / a);
  }
};

/// Observed row counts that override stats-derived base-input estimates
/// during planning (Optimizer::set_cardinality_overlay).
struct CardinalityOverlay {
  std::unordered_map<std::string, double> rows;

  const double* Find(const std::string& key) const {
    auto it = rows.find(key);
    return it == rows.end() ? nullptr : &it->second;
  }
  bool empty() const { return rows.empty(); }
};

/// Stable key for a base join-block input: `prefix` ("scan" or "view"),
/// relation name, and the sorted rendered local predicates — so the same
/// table under different filters keeps distinct feedback entries.
std::string FeedbackScanKey(const std::string& prefix, const std::string& name,
                            const std::vector<ExprPtr>& local_preds);

/// True for keys whose observations the planner can consume (scan:/view:).
bool IsOverlayKey(const std::string& key);

/// Cross-query persistence of exact base-input observations. Thread-safe;
/// one per Database (and per QueryService via its Database). `version`
/// increments on every effective fold so plan caches can invalidate.
class FeedbackStore {
 public:
  /// Folds the exact scan/view observations of one finished query into the
  /// store (last write wins). Returns the number of entries changed.
  int Fold(const std::vector<CardinalityObservation>& observations);

  CardinalityOverlay Snapshot() const;
  int64_t version() const;
  size_t size() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  CardinalityOverlay overlay_;
  int64_t version_ = 0;
};

}  // namespace magicdb

#endif  // MAGICDB_STATS_FEEDBACK_STORE_H_
