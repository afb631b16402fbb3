#ifndef MAGICDB_OPTIMIZER_OPTIMIZER_H_
#define MAGICDB_OPTIMIZER_OPTIMIZER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/statusor.h"
#include "src/exec/operator.h"
#include "src/optimizer/cost_model.h"
#include "src/optimizer/optimizer_options.h"
#include "src/plan/logical_plan.h"

namespace magicdb {

struct CardinalityOverlay;

/// Result of optimizing a logical plan: an executable operator tree plus
/// the optimizer's estimates and diagnostics.
struct OptimizedPlan {
  OpPtr root;
  double est_cost = 0.0;
  double est_rows = 0.0;
  /// Physical plan rendering (operator tree with estimates).
  std::string explain;
  /// Table-1 breakdowns of every Filter Join in the chosen plan,
  /// outermost first.
  std::vector<FilterJoinCostBreakdown> filter_joins;
};

/// One left-deep join order with its best costs; produced by
/// EnumerateJoinOrders for the Figure-3 experiment.
struct JoinOrderCost {
  std::vector<std::string> order;  // input aliases, outermost first
  double cost_without_filter_join = 0.0;
  double cost_with_filter_join = 0.0;
  std::string methods_without;  // method chain, e.g. "E *HJ* D *HJ* V"
  std::string methods_with;
};

/// System-R style dynamic-programming optimizer over left-deep join trees,
/// extended with the Filter Join method of the paper. Thread-compatible;
/// create one per query or reuse sequentially.
class Optimizer {
 public:
  explicit Optimizer(const Catalog* catalog, OptimizerOptions options = {});
  ~Optimizer();

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Optimizes a bound logical plan into an executable operator tree.
  StatusOr<OptimizedPlan> Optimize(const LogicalPtr& plan);

  /// Optimizes a plan that contains FilterSetRef/FilterSetProbe nodes
  /// (e.g. the output of MagicRewrite), assuming each named binding holds
  /// `assumed_rows[binding]` distinct keys. Execution must bind matching
  /// filter sets into the ExecContext before opening the returned plan.
  StatusOr<OptimizedPlan> OptimizeWithFilterSets(
      const LogicalPtr& plan,
      const std::map<std::string, double>& assumed_rows);

  /// Diagnostic (Figure 3 / E2): exhaustively costs every left-deep join
  /// order of the topmost join block in `plan`, with and without the Filter
  /// Join method. Requires the block to have at most 8 inputs.
  StatusOr<std::vector<JoinOrderCost>> EnumerateJoinOrders(
      const LogicalPtr& plan);

  const OptimizerOptions& options() const { return options_; }
  OptimizerOptions* mutable_options() { return &options_; }
  const OptimizerStats& stats() const { return stats_; }

  /// Installs a cardinality overlay: observed row counts (keyed by feedback
  /// scan key, see src/stats/feedback_store.h) that override the stats-based
  /// base estimates of matching join-block inputs. The overlay must outlive
  /// the Optimize call; nullptr clears it. Runtime re-optimization plans
  /// with the per-query ledger folded in here.
  void set_cardinality_overlay(const CardinalityOverlay* overlay);

  /// Private implementation; opaque outside the optimizer sources. Public
  /// only so the JoinOrderBackend interface (src/optimizer/
  /// join_order_backend.h) can reference it in signatures.
  class Impl;

 private:
  std::unique_ptr<Impl> impl_;
  OptimizerOptions options_;
  OptimizerStats stats_;
  const Catalog* catalog_;
};

}  // namespace magicdb

#endif  // MAGICDB_OPTIMIZER_OPTIMIZER_H_
