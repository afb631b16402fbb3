#ifndef MAGICDB_OPTIMIZER_JOIN_ORDER_BACKEND_H_
#define MAGICDB_OPTIMIZER_JOIN_ORDER_BACKEND_H_

// Pluggable join-order search. Every backend enumerates left-deep trees
// over the same JoinGraph and prices candidate steps through the same
// per-pair loop and cost model (Optimizer::Impl::PricePair), so a backend
// switch changes only how much of the plan space is explored — never how
// plans are costed or what they produce. Selected via OptimizerOptions::join_order_backend and
// folded into the options fingerprint, so plan caches never share plans
// across backends.

#include <string>
#include <vector>

#include "src/optimizer/optimizer_impl.h"

namespace magicdb {

class JoinOrderBackend {
 public:
  virtual ~JoinOrderBackend() = default;

  /// Registry key, e.g. "dp"; also surfaced in EXPLAIN output.
  virtual const char* name() const = 0;
  virtual const char* description() const = 0;

  /// Picks a complete join order for `graph`. `allow_filter_join` gates the
  /// Filter Join method exactly as in RunDP (MagicMode::kNever and the
  /// Starburst baseline plan without it). Returns InvalidArgument when no
  /// feasible complete plan exists (e.g. an unbound table function).
  virtual StatusOr<optimizer_internal::PartialPlan> Order(
      Optimizer::Impl* impl, const optimizer_internal::JoinGraph& graph,
      optimizer_internal::PlanContext* ctx, bool allow_filter_join) const = 0;
};

/// Looks up a registered backend by name; nullptr when unknown.
const JoinOrderBackend* FindJoinOrderBackend(const std::string& name);

/// Names of all registered backends, for diagnostics and option validation.
std::vector<std::string> JoinOrderBackendNames();

}  // namespace magicdb

#endif  // MAGICDB_OPTIMIZER_JOIN_ORDER_BACKEND_H_
