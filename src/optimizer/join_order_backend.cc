#include "src/optimizer/join_order_backend.h"

#include <cstdint>
#include <utility>

namespace magicdb {

using optimizer_internal::AccessKind;
using optimizer_internal::JoinGraph;
using optimizer_internal::PairFacts;
using optimizer_internal::PartialPlan;
using optimizer_internal::PlanContext;
using optimizer_internal::PricedSteps;

namespace {

Status Infeasible() {
  return Status::InvalidArgument(
      "no feasible join plan (is a table function missing argument "
      "bindings?)");
}

/// The exhaustive System-R dynamic program (the default).
class DpBackend final : public JoinOrderBackend {
 public:
  const char* name() const override { return "dp"; }
  const char* description() const override {
    return "exhaustive System-R dynamic programming over left-deep trees";
  }
  StatusOr<PartialPlan> Order(Optimizer::Impl* impl, const JoinGraph& graph,
                              PlanContext* ctx,
                              bool allow_filter_join) const override {
    return impl->RunDP(graph, ctx, allow_filter_join);
  }
};

/// Greedy cheapest-next-step heuristic (IKKBZ-flavored): every feasible
/// input seeds a chain that is extended one join at a time by whichever
/// (inner, method) pair yields the cheapest cumulative plan; the cheapest
/// complete chain across all seeds wins. O(n^3 * methods) step costings
/// instead of the DP's exponential table — can miss orders the DP finds,
/// but shares its cost model exactly.
class GreedyBackend final : public JoinOrderBackend {
 public:
  const char* name() const override { return "greedy"; }
  const char* description() const override {
    return "greedy cheapest-next-step heuristic over left-deep trees";
  }
  StatusOr<PartialPlan> Order(Optimizer::Impl* impl, const JoinGraph& graph,
                              PlanContext* ctx,
                              bool allow_filter_join) const override {
    const int n = static_cast<int>(graph.inputs.size());
    if (n == 1) return impl->AccessPlan(graph, 0);

    bool have_best = false;
    PartialPlan best;
    PairFacts facts;
    PricedSteps priced;
    for (int seed = 0; seed < n; ++seed) {
      if (graph.inputs[seed].access == AccessKind::kFunction) continue;
      auto seeded = impl->AccessPlan(graph, seed);
      if (!seeded.ok()) continue;
      PartialPlan cur = std::move(*seeded);
      uint32_t used = 1u << seed;
      bool feasible = true;
      for (int k = 1; k < n; ++k) {
        bool have_step = false;
        PartialPlan step_best;
        int step_input = -1;
        for (int j = 0; j < n; ++j) {
          if ((used & (1u << j)) != 0) continue;
          const int count = impl->PricePair(graph, cur, j, allow_filter_join,
                                            ctx, &facts, &priced);
          for (int m = 0; m < count; ++m) {
            if (!have_step || priced[m].cost < step_best.cost) {
              step_best = impl->MaterializeStep(graph, cur, facts, priced[m]);
              step_input = j;
              have_step = true;
            }
          }
        }
        if (!have_step) {
          feasible = false;
          break;
        }
        cur = std::move(step_best);
        used |= 1u << step_input;
      }
      if (!feasible) continue;
      if (!have_best || cur.cost < best.cost) {
        best = std::move(cur);
        have_best = true;
      }
    }
    if (!have_best) return Infeasible();
    return best;
  }
};

const DpBackend kDp;
const GreedyBackend kGreedy;
const JoinOrderBackend* const kBackends[] = {&kDp, &kGreedy};

}  // namespace

const JoinOrderBackend* FindJoinOrderBackend(const std::string& name) {
  for (const JoinOrderBackend* b : kBackends) {
    if (name == b->name()) return b;
  }
  return nullptr;
}

std::vector<std::string> JoinOrderBackendNames() {
  std::vector<std::string> names;
  for (const JoinOrderBackend* b : kBackends) names.emplace_back(b->name());
  return names;
}

}  // namespace magicdb
