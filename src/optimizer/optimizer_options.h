#ifndef MAGICDB_OPTIMIZER_OPTIMIZER_OPTIONS_H_
#define MAGICDB_OPTIMIZER_OPTIMIZER_OPTIONS_H_

#include <cstdint>
#include <string>

namespace magicdb {

/// Controls which plan space the optimizer explores. The defaults implement
/// the paper's proposal: Filter Join considered as a join method under
/// Limitations 1-3, with cost-based selection. The other settings exist for
/// the ablation and baseline experiments (DESIGN.md E7, E11, E12).
struct OptimizerOptions {
  /// How magic sets / Filter Joins participate in planning.
  enum class MagicMode {
    /// The paper's contribution: Filter Join costed against every other
    /// join method inside the DP.
    kCostBased,
    /// Baseline: never consider Filter Joins (a classic System R).
    kNever,
    /// Baseline (Starburst-style heuristic): plan without Filter Joins,
    /// then force the most restrictive Filter Join onto every virtual
    /// inner in the resulting order, and keep the cheaper of the two
    /// complete plans.
    kAlwaysOnVirtual,
  };

  MagicMode magic_mode = MagicMode::kCostBased;

  /// Consider Filter Joins for plain stored local tables too (§5.3 "local
  /// semi-join"). Virtual relations are always eligible in kCostBased mode.
  bool filter_join_on_stored = true;

  /// Limitation 3: which filter-set implementations are considered.
  bool consider_exact_filter_sets = true;
  bool consider_bloom_filter_sets = true;
  double bloom_bits_per_key = 10.0;
  /// Additionally try single-attribute filter sets on multi-attribute
  /// joins (§2.1's partial SIPS / §3.3's lossy-by-omission variant). Adds
  /// a small constant factor per Filter Join costing.
  bool consider_partial_key_filter_sets = false;

  /// Limitation 2 ablation: when true, every prefix of the outer plan is
  /// tried as the production set (costing becomes O(N) more expensive but
  /// can find cheaper filter sets). When false (the paper's default), the
  /// production set is the full outer relation.
  bool explore_prefix_production_sets = false;

  /// §4.2 performance knob: number of equivalence classes used when
  /// estimating the cost/cardinality of a restricted virtual inner. More
  /// classes = more nested optimizer invocations but tighter estimates.
  int equivalence_classes = 4;

  /// Join methods considered.
  bool enable_nested_loops = true;
  bool enable_index_nested_loops = true;
  bool enable_hash_join = true;
  bool enable_sort_merge = true;
  /// Memoized table-function invocation ("function caching" in Figure 6).
  bool enable_function_memo = true;

  /// Keep sort-order-distinct candidates per DP subset (System R
  /// "interesting orders"). Off = one best plan per subset.
  bool interesting_orders = true;

  /// Memory the executor will have (affects sort costing).
  int64_t memory_budget_bytes = 4 * 1024 * 1024;

  /// Degree of parallelism the executor will use. Values > 1 divide the
  /// CPU terms of scan and hash build/probe costing by this factor
  /// (morsel-driven workers split that work); page and message terms are
  /// unchanged — parallelism does not reduce total I/O or communication.
  /// Plan choice may legitimately differ from dop=1 as CPU-bound
  /// alternatives become relatively cheaper.
  int degree_of_parallelism = 1;

  /// Join-order search strategy (see src/optimizer/join_order_backend.h).
  /// "dp" is the exhaustive System-R dynamic program; "greedy" is a
  /// cheapest-next-step heuristic over the same cost model. Unknown names
  /// fail planning with InvalidArgument.
  std::string join_order_backend = "dp";
};

/// Stable serialization of every field that influences plan choice. Plan
/// caches fold this into their key so that two sessions with different
/// knobs never share a cached plan. Keep in sync with the struct: a field
/// missing here would let a stale plan leak across option changes.
inline std::string OptimizerOptionsFingerprint(const OptimizerOptions& o) {
  std::string fp;
  fp.reserve(64);
  fp += std::to_string(static_cast<int>(o.magic_mode));
  fp += '|';
  fp += std::to_string(static_cast<int>(o.filter_join_on_stored));
  fp += std::to_string(static_cast<int>(o.consider_exact_filter_sets));
  fp += std::to_string(static_cast<int>(o.consider_bloom_filter_sets));
  fp += '|';
  fp += std::to_string(o.bloom_bits_per_key);
  fp += '|';
  fp += std::to_string(static_cast<int>(o.consider_partial_key_filter_sets));
  fp += std::to_string(static_cast<int>(o.explore_prefix_production_sets));
  fp += '|';
  fp += std::to_string(o.equivalence_classes);
  fp += '|';
  fp += std::to_string(static_cast<int>(o.enable_nested_loops));
  fp += std::to_string(static_cast<int>(o.enable_index_nested_loops));
  fp += std::to_string(static_cast<int>(o.enable_hash_join));
  fp += std::to_string(static_cast<int>(o.enable_sort_merge));
  fp += std::to_string(static_cast<int>(o.enable_function_memo));
  fp += std::to_string(static_cast<int>(o.interesting_orders));
  fp += '|';
  fp += std::to_string(o.memory_budget_bytes);
  fp += '|';
  fp += std::to_string(o.degree_of_parallelism);
  fp += '|';
  fp += o.join_order_backend;
  return fp;
}

/// Work counters the optimizer accumulates during one Optimize() call;
/// experiments E5/E7 read these to measure optimization effort.
struct OptimizerStats {
  int64_t join_steps_costed = 0;       // (subset, inner, method) combinations
  int64_t dp_entries = 0;              // DP table entries created
  int64_t nested_optimizations = 0;    // recursive Optimize calls for views
  int64_t eq_class_hits = 0;           // parametric cache hits
  int64_t eq_class_misses = 0;         // parametric cache fills
  int64_t filter_joins_costed = 0;
};

}  // namespace magicdb

#endif  // MAGICDB_OPTIMIZER_OPTIMIZER_OPTIONS_H_
