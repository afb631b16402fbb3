#ifndef MAGICDB_OPTIMIZER_OPTIMIZER_IMPL_H_
#define MAGICDB_OPTIMIZER_OPTIMIZER_IMPL_H_

// Internal implementation header for the optimizer; not part of the public
// API. Shared by optimizer_node.cc (per-node planning, facade) and
// optimizer_join.cc (join-block dynamic programming and Filter Join
// costing).

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/exec/filter_join_op.h"
#include "src/optimizer/optimizer.h"
#include "src/rewrite/magic_rewrite.h"
#include "src/stats/feedback_store.h"

namespace magicdb {
namespace optimizer_internal {

/// Builds a fresh operator tree for a planned (sub)plan. Thunks are
/// re-invocable: each call constructs new operators.
using BuildFn = std::function<StatusOr<OpPtr>()>;

/// Planning context threaded through recursive estimation: assumed
/// cardinalities for magic filter-set bindings referenced by
/// FilterSetRef/FilterSetProbe nodes.
struct PlanContext {
  std::map<std::string, double> filter_set_rows;
  std::map<std::string, double> filter_set_fpr;  // >0 marks Bloom bindings
};

/// Result of planning one logical node: estimates plus an operator builder.
struct Planned {
  Estimate est;
  /// Estimated distinct values per output column.
  std::vector<double> distinct;
  /// Output columns the stream is sorted by, ascending (System R
  /// "interesting order"); empty when unordered. Lets PlanSort elide the
  /// final sort when a sort-merge plan already delivers ORDER BY's order.
  std::vector<int> order_cols;
  BuildFn build;
  Schema schema;
  /// Set when the plan is a bare scan of a local base table (PlanRelScan),
  /// so a filter directly above can move into the scan.
  const CatalogEntry* scan_entry = nullptr;
  std::string scan_alias;
};

/// How one join-block input is accessed.
enum class AccessKind {
  kLocalTable,
  kRemoteTable,
  kView,
  kFunction,
  kSubplan,       // nested non-scan input (e.g. derived table)
  kFilterSetRef,  // magic filter set inside a rewritten view plan
};

/// Parametric costing cache for one virtual inner (§4.2): lazily computed
/// (selectivity, cost, rows) samples at equivalence-class centers. One per
/// (input, filter-key columns, rewrite style).
struct ParametricCache {
  std::vector<int> key_cols;  // the filter set's inner columns
  RewriteStyle style = RewriteStyle::kJoin;
  LogicalPtr rewritten;  // magic-rewritten inner plan
  LogicalPtr pinned_node;  // original inner (pins the pointer in the key)
  std::string binding_id;
  double inner_key_domain = 1.0;  // distinct key values in the inner
  struct Sample {
    double selectivity;
    double cost;
    double rows;
  };
  std::vector<Sample> samples;  // indexed by bucket; selectivity<0 = empty
};

/// One FROM-clause input of a join block with its access-path information.
struct InputInfo {
  int id = 0;
  LogicalPtr node;
  const CatalogEntry* entry = nullptr;  // when node is a RelScan
  AccessKind access = AccessKind::kLocalTable;
  int site = kLocalSite;
  std::string alias;
  Schema schema;     // input schema (block slice)
  int col_offset = 0;
  std::vector<ExprPtr> local_preds;  // in input column space

  /// Unrestricted access path (local predicates applied, shipped to the
  /// local site if remote).
  Planned planned;

  /// Base-table figures before local predicates (INL probes the raw
  /// table).
  double base_rows = 0.0;
  double local_selectivity = 1.0;
  std::vector<double> base_distinct;

  /// Whether a Filter Join may use this input as its inner, decided once
  /// per join graph: the access kind and options allow it, and the input is
  /// not already a magic-rewritten fragment (rewriting one again would
  /// never terminate).
  bool fj_eligible = false;
  /// The parametric caches of an eligible view or subplan input, one per
  /// (filter-key columns, rewrite style); owned by Optimizer::Impl and
  /// shared by every join graph built over the same node. The deque keeps
  /// references stable as caches are added.
  std::deque<ParametricCache>* parametric = nullptr;

  bool IsVirtual() const { return access != AccessKind::kLocalTable; }
};

/// Equi-join conjunct decomposed into block-space column pair.
struct EquiEdge {
  int conjunct_id;
  int left_input, right_input;
  int left_col, right_col;  // block columns
};

/// One conjunct of the join block's predicate.
struct Conjunct {
  ExprPtr expr;       // block column space
  uint32_t mask = 0;  // inputs referenced
  bool is_equi = false;
  int equi_edge = -1;  // index into edges when is_equi
};

/// The analyzed join block.
struct JoinGraph {
  std::vector<InputInfo> inputs;
  std::vector<Conjunct> conjuncts;
  std::vector<EquiEdge> edges;
  Schema block_schema;
  int num_block_cols = 0;
  /// Column-equivalence classes induced by the equi edges (transitive
  /// closure); col_class[c] is a representative column id. Implied edges
  /// (E=D and E=V imply D=V) are added to `edges`/`conjuncts` so orders
  /// that join transitively-equal inputs first are not cross products —
  /// the Figure-3 orders 3-4 SIPS depend on this.
  std::vector<int> col_class;
};

/// Join methods a step can use.
enum class StepMethod {
  kAccess,
  kNestedLoops,
  kIndexNL,
  kHash,
  kSortMerge,
  kFilterJoin,
  kFnProbe,
  kFnMemo,
};

const char* StepMethodName(StepMethod m);

/// The join methods every join-order search prices per (outer, inner)
/// pair, in the order their candidates are priced and inserted.
inline constexpr StepMethod kJoinMethods[] = {
    StepMethod::kNestedLoops, StepMethod::kHash,    StepMethod::kSortMerge,
    StepMethod::kIndexNL,     StepMethod::kFnProbe, StepMethod::kFnMemo,
    StepMethod::kFilterJoin,
};
inline constexpr size_t kNumJoinMethods = std::size(kJoinMethods);

/// Whether a search prices `method` at all: the Filter Join only where the
/// caller allows it (not under MagicMode::kNever or for the Starburst
/// baseline's plain order), function memoization only when enabled. Every
/// other method rejects itself in pricing.
inline bool MethodConsidered(StepMethod method, bool allow_filter_join,
                             const OptimizerOptions& options) {
  if (method == StepMethod::kFilterJoin) return allow_filter_join;
  if (method == StepMethod::kFnMemo) return options.enable_function_memo;
  return true;
}

struct JoinStep;
using JoinStepPtr = std::shared_ptr<const JoinStep>;

/// A node of the chosen (left-deep) join tree.
struct JoinStep {
  StepMethod method = StepMethod::kAccess;
  int input = -1;            // accessed input (kAccess) or the inner input
  JoinStepPtr outer;         // null for kAccess
  std::vector<std::pair<int, int>> keys;  // block cols (outer, inner)
  std::vector<ExprPtr> residuals;         // block-space conjuncts applied here
  std::vector<int> output_block_cols;     // output layout -> block columns

  /// Sort-merge: the outer arrives presorted on the keys.
  bool smj_outer_presorted = false;

  /// kAccess via an ordered index scan on these table columns (empty =
  /// plain sequential scan). Provides the corresponding interesting order.
  std::vector<int> ordered_scan_cols;

  // Filter Join details.
  FilterSetImpl fs_impl = FilterSetImpl::kExact;
  /// Positions (into `keys`) of the attributes contributing to the filter
  /// set; empty = all (the Limitation-3 default).
  std::vector<int> filter_key_positions;
  std::string binding_id;
  LogicalPtr rewritten_inner;  // magic-rewritten inner plan (views/subplans)
  FilterJoinCostBreakdown breakdown;

  double cost = 0.0;  // cumulative
  double rows = 0.0;
};

/// A DP table entry (also used by the exhaustive enumerator).
struct PartialPlan {
  uint32_t set = 0;
  double cost = 0.0;
  double rows = 0.0;
  int64_t width = 0;
  std::vector<double> distinct;  // block-space, valid for covered inputs
  std::vector<int> order_cols;   // sorted-by block columns (may be empty)
  JoinStepPtr step;
};

/// What joining one partial plan with one more input applies, whatever the
/// method: derived once per (outer, inner) pair and read by every method's
/// pricing. The vectors keep their capacity when a search reuses one
/// PairFacts for pair after pair.
struct PairFacts {
  int inner_id = -1;
  uint32_t new_set = 0;
  /// Equi keys (outer block col, inner col), one per inner column, sorted
  /// by inner column; `key_inner_cols` lists the inner columns alone.
  std::vector<std::pair<int, int>> keys;
  std::vector<int> key_inner_cols;
  std::vector<int> applied;    // conjunct ids applied here, in graph order
  std::vector<int> residuals;  // the non-equi ones among `applied`
  double equi_sel = 1.0;
  double resid_sel = 1.0;
  /// Block-space distinct counts: the outer's plus the inner's columns.
  std::vector<double> combined;
  double mid_rows = 0.0;  // after the equi keys
  double out_rows = 0.0;  // after the residuals too

  // Scratch space of the facts pass and the Filter Join pricing.
  std::vector<int> counted_classes;
  std::vector<int> fj_outer_cols, fj_inner_cols;
  std::vector<int> sub_outer_cols, sub_inner_cols;
  struct ProdSpec {
    double rows;
    double width;
    int prefix_len;  // -1 = full outer
  };
  std::vector<ProdSpec> prod_specs;
};

/// One method's price for a pair, computed before any JoinStep exists: the
/// cumulative cost, rows and order a candidate would carry, plus what
/// MaterializeStep needs to build its step.
struct PricedStep {
  StepMethod method = StepMethod::kAccess;
  double cost = 0.0;  // cumulative: outer cost + step cost
  double rows = 0.0;
  std::vector<int> order;  // the candidate's order_cols
  std::vector<std::pair<int, int>> keys;  // the step's keys
  bool smj_outer_presorted = false;
  // Filter Join.
  FilterSetImpl fs_impl = FilterSetImpl::kExact;
  FilterJoinCostBreakdown breakdown;
  /// The single filter-key position of a partial-key filter set; -1 when
  /// every key contributes.
  int filter_key_position = -1;
  /// A view or subplan inner's cache (its binding id and rewritten plan);
  /// otherwise the number of the binding id reserved in pricing.
  const ParametricCache* cache = nullptr;
  int64_t binding_number = -1;
};

using PricedSteps = std::array<PricedStep, kNumJoinMethods>;

/// Feedback identity of a join-block input: the key its observed build
/// cardinality is recorded — and, for overlay-eligible scan:/view: keys,
/// re-planned — under (see src/stats/feedback_store.h). Empty when the
/// input has no stable identity (table functions, filter-set references).
std::string InputFeedbackKey(const InputInfo& in);

}  // namespace optimizer_internal

/// Private implementation of Optimizer.
class Optimizer::Impl {
 public:
  using Planned = optimizer_internal::Planned;
  using PlanContext = optimizer_internal::PlanContext;
  using JoinGraph = optimizer_internal::JoinGraph;
  using InputInfo = optimizer_internal::InputInfo;
  using PartialPlan = optimizer_internal::PartialPlan;
  using JoinStep = optimizer_internal::JoinStep;
  using JoinStepPtr = optimizer_internal::JoinStepPtr;
  using StepMethod = optimizer_internal::StepMethod;
  using ParametricCache = optimizer_internal::ParametricCache;
  using PairFacts = optimizer_internal::PairFacts;
  using PricedStep = optimizer_internal::PricedStep;
  using PricedSteps = optimizer_internal::PricedSteps;

  Impl(const Catalog* catalog, OptimizerOptions* options,
       OptimizerStats* stats)
      : catalog_(catalog), options_(options), stats_(stats) {}

  // ----- implemented in optimizer_node.cc -----

  /// Recursively plans any logical node.
  StatusOr<Planned> PlanNode(const LogicalPtr& node, PlanContext* ctx);

  StatusOr<Planned> PlanRelScan(const LogicalPtr& node, PlanContext* ctx);
  StatusOr<Planned> PlanFilter(const LogicalPtr& node, PlanContext* ctx);
  StatusOr<Planned> PlanProject(const LogicalPtr& node, PlanContext* ctx);
  StatusOr<Planned> PlanAggregate(const LogicalPtr& node, PlanContext* ctx);
  StatusOr<Planned> PlanDistinct(const LogicalPtr& node, PlanContext* ctx);
  StatusOr<Planned> PlanSort(const LogicalPtr& node, PlanContext* ctx);
  StatusOr<Planned> PlanFilterSetRef(const LogicalPtr& node, PlanContext* ctx);
  StatusOr<Planned> PlanFilterSetProbe(const LogicalPtr& node,
                                       PlanContext* ctx);

  /// Selectivity of one predicate conjunct against a stream with the given
  /// per-column distinct estimates and (optionally) base-table stats.
  double ConjunctSelectivity(const ExprPtr& conjunct,
                             const std::vector<double>& distinct,
                             const TableStats* stats, double rows) const;

  /// Selectivity of a base table's local conjuncts: a column that several
  /// range conjuncts bound is estimated once, as one histogram interval
  /// (ExtractColumnRanges); every other conjunct keeps its
  /// ConjunctSelectivity, so a column with a single conjunct keeps its
  /// estimate bit for bit.
  double LocalSelectivity(const std::vector<ExprPtr>& preds,
                          const std::vector<double>& distinct,
                          const TableStats* stats, double rows) const;

  /// Fraction f of a base table's pages and rows a SeqScanOp filtering on
  /// `preds` reads: the minimum over bounded columns c of
  /// min(1, s_c + zone_span_c), where s_c is the range selectivity of the
  /// column's interval. 1 without bounds or stats.
  double ReadFraction(const std::vector<ExprPtr>& preds,
                      const std::vector<double>& distinct,
                      const TableStats* stats, double rows) const;

  /// Fresh binding id for a magic filter set.
  std::string NextBindingId(const std::string& hint);

  /// The binding id numbered `number` for a filter set on `hint`, as
  /// NextBindingId formats it.
  static std::string BindingId(const std::string& hint, int64_t number);

  // ----- implemented in optimizer_join.cc -----

  /// Plans a join block (NaryJoin node) via the System-R DP.
  StatusOr<Planned> PlanJoinBlock(const LogicalPtr& node, PlanContext* ctx);

  /// Analyzes the block: inputs, conjunct classification, access paths.
  StatusOr<JoinGraph> BuildJoinGraph(const NaryJoinNode& join,
                                     PlanContext* ctx);

  /// Derives the facts of joining `outer` with input `inner_id`.
  void DerivePairFacts(const JoinGraph& graph, const PartialPlan& outer,
                       int inner_id, PairFacts* facts) const;

  /// Prices one method for a pair without allocating a step. Returns false
  /// when the method cannot apply (or its Filter Join costing failed).
  bool PriceStep(const JoinGraph& graph, const PartialPlan& outer,
                 StepMethod method, PlanContext* ctx, PairFacts* facts,
                 PricedStep* out);

  /// PriceStep's Filter Join case: tries every filter-key subset, filter-set
  /// implementation and production set, keeps the cheapest in `out` and
  /// returns its step cost (negative when no Filter Join applies).
  StatusOr<double> PriceFilterJoin(const JoinGraph& graph,
                                   const PartialPlan& outer, PlanContext* ctx,
                                   PairFacts* facts, PricedStep* out);

  /// §4.2 parametric costing of a view or subplan inner restricted by a
  /// filter set of `n_f` keys on `key_cols` (false-positive rate `fpr`):
  /// FilterCost_Rk and |R_k'| read off the input's equivalence-class cache,
  /// which a miss fills by planning the rewritten inner.
  Status CostRestrictedView(const InputInfo& inner,
                            const std::vector<int>& key_cols,
                            FilterSetImpl impl, double n_f, double fpr,
                            PlanContext* ctx, const ParametricCache** cache,
                            double* filter_cost, double* restricted_rows);

  /// The per-pair loop every join-order search shares: derives the pair's
  /// facts into `*facts`, then prices each method of kJoinMethods that
  /// MethodConsidered admits, writing the applicable ones to `out` in
  /// method order. Returns how many it wrote.
  int PricePair(const JoinGraph& graph, const PartialPlan& outer,
                int inner_id, bool allow_filter_join, PlanContext* ctx,
                PairFacts* facts, PricedSteps* out);

  /// Builds the candidate (and its JoinStep) a priced step describes.
  PartialPlan MaterializeStep(const JoinGraph& graph, const PartialPlan& outer,
                              const PairFacts& facts,
                              const PricedStep& priced) const;

  /// Facts, pricing and materialization of one (pair, method) at once.
  /// InvalidArgument when the method is inapplicable.
  StatusOr<PartialPlan> CostJoinStep(const JoinGraph& graph,
                                     const PartialPlan& outer, int inner_id,
                                     StepMethod method, PlanContext* ctx);

  /// Seeds a single-input partial plan.
  StatusOr<PartialPlan> AccessPlan(const JoinGraph& graph, int input_id);

  /// Column sets of the ordered indexes available on a local-table input.
  static std::vector<std::vector<int>> OrderedIndexColumnSets(
      const InputInfo& input);

  /// Alternative seed scanning via the ordered index on `index_cols`;
  /// costs slightly more than a sequential scan but provides the order.
  StatusOr<PartialPlan> OrderedAccessPlan(const JoinGraph& graph,
                                          int input_id,
                                          const std::vector<int>& index_cols);

  /// Builds executable operators for a join-step tree.
  StatusOr<OpPtr> BuildStep(const JoinGraph& graph, const JoinStep& step,
                            PlanContext* ctx);

  /// Exhaustive left-deep enumeration for diagnostics (E2).
  StatusOr<std::vector<JoinOrderCost>> EnumerateOrders(const NaryJoinNode& join,
                                                       PlanContext* ctx);

  /// DP driver shared by PlanJoinBlock and the Starburst-style baseline.
  StatusOr<PartialPlan> RunDP(const JoinGraph& graph, PlanContext* ctx,
                              bool allow_filter_join);

  /// Starburst baseline: force Filter Joins onto every eligible virtual
  /// inner of `chain`'s join order, keeping the order fixed.
  StatusOr<PartialPlan> RecostWithForcedFilterJoins(const JoinGraph& graph,
                                                    const PartialPlan& chain,
                                                    PlanContext* ctx);

  const Catalog* catalog_;
  OptimizerOptions* options_;
  OptimizerStats* stats_;
  int64_t next_binding_ = 0;

  /// Observed-cardinality overrides for join-block inputs (nullable; not
  /// owned). See Optimizer::set_cardinality_overlay.
  const CardinalityOverlay* overlay_ = nullptr;

  /// Unrestricted view access plans, keyed by relation name (avoids
  /// repeated nested optimization of the same view).
  std::map<std::string, Planned> view_cache_;

  /// Parametric restricted-inner caches, keyed by the input's node and
  /// alias (see InputInfo::parametric).
  std::map<std::pair<const LogicalNode*, std::string>,
           std::deque<ParametricCache>>
      parametric_;

  /// Table-1 breakdowns of Filter Joins in plans actually chosen (cleared
  /// per Optimize call; suppressed during parametric trial planning).
  std::vector<FilterJoinCostBreakdown> chosen_filter_joins_;
  bool collect_breakdowns_ = true;

  /// Nesting depth of Filter Join costing (parametric trial planning may
  /// recurse into further join blocks); bounded as a safety backstop.
  int filter_join_depth_ = 0;
};

}  // namespace magicdb

#endif  // MAGICDB_OPTIMIZER_OPTIMIZER_IMPL_H_
