#ifndef MAGICDB_OPTIMIZER_OPTIMIZER_IMPL_H_
#define MAGICDB_OPTIMIZER_OPTIMIZER_IMPL_H_

// Internal implementation header for the optimizer; not part of the public
// API. Shared by optimizer_node.cc (per-node planning, facade) and
// optimizer_join.cc (join-block dynamic programming and Filter Join
// costing).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/filter_join_op.h"
#include "src/optimizer/optimizer.h"
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

/// Feedback identity of a join-block input: the key its observed build
/// cardinality is recorded — and, for overlay-eligible scan:/view: keys,
/// re-planned — under (see src/stats/feedback_store.h). Empty when the
/// input has no stable identity (table functions, filter-set references).
std::string InputFeedbackKey(const InputInfo& in);

/// Parametric costing cache for one virtual inner (§4.2): lazily computed
/// (selectivity, cost, rows) samples at equivalence-class centers.
struct ParametricCache {
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

  // ----- implemented in optimizer_join.cc -----

  /// Plans a join block (NaryJoin node) via the System-R DP.
  StatusOr<Planned> PlanJoinBlock(const LogicalPtr& node, PlanContext* ctx);

  /// Analyzes the block: inputs, conjunct classification, access paths.
  StatusOr<JoinGraph> BuildJoinGraph(const NaryJoinNode& join,
                                     PlanContext* ctx);

  /// Costs joining `outer` with input `inner_id` using `method`. Returns
  /// false (no value) via Status when the method is inapplicable.
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

  /// Parametric restricted-inner caches, keyed by binding id.
  std::map<std::string, ParametricCache> parametric_;

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
