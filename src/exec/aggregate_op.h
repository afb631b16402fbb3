#ifndef MAGICDB_EXEC_AGGREGATE_OP_H_
#define MAGICDB_EXEC_AGGREGATE_OP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash_table.h"
#include "src/exec/agg_state.h"
#include "src/exec/operator.h"
#include "src/expr/expr.h"
#include "src/parallel/partitioned_aggregate.h"
#include "src/plan/logical_plan.h"
#include "src/spill/agg_spill.h"

namespace magicdb {

struct OperandKeySource;

/// Hash aggregation: groups by the group-by expressions and computes the
/// aggregate specs per group. Output layout: group columns, then aggregate
/// results, matching AggregateNode.
///
/// With no group-by columns, exactly one output row is produced (SQL scalar
/// aggregate semantics, COUNT(*)=0 on empty input).
///
/// Two execution modes:
///
///   Sequential (default): Open() drains the child into one hash table;
///   NextBatch() emits groups in first-seen order.
///
///   Parallel (EnableParallel): this instance is one of `dop` pipeline
///   replicas. Open() accumulates a morsel-local partial table over this
///   worker's input slice, stages the partial groups into the
///   SharedAggregate by key-hash partition, then merges the one partition
///   this worker owns (two-phase aggregation; see SharedAggregate).
///   NextBatch() emits the merged partition's groups — sorted by first-seen
///   input rank (pos, sub) and tagged with it, so the result sink's lane
///   merge can interleave the workers' lanes back into exactly the
///   sequential first-seen output order.
class HashAggregateOp final : public Operator {
 public:
  HashAggregateOp(OpPtr child, std::vector<ExprPtr> group_by,
                  std::vector<AggSpec> aggs, Schema schema);

  Status Open(ExecContext* ctx) override;
  /// Finalized groups stream out column-wise, from the group table or, out
  /// of core, from the AggSpill merge (rank tags attached in parallel mode).
  Status NextBatch(RowBatch* out, bool* eof) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

  /// Switches this replica into two-phase parallel mode. `worker` is this
  /// replica's index in `shared`. Input rows are ranked by the driving
  /// position their batches carry; several input rows may share one (a
  /// Filter Join re-emits its production set), and the per-position
  /// emission index `sub` disambiguates them.
  void EnableParallel(std::shared_ptr<SharedAggregate> shared, int worker) {
    shared_ = std::move(shared);
    worker_ = worker;
  }

  /// Cardinality-feedback annotation: the optimizer's group-count estimate.
  /// Sequential Open() records the observed group count into the context
  /// ledger as an observation-only entry (parallel partials are
  /// worker-local, so the parallel path does not record).
  void AnnotateGroupCardinality(std::string key, double estimated_groups) {
    feedback_key_ = std::move(key);
    feedback_est_groups_ = estimated_groups;
  }

 private:
  /// Folds one already-evaluated argument value into an aggregate state.
  /// NULLs are skipped per SQL semantics.
  static Status FoldValue(const AggSpec& spec, const Value& v, AggState* st);
  /// Folds row `r` of the per-spec resolved argument operands (zero-copy
  /// column views where the argument is a plain column ref) into `group`.
  /// Expression-evaluation counters are charged batch-wise by the caller.
  Status FoldPreEvaluated(const std::vector<BatchOperand>& agg_ops, int32_t r,
                          StagedGroup* group);
  /// Routes one input row's group key to its destination — a spill partial,
  /// an existing resident group, or a freshly charged one (with the
  /// breach->eviction retry loop) — and applies `fold` to it. The key Tuple
  /// is materialized at most once, and not at all when the group already
  /// exists; templated on the fold callable, so the per-input-row call
  /// carries no std::function construction (defined in aggregate_op.cc, its
  /// only caller).
  template <typename Fold>
  Status DispatchRow(ExecContext* ctx, const OperandKeySource& key_src,
                     uint64_t h, int64_t input_pos, int64_t input_sub,
                     bool parallel, const Fold& fold);
  StatusOr<Value> Finalize(const AggSpec& spec, const AggState& state) const;

  OpPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggSpec> aggs_;
  ExecContext* ctx_ = nullptr;
  // The group table, keyed by group-key hash. Sequential: first-seen order.
  // Parallel: this worker's merged partition, sorted by first-seen input
  // rank.
  HashTable<StagedGroup> groups_;
  size_t next_group_ = 0;
  bool aggregated_ = false;
  // Bytes charged to the query memory tracker for retained groups (keys +
  // aggregate states, whether local or staged into the shared partitioned
  // aggregate); released on Close.
  int64_t charged_bytes_ = 0;
  // Out-of-core hash aggregation, engaged when a new group breaches the
  // query's hard memory limit and spilling is enabled (sequential mode
  // only). Victim partitions of the group table are evicted as partial
  // states and re-aggregated one at a time at end of input.
  std::unique_ptr<AggSpill> agg_spill_;
  // Cardinality-feedback annotation (AnnotateGroupCardinality); key empty =
  // not annotated.
  std::string feedback_key_;
  double feedback_est_groups_ = 0.0;

  // Parallel mode (EnableParallel); null/unused when sequential.
  std::shared_ptr<SharedAggregate> shared_;
  int worker_ = 0;
};

}  // namespace magicdb

#endif  // MAGICDB_EXEC_AGGREGATE_OP_H_
