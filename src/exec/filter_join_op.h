#ifndef MAGICDB_EXEC_FILTER_JOIN_OP_H_
#define MAGICDB_EXEC_FILTER_JOIN_OP_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/hash_table.h"
#include "src/exec/operator.h"
#include "src/expr/expr.h"
#include "src/parallel/partitioned_build.h"

namespace magicdb {

/// Measured per-phase costs of one Filter Join execution, in the same
/// units and decomposition as the paper's Table 1. The operator snapshots
/// the context counters between its phases, so these are true measured
/// components (JoinCost_P is folded into `production` here because the
/// outer is drained and spooled in one pass).
struct FilterJoinMeasured {
  double production = 0.0;   // drain outer + spool (JoinCost_P + ProductionCost_P)
  double projection = 0.0;   // distinct projection of the keys (ProjCost_F)
  double avail_filter = 0.0; // build/ship the filter set (AvailCost_F)
  double filter_inner = 0.0; // restricted inner evaluation (FilterCost_Rk + AvailCost_Rk')
  double final_join = 0.0;   // probe phase (FinalJoinCost)

  double Total() const {
    return production + projection + avail_filter + filter_inner + final_join;
  }

  /// Adds another replica's measurements of the same Filter Join.
  FilterJoinMeasured& operator+=(const FilterJoinMeasured& o) {
    production += o.production;
    projection += o.projection;
    avail_filter += o.avail_filter;
    filter_inner += o.filter_inner;
    final_join += o.final_join;
    return *this;
  }
};

/// How a magic filter set is implemented (§3.3 Limitation 3): an exact
/// distinct relation, or a lossy fixed-size Bloom filter.
enum class FilterSetImpl { kExact, kBloom };

const char* FilterSetImplName(FilterSetImpl impl);

/// Restricts its child to tuples whose key columns appear in a bound filter
/// set. This is the restriction the magic rewrite pushes into a view (the
/// "join with Filter F" of Figure 2) when membership testing suffices; an
/// exact binding yields semi-join semantics, a Bloom binding a superset.
class FilterProbeOp final : public Operator {
 public:
  FilterProbeOp(OpPtr child, std::string binding_id,
                std::vector<int> key_indexes);

  Status Open(ExecContext* ctx) override;
  /// Pulls the child's batch into `out`, probes the filter set once per
  /// row, and keeps the survivors dense, like FilterOp.
  Status NextBatch(RowBatch* out, bool* eof) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

 private:
  OpPtr child_;
  std::string binding_id_;
  std::vector<int> key_indexes_;
  ExecContext* ctx_ = nullptr;
  std::shared_ptr<FilterSetBinding> binding_;
};

/// The Filter Join of Definition 2.1, executed as in the magic-sets
/// rewriting (Figure 2):
///
///   1. materialize the production set P (the outer input);
///   2. distinct-project P's join columns into the filter set F
///      (exact relation or Bloom filter);
///   3. bind F and evaluate the inner plan, which references F through
///      FilterSetScanOp / FilterProbeOp and therefore computes only the
///      restricted inner R_k';
///   4. hash-join P with R_k' (plus any residual predicate).
///
/// The inner plan is built by the optimizer's magic rewrite of the virtual
/// inner relation. `ship_filter_to_site` > 0 charges shipping F to a remote
/// inner site (distributed semi-join, §5.1).
class FilterJoinOp final : public Operator {
 public:
  /// `filter_key_positions` selects which of the join keys contribute to
  /// the filter set (§2.1/§3.3: with multiple join attributes any subset
  /// may be used — a lossy filter by omission). Empty = all keys. The
  /// final join always uses every key.
  FilterJoinOp(OpPtr outer, OpPtr inner, std::string binding_id,
               std::vector<int> outer_key_indexes,
               std::vector<int> inner_key_indexes, ExprPtr residual,
               FilterSetImpl impl, int ship_filter_to_site = 0,
               double bloom_bits_per_key = 10.0,
               std::vector<int> filter_key_positions = {});

  Status Open(ExecContext* ctx) override;
  /// Phase 4 (FinalJoinCost): probes the R_k' hash table with P, resuming
  /// mid-bucket across calls, and keeps the matches that satisfy the
  /// residual, refilling while none does. In parallel mode every row is
  /// rank-tagged with the driving position of its production row.
  Status NextBatch(RowBatch* out, bool* eof) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {outer_.get(), inner_.get()};
  }

  /// Number of distinct keys in the filter set of the last Open (observed
  /// SIPS statistics; used by experiments).
  int64_t last_filter_set_size() const { return last_filter_set_size_; }

  /// Measured Table-1 phase costs of the current/most recent execution.
  const FilterJoinMeasured& measured() const { return measured_; }

  /// Cardinality-feedback annotation: the optimizer's estimate of the
  /// restricted inner R_k'. Open() records the observed restricted-inner
  /// rows into the context ledger as an observation-only entry (the
  /// restricted count depends on this query's filter set, so it is never
  /// fed back into base-table planning and never triggers a restart).
  void AnnotateInnerCardinality(std::string key, double estimated_rows) {
    feedback_key_ = std::move(key);
    feedback_est_rows_ = estimated_rows;
  }

  /// Parallel execution: this replica contributes its morsel-driven slice
  /// of the production set, the filter set is built partitioned across
  /// workers, the restricted inner runs once on worker 0, and the final
  /// join probes in parallel. The outer's batches must carry the driving
  /// positions (rank tags) of a morsel-driven scan. Call before Open.
  void EnableParallel(std::shared_ptr<SharedFilterJoin> shared, int worker) {
    shared_fj_ = std::move(shared);
    worker_ = worker;
  }

 private:
  Status OpenParallel(ExecContext* ctx);
  /// Builds F over the distinct filter keys, charges AvailCost_F
  /// (materialize, and ship to a remote inner site) and binds it.
  void PublishFilterSet(ExecContext* ctx, std::vector<Tuple> keys);
  /// Phase 3: evaluates the restricted inner into `table` (the final-join
  /// hash table), records its cardinality, and charges the Grace pass when
  /// R_k' exceeds the memory budget.
  Status BuildInner(ExecContext* ctx, HashTable<Tuple>* table);
  /// Fills `out` with the matches of the production rows, before the
  /// residual, until it is full or P is exhausted.
  Status Probe(RowBatch* out, bool* eof);

  OpPtr outer_;
  OpPtr inner_;
  std::string binding_id_;
  std::vector<int> outer_keys_;
  std::vector<int> inner_keys_;
  BatchFilter residual_;
  FilterSetImpl impl_;
  int ship_filter_to_site_;
  double bloom_bits_per_key_;
  std::vector<int> filter_outer_keys_;  // subset used to build F

  ExecContext* ctx_ = nullptr;
  std::vector<Tuple> production_;  // materialized P
  HashTable<Tuple> build_;  // on R_k'
  size_t outer_pos_ = 0;
  // Walk over the R_k' entries under the current production row's hash;
  // kEnd when the next production row is due.
  uint32_t probe_entry_ = HashTable<Tuple>::kEnd;
  int64_t last_filter_set_size_ = 0;
  int64_t production_rows_per_page_ = 1;
  FilterJoinMeasured measured_;
  // Bytes charged to the query memory tracker for the spooled production
  // set and the restricted-inner hash table; released on Close.
  int64_t charged_bytes_ = 0;
  // Cardinality-feedback annotation (AnnotateInnerCardinality); key empty =
  // not annotated.
  std::string feedback_key_;
  double feedback_est_rows_ = 0.0;
  // Parallel-mode wiring; null / unused in sequential mode.
  std::shared_ptr<SharedFilterJoin> shared_fj_;
  int worker_ = 0;
  std::vector<int64_t> production_pos_;  // global pos per production_ row
};

/// Appends the measured per-phase costs of every FilterJoin in the executed
/// tree, outermost first (the order QueryResult::filter_join_measured
/// documents).
void CollectFilterJoinMeasured(const Operator& root,
                               std::vector<FilterJoinMeasured>* out);

}  // namespace magicdb

#endif  // MAGICDB_EXEC_FILTER_JOIN_OP_H_
