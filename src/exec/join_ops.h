#ifndef MAGICDB_EXEC_JOIN_OPS_H_
#define MAGICDB_EXEC_JOIN_OPS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/hash_table.h"
#include "src/exec/operator.h"
#include "src/expr/expr.h"
#include "src/parallel/partitioned_build.h"
#include "src/spill/grace_hash_join.h"
#include "src/storage/index.h"
#include "src/storage/table.h"

namespace magicdb {

/// Tuple-at-a-time nested loops: for each outer tuple the inner child is
/// re-opened and rescanned. Works for arbitrary predicates (including
/// non-equijoins such as E.sal > V.avgsal). Output schema is
/// outer ++ inner.
class NestedLoopsJoinOp final : public RowOperator {
 public:
  /// `predicate` is over the concatenated schema; may be null (cross
  /// product).
  NestedLoopsJoinOp(OpPtr outer, OpPtr inner, ExprPtr predicate);

  Status Open(ExecContext* ctx) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {outer_.get(), inner_.get()};
  }

 private:
  Status NextRow(Tuple* out, bool* eof) override;

  OpPtr outer_;
  OpPtr inner_;
  RowReader outer_in_;
  RowReader inner_in_;
  Tuple current_outer_;
  bool have_outer_ = false;
  bool inner_open_ = false;
};

/// Index nested loops: probes a stored table's index once per outer row.
/// Models the classic repeated-probe strategy; with `remote_probe` set, each
/// probe additionally pays a message round trip (System R* "fetch matches").
class IndexNestedLoopsJoinOp final : public Operator {
 public:
  /// `index` must belong to `inner_table` and cover exactly the columns the
  /// probe key binds. `outer_key_indexes` selects the probe key from the
  /// outer row. `residual` (may be null) is evaluated over outer ++ inner.
  IndexNestedLoopsJoinOp(OpPtr outer, const Table* inner_table,
                         const HashIndex* index,
                         std::vector<int> outer_key_indexes, ExprPtr residual,
                         bool remote_probe = false,
                         const std::string& inner_alias = "");

  Status Open(ExecContext* ctx) override;
  /// Probes the index for each row of an outer batch sized to the output
  /// batch and copies every match into the output columns, the outer values
  /// from that batch and the inner values from the table, resuming
  /// mid-batch and mid-match-list across calls; then keeps the matches that
  /// satisfy the residual, refilling while none does. A row is probed only
  /// once the output has room for its first match, so a consumer that
  /// stops early causes no probe past the rows it took. Outer rank tags
  /// propagate to the matches.
  Status NextBatch(RowBatch* out, bool* eof) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {outer_.get()};
  }

 private:
  /// Fills `out` with the matches of the outer rows, before the residual,
  /// until it is full or the outer is exhausted.
  Status Probe(RowBatch* out, bool* eof);

  OpPtr outer_;
  const Table* inner_table_;
  const HashIndex* index_;
  std::vector<int> outer_key_indexes_;
  BatchFilter residual_;
  bool remote_probe_;
  ExecContext* ctx_ = nullptr;
  // The outer batch the probe resumes from and its next row; the index's
  // match list of the row being joined (null when the next row is due) and
  // the next match in it.
  std::unique_ptr<RowBatch> outer_batch_;
  bool outer_exhausted_ = true;
  bool outer_eof_ = false;
  int32_t outer_row_ = 0;
  const std::vector<int64_t>* matches_ = nullptr;
  size_t match_pos_ = 0;
  Tuple probe_key_;  // scratch, reused across probes
};

/// Classic in-memory hash join on equality keys. Build side is the inner
/// (right) child. `residual` (may be null) filters over outer ++ inner.
class HashJoinOp final : public Operator {
 public:
  HashJoinOp(OpPtr outer, OpPtr inner, std::vector<int> outer_key_indexes,
             std::vector<int> inner_key_indexes, ExprPtr residual);

  Status Open(ExecContext* ctx) override;
  /// Hashes a batch of outer keys, probes, and fills the output batch with
  /// matched rows (mid-bucket state is saved across calls), then keeps
  /// those that satisfy the residual, refilling while none does. Each
  /// probe batch is sized to the output batch it is pulled for; when the
  /// consumer's batch size changes mid-batch, the rows already pulled are
  /// still probed. Outer rank tags (parallel mode) propagate to matches.
  /// Out of core, the batch fills from the Grace join's merged output
  /// instead.
  Status NextBatch(RowBatch* out, bool* eof) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {outer_.get(), inner_.get()};
  }

  /// Parallel execution: route this replica's build rows into a shared
  /// partitioned build instead of a private hash table. The build batches
  /// must carry rank tags (a morsel-driven scan at the bottom of the inner
  /// chain): each staged row keeps its scan position, which the partition
  /// owner sorts by (determinism of bucket order). Call before Open; the
  /// parallel executor wires every replica identically.
  void EnableSharedBuild(std::shared_ptr<SharedHashBuild> shared,
                         int worker) {
    shared_build_ = std::move(shared);
    worker_ = worker;
  }

  /// Cardinality-feedback annotation from the optimizer: the build input's
  /// feedback key and estimated rows. When set, Open() records the observed
  /// build cardinality — the full, DoP-invariant input total (shared builds
  /// sum their slices across the gang) — into the context's ledger right
  /// after the build completes, and may return kReoptimizeRequested when
  /// `can_trigger` and the q-error crosses the context threshold.
  void AnnotateBuildCardinality(std::string key, double estimated_rows,
                                bool can_trigger) {
    feedback_key_ = std::move(key);
    feedback_est_rows_ = estimated_rows;
    feedback_can_trigger_ = can_trigger;
  }

 private:
  /// Grace path: drains the entire outer child into the probe partitions
  /// (tagging rows with their probe sequence) and runs the partition joins.
  Status DrainProbeToSpill();

  /// In-memory probe: fills `out` with the matches of the probe rows,
  /// before the residual, until it is full or the outer is exhausted.
  Status Probe(RowBatch* out, bool* eof);

  /// Per-row build step: NULL-key skip, failpoint, hash, memory charge,
  /// grace engagement on breach, and staging or private-table insert.
  /// `stage_pos` is the scan position tag for shared builds (ignored
  /// otherwise).
  Status AddBuildTuple(Tuple t, int64_t stage_pos, int64_t* build_bytes);

  OpPtr outer_;
  OpPtr inner_;
  std::vector<int> outer_keys_;
  std::vector<int> inner_keys_;
  BatchFilter residual_;
  ExecContext* ctx_ = nullptr;
  HashTable<Tuple> build_;
  Tuple current_outer_;
  // Walk over the build entries under the current outer row's hash, in the
  // private table or in the shared build's partition; kEnd when the next
  // outer row is due.
  const HashTable<Tuple>* probe_table_ = nullptr;
  uint32_t probe_entry_ = HashTable<Tuple>::kEnd;
  // Grace partitioning accounting: when the build side exceeds the memory
  // budget, both inputs pay the predicted number of write+read partitioning
  // passes (SpillPasses of the build size over the budget); 0 when it fits.
  int64_t spill_passes_ = 0;
  int64_t probe_bytes_pending_ = 0;
  // Bytes this replica charged to the query memory tracker for retained
  // build rows (local table or shared staging); released on Close.
  int64_t charged_bytes_ = 0;
  // Actual out-of-core execution, engaged when the build breaches the
  // query's hard memory limit and spilling is enabled (sequential mode
  // only; a governed parallel query degrades to the sequential spill path
  // at the service layer). Replaces the budget heuristic above: real page
  // I/O is charged by the spill files instead.
  std::unique_ptr<GraceHashJoin> grace_;
  bool probe_spilled_ = false;
  // Parallel (shared partitioned) build wiring; null in sequential mode.
  std::shared_ptr<SharedHashBuild> shared_build_;
  int worker_ = 0;
  // Cardinality-feedback annotation (AnnotateBuildCardinality); key empty =
  // not annotated.
  std::string feedback_key_;
  double feedback_est_rows_ = 0.0;
  bool feedback_can_trigger_ = false;
  // The owned outer batch the probe resumes from, and per-batch key-hash
  // scratch.
  std::unique_ptr<RowBatch> probe_batch_;
  bool probe_batch_exhausted_ = true;
  bool probe_eof_ = false;
  int32_t probe_row_ = 0;
  std::vector<uint64_t> probe_hashes_;
  std::vector<uint8_t> probe_has_key_;
};

/// Sort-merge join on equality keys. Both inputs are drained, sorted by
/// their keys, and merged; duplicate key groups produce the cross product.
/// With `outer_presorted` the outer is trusted to arrive sorted on its key
/// columns (an "interesting order" from a previous sort-merge join) and is
/// only drained, not re-sorted. The buffered rows are governed memory,
/// charged as they are drained and released at Close; with no spill path,
/// a breach fails the query with kResourceExhausted.
class SortMergeJoinOp final : public RowOperator {
 public:
  SortMergeJoinOp(OpPtr outer, OpPtr inner, std::vector<int> outer_key_indexes,
                  std::vector<int> inner_key_indexes, ExprPtr residual,
                  bool outer_presorted = false);

  Status Open(ExecContext* ctx) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {outer_.get(), inner_.get()};
  }

 private:
  Status NextRow(Tuple* out, bool* eof) override;

  Status DrainSorted(Operator* child, const std::vector<int>& keys,
                     ExecContext* ctx, std::vector<Tuple>* out,
                     bool presorted);
  void AdvanceGroups();

  OpPtr outer_;
  OpPtr inner_;
  std::vector<int> outer_keys_;
  std::vector<int> inner_keys_;
  std::vector<Tuple> left_;
  std::vector<Tuple> right_;
  // Bytes charged for the buffered rows of both inputs; released on Close.
  int64_t charged_bytes_ = 0;
  size_t li_ = 0, ri_ = 0;        // current group starts
  size_t lg_end_ = 0, rg_end_ = 0;  // current group ends (exclusive)
  size_t lpos_ = 0, rpos_ = 0;      // cursor within the group cross product
  bool in_group_ = false;
  bool outer_presorted_ = false;
};

}  // namespace magicdb

#endif  // MAGICDB_EXEC_JOIN_OPS_H_
