#ifndef MAGICDB_PARALLEL_PARTITIONED_AGGREGATE_H_
#define MAGICDB_PARALLEL_PARTITIONED_AGGREGATE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/hash_table.h"
#include "src/common/status.h"
#include "src/exec/agg_state.h"
#include "src/parallel/partitioned_build.h"
#include "src/types/tuple.h"

namespace magicdb {

class ExecContext;

/// One partial aggregation group staged into the partitioned parallel
/// merge, remembering where its first input row sat in the sequential
/// input order of the aggregation:
///
///   `pos` is the global driving-scan position of the group's first input
///   row; `sub` disambiguates several aggregation input rows produced from
///   the same driving position (a Filter Join can emit more than one probe
///   match per production row). The pair (pos, sub) is the row's rank in
///   the exact sequential input order, so the group whose (pos, sub) is
///   minimal after the merge is the group a single-threaded aggregation
///   would have created first — first-seen output order is reconstructed
///   by sorting on it.
struct StagedGroup {
  int64_t pos = 0;
  int64_t sub = 0;
  uint64_t hash = 0;  // group-key hash (partition router + bucket key)
  Tuple key;
  std::vector<AggState> states;
};

inline bool RankLess(const StagedGroup& a, const StagedGroup& b) {
  return a.pos != b.pos ? a.pos < b.pos : a.sub < b.sub;
}

/// Shared state of one two-phase parallel hash aggregation
/// (HashAggregateOp::EnableParallel). Protocol, executed identically by all
/// `num_workers` pipeline replicas:
///
///   1. each worker drains its (morsel-driven) slice of the aggregation
///      input into a private, morsel-local partial hash table — no shared
///      writes, no locks on the accumulate path;
///   2. Stage(): every partial group is routed by key hash into the
///      partition it belongs to (per-(worker, partition) buffers, so
///      staging is contention-free too);
///   3. MergeOwnPartition(): barrier; then each worker merges the one
///      partition it owns — partial groups are sorted by first-seen input
///      rank (pos, sub) and equal keys are combined in that order, so the
///      merged partition lists its groups in exactly the sequential
///      first-seen order. Partitions are disjoint key ranges, so the merge
///      itself runs fully parallel — there is no sequential merge
///      bottleneck. Worker 0 additionally settles the Grace-style
///      partitioning charge once from the global input byte total.
///
/// After MergeOwnPartition returns, each worker owns the merged groups of
/// its partition exclusively and emits them itself; the result sink's lane
/// merge on (pos, sub) interleaves the workers' lanes back into the
/// sequential first-seen order.
///
/// Counter discipline: accumulate work (key evals, agg-arg evals, hash
/// ops) is charged by the worker that consumed each input row — every row
/// is consumed exactly once across workers. The merge charges nothing
/// (sequential execution has no merge phase), and each merged group's
/// output charge is paid by its partition owner at emission — every group
/// is emitted exactly once. Merged counters therefore equal a
/// single-threaded aggregation's exactly.
class SharedAggregate {
 public:
  SharedAggregate(int num_workers, int64_t memory_budget_bytes);

  int num_workers() const { return num_workers_; }

  /// Phase 2: stage one partial group (thread-safe; workers stage into
  /// per-(worker, partition) buffers).
  void Stage(int worker, StagedGroup group);

  /// Accumulates this worker's share of the global aggregation input size
  /// (Grace partitioning-pass accounting). Call before MergeOwnPartition.
  void AddInputBytes(int64_t bytes);

  /// Phase 3: barrier with the other workers, then merge the partition
  /// `worker` owns into `*merged` — sorted by (pos, sub), equal keys
  /// combined in that order. Worker 0 charges `ctx` the partitioning pass
  /// if the global input exceeded the memory budget.
  Status MergeOwnPartition(int worker, ExecContext* ctx,
                           HashTable<StagedGroup>* merged);

  /// Releases every barrier waiter with `status` (worker failure path).
  void Abort(Status status);

 private:
  const int num_workers_;
  const int64_t memory_budget_bytes_;
  // Partial groups routed by key hash.
  PartitionStaging<StagedGroup> staging_;
  std::atomic<int64_t> total_input_bytes_{0};
  CancellableBarrier staged_barrier_;
};

}  // namespace magicdb

#endif  // MAGICDB_PARALLEL_PARTITIONED_AGGREGATE_H_
