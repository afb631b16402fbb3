#ifndef MAGICDB_PARALLEL_PARTITIONED_BUILD_H_
#define MAGICDB_PARALLEL_PARTITIONED_BUILD_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/hash_table.h"
#include "src/common/status.h"
#include "src/types/tuple.h"

namespace magicdb {

class ExecContext;

/// Reusable barrier that can be aborted: when any participant fails, it
/// calls Abort and every current and future ArriveAndWait returns the
/// failure status instead of deadlocking the pipeline.
class CancellableBarrier {
 public:
  explicit CancellableBarrier(int parties);

  /// Blocks until all parties have arrived (or the barrier is aborted).
  Status ArriveAndWait();

  /// Releases all waiters with `status`; subsequent arrivals fail fast.
  void Abort(Status status);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const int parties_;
  int arrived_ = 0;
  int64_t generation_ = 0;
  bool aborted_ = false;
  Status abort_status_;
};

/// One row staged into a partitioned build, remembering where it came from
/// in the sequential scan order of the build input. Partition owners sort
/// by `pos` before inserting, so every hash bucket ends up in exactly the
/// order a single-threaded build would have produced — which keeps probe
/// output (and therefore query results) byte-identical at any DoP.
struct StagedRow {
  int64_t pos = 0;
  uint64_t hash = 0;
  Tuple row;
};

inline bool RankLess(const StagedRow& a, const StagedRow& b) {
  return a.pos < b.pos;
}

/// Sorts staged rows (StagedRow or StagedGroup) by RankLess, back into the
/// sequential input order.
template <typename Row>
void SortByRank(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const Row& a, const Row& b) { return RankLess(a, b); });
}

/// The staging area of a partitioned parallel build. Each worker stages a
/// row into the partition its `hash` selects, in a buffer of its own, so
/// staging takes no lock. After a barrier, the owner of a partition gathers
/// it from every worker and sorts it back into the sequential input order
/// (SortByRank).
template <typename Row>
class PartitionStaging {
 public:
  explicit PartitionStaging(int num_workers)
      : buffers_(num_workers, std::vector<std::vector<Row>>(num_workers)) {}

  void Stage(int worker, Row row) {
    buffers_[worker][row.hash % buffers_.size()].push_back(std::move(row));
  }

  /// Moves `partition`'s rows out of every worker's buffer, in rank order.
  std::vector<Row> Gather(int partition) {
    std::vector<Row> rows;
    for (std::vector<std::vector<Row>>& per_worker : buffers_) {
      std::vector<Row>& src = per_worker[partition];
      rows.insert(rows.end(), std::make_move_iterator(src.begin()),
                  std::make_move_iterator(src.end()));
      src = std::vector<Row>();
    }
    SortByRank(&rows);
    return rows;
  }

 private:
  std::vector<std::vector<std::vector<Row>>> buffers_;  // [worker][partition]
};

/// Shared state of one partitioned parallel hash-join build
/// (HashJoinOp::EnableSharedBuild). Protocol, executed identically by all
/// `num_workers` pipeline replicas:
///
///   1. each worker drains its (morsel-driven) slice of the build input and
///      Stage()s every row into the partition its key hash selects;
///   2. FinishStaging(): barrier; then each worker builds the hash table of
///      the one partition it owns (sorting staged rows by scan position);
///      worker 0 charges the Grace-spill pass once if the global build
///      exceeded the memory budget; second barrier;
///   3. probes from any worker route by hash to the owning partition's
///      table (read-only after the second barrier).
///
/// Counter discipline: build work (hash ops, input scan) is charged by the
/// worker that staged each row — every row is staged exactly once across
/// workers, so merged counters equal a single-threaded build's.
class SharedHashBuild {
 public:
  SharedHashBuild(int num_workers, int64_t memory_budget_bytes);

  int num_workers() const { return num_workers_; }

  /// Phase 1: stage one build row (thread-safe; workers stage into
  /// per-(worker, partition) buffers, so no contention on a shared bucket).
  void Stage(int worker, int64_t pos, uint64_t hash, Tuple row);

  /// Phase 2: barrier with the other workers, build own partition, settle
  /// global spill accounting (worker 0 charges `ctx`), barrier again.
  Status FinishStaging(int worker, ExecContext* ctx);

  /// Phase 3: the partition table that holds a probe key hash's build
  /// rows. Only valid after FinishStaging returned OK.
  const HashTable<Tuple>& Partition(uint64_t hash) const {
    return partitions_[hash % num_workers_];
  }

  /// Grace partitioning passes charged for the global build; 0 when it
  /// fit the budget. Valid after FinishStaging.
  int64_t spill_passes() const {
    return spill_passes_.load(std::memory_order_relaxed);
  }

  /// Cardinality feedback: each worker contributes its drained build-input
  /// slice *before* the FinishStaging barrier; afterwards every worker
  /// reads the same gang-wide total, so trigger decisions are identical
  /// across the gang and DoP-invariant.
  void AddBuildRows(int64_t rows) {
    total_build_rows_.fetch_add(rows, std::memory_order_relaxed);
  }
  int64_t total_build_rows() const {
    return total_build_rows_.load(std::memory_order_relaxed);
  }

  /// Exact global Grace probe-side accounting: charges `ctx` one page
  /// write+read for every page boundary the cumulative probe byte stream
  /// crosses, independent of how rows interleave across workers. Matches
  /// the single-threaded floor(total_bytes / page) total exactly.
  void ChargeProbeBytes(ExecContext* ctx, int64_t bytes);

  void Abort(Status status);

 private:
  const int num_workers_;
  const int64_t memory_budget_bytes_;
  PartitionStaging<StagedRow> staging_;
  // partitions_[partition]: built by the owning worker.
  std::vector<HashTable<Tuple>> partitions_;
  std::atomic<int64_t> total_build_bytes_{0};
  std::atomic<int64_t> total_build_rows_{0};
  std::atomic<int64_t> probe_bytes_{0};
  // Predicted Grace partitioning passes; probe-side page charges are
  // multiplied by it (set once behind the staging barrier, read by every
  // prober).
  std::atomic<int64_t> spill_passes_{0};
  CancellableBarrier staged_barrier_;
  CancellableBarrier built_barrier_;
};

/// Shared state of one parallel Filter Join (FilterJoinOp::EnableParallel).
/// The production set is partitioned across workers by the morsel-driven
/// outer; the filter-set build is partitioned by key hash ("each worker
/// builds a partition"); the restricted inner runs once on the coordinator
/// (worker 0); the final-join probe is parallel again. See
/// FilterJoinOp::Open for the full phase walkthrough.
class SharedFilterJoin {
 public:
  explicit SharedFilterJoin(int num_workers);

  int num_workers() const { return num_workers_; }

  /// Phase 1: stage one candidate filter key with the global position of
  /// the production row it came from.
  void StageKey(int worker, int64_t pos, uint64_t hash, Tuple key);

  void AddProductionRows(int64_t rows, int64_t bytes);
  int64_t total_production_rows() const {
    return total_production_rows_.load(std::memory_order_relaxed);
  }

  /// Barrier after production + staging.
  Status StagingDone();

  /// Phase 2: dedup the partition `worker` owns, keeping the first
  /// occurrence (minimum position) of each distinct key. Barrier after.
  Status DedupPartition(int worker);

  /// Coordinator only, after DedupPartition: all surviving keys across
  /// partitions, sorted by first-occurrence position — exactly the
  /// insertion order a single-threaded distinct projection produces.
  std::vector<Tuple> TakeOrderedKeys();

  /// The final-join hash table over the restricted inner R_k'. The shared
  /// object owns it so that no worker's Close can free it while another
  /// worker is still probing. The coordinator fills it (single writer),
  /// then everyone meets at InnerBarrier; afterwards it is read-only.
  HashTable<Tuple>* mutable_inner_build() { return &inner_build_; }
  const HashTable<Tuple>& inner_build() const { return inner_build_; }

  /// Coordinator arrives after filling the inner build; workers arrive to
  /// wait for it.
  Status InnerBarrier();

  void Abort(Status status);

 private:
  const int num_workers_;
  // Candidate keys routed by hash.
  PartitionStaging<StagedRow> staging_;
  // deduped_[partition]: surviving (first-occurrence) keys.
  std::vector<std::vector<StagedRow>> deduped_;
  std::atomic<int64_t> total_production_rows_{0};
  std::atomic<int64_t> total_production_bytes_{0};
  HashTable<Tuple> inner_build_;
  CancellableBarrier staged_barrier_;
  CancellableBarrier deduped_barrier_;
  CancellableBarrier inner_barrier_;
};

}  // namespace magicdb

#endif  // MAGICDB_PARALLEL_PARTITIONED_BUILD_H_
