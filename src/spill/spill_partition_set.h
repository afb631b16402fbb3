#ifndef MAGICDB_SPILL_SPILL_PARTITION_SET_H_
#define MAGICDB_SPILL_SPILL_PARTITION_SET_H_

/// One level of recursive hash partitioning: `fanout` lazily-created spill
/// files, rows routed by SpillPartitionOf(hash, depth, fanout). Consumers
/// write records through a SpillPartitioner, which seals the sets and
/// recurses with child sets at depth+1 when a partition still exceeds the
/// memory limit.
///
/// Memory: Reserve() charges fanout × batch_bytes of write-buffer memory to
/// the query's tracker up front, so partitioning cannot silently consume
/// ungoverned memory; the reservation is released by FinishWrites (when the
/// write buffers are gone) or when the set is destroyed.
///
/// Failpoint: `spill.partition.open` fires when a partition's file is first
/// created.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/statusor.h"
#include "src/spill/spill_file.h"
#include "src/spill/spill_manager.h"

namespace magicdb {

class ExecContext;

class SpillPartitionSet {
 public:
  SpillPartitionSet(SpillManager* mgr, std::string label, int depth);

  int fanout() const { return static_cast<int>(files_.size()); }

  /// Charges the write-buffer budget for this set. Call once before AddTo.
  Status Reserve(ExecContext* ctx);

  int PartitionFor(uint64_t hash) const {
    return static_cast<int>(
        SpillPartitionOf(hash, depth_, static_cast<int>(files_.size())));
  }

  /// Appends one serialized record to a specific partition.
  Status AddTo(int partition, std::string_view record, ExecContext* ctx);

  /// Flushes and seals every partition file. Idempotent.
  Status FinishWrites(ExecContext* ctx);

  int64_t records(int partition) const;

  /// Transfers ownership of a sealed partition file; null when the
  /// partition never received a record. Only after FinishWrites.
  std::unique_ptr<SpillFile> TakeFile(int partition);

 private:
  SpillManager* const mgr_;
  const std::string label_;
  const int depth_;
  std::vector<std::unique_ptr<SpillFile>> files_;
  SpillReservation reservation_;
  bool finished_ = false;
};

/// Recursive hash partitioning of aligned inputs: the Grace join's build
/// and then its probe, or the aggregate's single input. Every record starts
/// with its 64-bit key hash, which routes it at every depth.
///
/// Liveness: a partition is live only if input 0 has records in it. Records
/// of later inputs that route to a dead partition are dropped (a probe row
/// with no build partition cannot join), and a leaf exists only where every
/// input has records.
///
/// Run() hands each leaf to the caller, last pushed first. The caller loads
/// it in memory; when that load breaches the limit it releases what it
/// charged and asks for a split, which re-partitions every file of the leaf
/// at depth + 1, input 0 first. A split at max_recursion_depth fails with
/// kResourceExhausted.
class SpillPartitioner {
 public:
  /// One partition's files, index-aligned with the inputs.
  struct Leaf {
    std::vector<std::unique_ptr<SpillFile>> files;
    int depth = 0;
  };
  /// Processes one leaf. Sets `*split` (and returns OK) when the leaf does
  /// not fit; any error fails the query.
  using LeafFn = std::function<Status(const Leaf& leaf, bool* split)>;

  /// One depth-0 partition set per input, labeled for its spill files.
  SpillPartitioner(SpillManager* mgr, std::vector<std::string> labels)
      : SpillPartitioner(mgr, std::move(labels), 0) {}

  SpillPartitionSet& input(int i) { return *inputs_[i]; }
  const SpillPartitionSet& input(int i) const { return *inputs_[i]; }

  /// Routes one record of input `i` by its hash; see Liveness.
  Status Add(int i, uint64_t hash, std::string_view record, ExecContext* ctx);

  /// Seals every input, then runs `leaf` over the leaves until none is
  /// left. A split runs after `leaf` returns, so the leaf's own
  /// reservations are released before the split reserves.
  Status Run(ExecContext* ctx, const LeafFn& leaf);

 private:
  SpillPartitioner(SpillManager* mgr, std::vector<std::string> labels,
                   int depth);

  /// Seals every input and pushes one leaf per partition every input has
  /// records in.
  Status PushLeaves(ExecContext* ctx, std::vector<Leaf>* stack);
  Status Split(const Leaf& leaf, ExecContext* ctx, std::vector<Leaf>* stack);

  SpillManager* const mgr_;
  const std::vector<std::string> labels_;
  const int depth_;
  std::vector<std::unique_ptr<SpillPartitionSet>> inputs_;
};

}  // namespace magicdb

#endif  // MAGICDB_SPILL_SPILL_PARTITION_SET_H_
