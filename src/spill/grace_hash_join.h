#ifndef MAGICDB_SPILL_GRACE_HASH_JOIN_H_
#define MAGICDB_SPILL_GRACE_HASH_JOIN_H_

/// Out-of-core hash join: recursive Grace hash partitioning of build and
/// probe, engaged by HashJoinOp when the build side breaches the query's
/// memory limit and spilling is enabled.
///
/// Protocol (driven by HashJoinOp):
///   1. BeginBuildSpill() — the moment the in-memory build table breaches,
///      its rows are dumped in arrival order into a fanout-way partition
///      set and their memory is released; every later build row goes
///      straight to its partition (AddBuildRow).
///   2. FinishBuild() seals the build partitions.
///   3. The probe input is drained through AddProbeRow(): rows are tagged
///      with their probe sequence number and routed by the same hash to the
///      matching partition (the partitioner drops rows whose build
///      partition is empty — they cannot join).
///   4. FinishProbe() joins the partition pairs one at a time: load one
///      build partition into a charged in-memory table, stream its probe
///      partition, and write the matches that satisfy the residual (kept a
///      batch at a time) as (seq, joined row) to an output run. A
///      build partition that itself breaches the limit is split by the
///      SpillPartitioner at depth+1 (both files), up to the configured
///      recursion bound.
///   5. NextOutput() merges the output runs by probe sequence number.
///
/// Determinism: rows of one hash are dumped and reloaded in their
/// original arrival order, so each rebuilt bucket matches the in-memory
/// bucket exactly; each probe row lives in exactly one leaf partition, so
/// its matches land contiguously in one run; merging runs by the strictly
/// increasing probe sequence reproduces the in-memory output order
/// byte-for-byte.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/hash_table.h"
#include "src/common/statusor.h"
#include "src/exec/operator.h"
#include "src/spill/sorted_runs.h"
#include "src/spill/spill_manager.h"
#include "src/spill/spill_partition_set.h"
#include "src/types/tuple.h"

namespace magicdb {

class GraceHashJoin {
 public:
  GraceHashJoin(std::shared_ptr<SpillManager> mgr, std::vector<int> outer_keys,
                std::vector<int> inner_keys, ExprPtr residual);

  /// Dumps the breached in-memory build table to partitions, releasing its
  /// `*charged_bytes` from the tracker and clearing the table.
  Status BeginBuildSpill(ExecContext* ctx, HashTable<Tuple>* table,
                         int64_t* charged_bytes);

  Status AddBuildRow(uint64_t hash, const Tuple& row, ExecContext* ctx);
  Status FinishBuild(ExecContext* ctx);

  Status AddProbeRow(uint64_t hash, const Tuple& row, ExecContext* ctx);

  /// Seals the probe partitions and joins every partition pair; afterwards
  /// NextOutput streams the merged result.
  Status FinishProbe(ExecContext* ctx);

  Status NextOutput(Tuple* out, bool* eof);

 private:
  /// One joined row of an output run, tagged with its probe sequence.
  struct OutRow {
    int64_t seq = 0;
    Tuple row;
  };
  struct OutCodec {
    using Row = OutRow;
    void Encode(const OutRow& r, std::string* out) const;
    Status Decode(std::string_view record, OutRow* r) const;
    bool Less(const OutRow& a, const OutRow& b) const { return a.seq < b.seq; }
  };

  Status JoinLeaf(const SpillPartitioner::Leaf& leaf, bool* split,
                  ExecContext* ctx);

  const std::shared_ptr<SpillManager> mgr_;
  const std::vector<int> outer_keys_;
  const std::vector<int> inner_keys_;
  BatchFilter residual_;

  SpillPartitioner partitions_;  // input 0: build, input 1: probe
  int64_t probe_seq_ = 0;
  RunMerge<OutCodec> merge_;
  std::string scratch_;
};

}  // namespace magicdb

#endif  // MAGICDB_SPILL_GRACE_HASH_JOIN_H_
