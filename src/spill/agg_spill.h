#ifndef MAGICDB_SPILL_AGG_SPILL_H_
#define MAGICDB_SPILL_AGG_SPILL_H_

/// Out-of-core hash aggregation: victim-partition eviction with partial
/// aggregate states, engaged by HashAggregateOp when a new group breaches
/// the query's memory limit and spilling is enabled.
///
/// Protocol (driven by HashAggregateOp, sequential mode):
///   - On breach, EvictNextPartition() picks the next unspilled hash
///     partition as the victim, writes its in-memory groups to the victim's
///     spill file as partial-state records, and releases their memory.
///     Rows that later route to a spilled partition (IsSpilled) bypass the
///     table: the operator folds them into a one-row partial state and
///     AddPartial()s it. Repeated breaches evict further partitions.
///   - At end of input the operator evicts every remaining partition, so
///     no group stays resident.
///   - BuildOutput() re-aggregates the spilled partitions one at a time:
///     partials of one partition are combined (AggState::CombineFrom, exact
///     for every supported aggregate) into a charged table, keeping the
///     minimum first-seen rank; a partition that still breaches is split by
///     the SpillPartitioner at depth+1. Each re-aggregated partition is
///     written out as one run sorted by first-seen rank.
///   - NextGroup() merges the output runs by first-seen rank (pos, sub) —
///     exactly the insertion order a fully in-memory aggregation emits, so
///     results are byte-identical.
///
/// Ranks are unique across groups (one input row creates at most one
/// group), so the merge has no ties and needs no further tiebreak.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/hash_table.h"
#include "src/common/statusor.h"
#include "src/parallel/partitioned_aggregate.h"
#include "src/spill/sorted_runs.h"
#include "src/spill/spill_manager.h"
#include "src/spill/spill_partition_set.h"

namespace magicdb {

class ExecContext;

class AggSpill {
 public:
  AggSpill(std::shared_ptr<SpillManager> mgr, size_t num_states);

  bool IsSpilled(uint64_t hash) const {
    return spilled_[partitions_.input(0).PartitionFor(hash)];
  }
  bool AllSpilled() const {
    return next_victim_ >= partitions_.input(0).fanout();
  }

  /// Bytes one group retains: its key tuple plus one AggState per
  /// aggregate. Shared with HashAggregateOp's charging so eviction releases
  /// exactly what insertion charged.
  int64_t GroupBytes(const StagedGroup& g) const {
    return TupleByteWidth(g.key) +
           static_cast<int64_t>(num_states_ * sizeof(AggState));
  }

  /// Evicts the next victim partition: moves its groups from `groups` to
  /// the partition file, releasing their bytes from the tracker and from
  /// `*charged_bytes`. The groups that stay keep their order.
  Status EvictNextPartition(HashTable<StagedGroup>* groups,
                            int64_t* charged_bytes, ExecContext* ctx);

  /// Appends one partial-state record for a row routed to a spilled
  /// partition.
  Status AddPartial(const StagedGroup& g, ExecContext* ctx);

  /// Seals the partition files and re-aggregates them; afterwards
  /// NextGroup streams the merged result. Call once every partition is
  /// spilled.
  Status BuildOutput(ExecContext* ctx);

  Status NextGroup(StagedGroup* out, bool* has_group);

 private:
  struct Codec {
    using Row = StagedGroup;
    void Encode(const StagedGroup& g, std::string* out) const;
    Status Decode(std::string_view record, StagedGroup* g) const;
    bool Less(const StagedGroup& a, const StagedGroup& b) const {
      return RankLess(a, b);
    }
  };

  Status Reaggregate(const SpillPartitioner::Leaf& leaf, bool* split,
                     ExecContext* ctx);

  const std::shared_ptr<SpillManager> mgr_;
  const size_t num_states_;
  SpillPartitioner partitions_;
  std::vector<bool> spilled_;
  int next_victim_ = 0;
  /// Write-buffer reservation held, acquired on the first eviction (after
  /// the victims' charge is released — see EvictNextPartition).
  bool reserved_ = false;

  RunMerge<Codec> merge_;
  std::string scratch_;
};

}  // namespace magicdb

#endif  // MAGICDB_SPILL_AGG_SPILL_H_
