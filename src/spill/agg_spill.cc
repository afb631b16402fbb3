#include "src/spill/agg_spill.h"

#include "src/common/logging.h"
#include "src/exec/exec_context.h"
#include "src/spill/row_serde.h"

namespace magicdb {

void AggSpill::Codec::Encode(const StagedGroup& g, std::string* out) const {
  spill::AppendStagedGroup(out, g);
}

Status AggSpill::Codec::Decode(std::string_view record, StagedGroup* g) const {
  spill::RecordReader reader(record.data(), record.size());
  return reader.ReadStagedGroup(g);
}

AggSpill::AggSpill(std::shared_ptr<SpillManager> mgr, size_t num_states)
    : mgr_(std::move(mgr)),
      num_states_(num_states),
      partitions_(mgr_.get(), {"agg"}),
      spilled_(partitions_.input(0).fanout(), false) {}

Status AggSpill::EvictNextPartition(HashTable<StagedGroup>* groups,
                                    int64_t* charged_bytes,
                                    ExecContext* ctx) {
  MAGICDB_CHECK(!AllSpilled());
  SpillPartitionSet& set = partitions_.input(0);
  // Pick victims and release their accounting first. The first eviction
  // keeps taking partitions until the freed bytes cover the partition
  // write buffers themselves; later evictions take exactly one.
  const int64_t need =
      reserved_ ? 0
                : static_cast<int64_t>(set.fanout()) *
                      mgr_->config().batch_bytes;
  int64_t released = 0;
  do {
    const int victim = next_victim_++;
    spilled_[victim] = true;
    for (const StagedGroup& g : groups->values()) {
      if (set.PartitionFor(g.hash) == victim) released += GroupBytes(g);
    }
  } while (released <= need && !AllSpilled());
  ctx->ReleaseMemory(released);
  *charged_bytes -= released;
  if (!reserved_) {
    MAGICDB_RETURN_IF_ERROR(set.Reserve(ctx));
    reserved_ = true;
  }
  for (StagedGroup& g : groups->TakeValues()) {
    if (IsSpilled(g.hash)) {
      MAGICDB_RETURN_IF_ERROR(AddPartial(g, ctx));
    } else {
      groups->Append(g.hash, std::move(g));
    }
  }
  return Status::OK();
}

Status AggSpill::AddPartial(const StagedGroup& g, ExecContext* ctx) {
  scratch_.clear();
  spill::AppendStagedGroup(&scratch_, g);
  return partitions_.Add(0, g.hash, scratch_, ctx);
}

Status AggSpill::BuildOutput(ExecContext* ctx) {
  MAGICDB_RETURN_IF_ERROR(partitions_.Run(
      ctx, [&](const SpillPartitioner::Leaf& leaf, bool* split) {
        return Reaggregate(leaf, split, ctx);
      }));
  return merge_.Open(ctx);
}

Status AggSpill::Reaggregate(const SpillPartitioner::Leaf& leaf, bool* split,
                             ExecContext* ctx) {
  // Transient buffers: the partition's read frame + the output run's write
  // buffer.
  SpillReservation frames;
  MAGICDB_RETURN_IF_ERROR(frames.Acquire(ctx, 2 * mgr_->config().batch_bytes));

  HashTable<StagedGroup> groups;
  int64_t charged = 0;
  const Codec codec;
  Status status = ForEachRecord(
      leaf.files[0].get(), ctx, [&](std::string_view record) -> Status {
        StagedGroup partial;
        MAGICDB_RETURN_IF_ERROR(codec.Decode(record, &partial));
        if (partial.states.size() != num_states_) {
          return Status::Internal("aggregate spill record has " +
                                  std::to_string(partial.states.size()) +
                                  " states, expected " +
                                  std::to_string(num_states_));
        }
        StagedGroup* group =
            groups.Find(partial.hash, [&](const StagedGroup& g) {
              return CompareTuples(g.key, partial.key) == 0;
            });
        if (group == nullptr) {
          const int64_t group_bytes = GroupBytes(partial);
          Status charge = ctx->ChargeMemory(group_bytes);
          if (!charge.ok()) {
            *split = charge.code() == StatusCode::kResourceExhausted;
            return charge;
          }
          charged += group_bytes;
          groups.Append(partial.hash, std::move(partial));
          return Status::OK();
        }
        // Combine the partial into the existing group, keeping the minimum
        // first-seen rank — re-creations after eviction carry later ranks.
        if (RankLess(partial, *group)) {
          group->pos = partial.pos;
          group->sub = partial.sub;
        }
        for (size_t a = 0; a < group->states.size(); ++a) {
          group->states[a].CombineFrom(partial.states[a]);
        }
        return Status::OK();
      });
  if (status.ok()) {
    std::vector<StagedGroup> run = groups.TakeValues();
    SortByRank(&run);
    RunWriter<Codec> out(mgr_.get(), "agg-out");
    for (const StagedGroup& g : run) {
      status = out.Append(g, ctx);
      if (!status.ok()) break;
    }
    if (status.ok()) {
      StatusOr<std::unique_ptr<SpillFile>> file = out.FinishWrite(ctx);
      status = file.status();
      if (status.ok()) merge_.Add(std::move(*file));
    }
  }
  ctx->ReleaseMemory(charged);
  return *split ? Status::OK() : status;
}

Status AggSpill::NextGroup(StagedGroup* out, bool* has_group) {
  return merge_.Next(out, has_group);
}

}  // namespace magicdb
