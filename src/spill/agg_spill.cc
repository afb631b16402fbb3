#include "src/spill/agg_spill.h"

#include "src/common/logging.h"
#include "src/exec/exec_context.h"
#include "src/spill/row_serde.h"

namespace magicdb {

AggSpill::AggSpill(std::shared_ptr<SpillManager> mgr, size_t num_states)
    : mgr_(std::move(mgr)), num_states_(num_states) {}

Status AggSpill::Start(ExecContext* /*ctx*/) {
  partitions_ = std::make_unique<SpillPartitionSet>(mgr_.get(), "agg", 0);
  spilled_.assign(partitions_->fanout(), false);
  // The write-buffer reservation is deferred to the first eviction: at
  // breach time the tracker is full, and the buffers can only fit in the
  // room the evicted groups give back.
  return Status::OK();
}

Status AggSpill::EvictNextPartition(HashTable<StagedGroup>* groups,
                                    int64_t* charged_bytes,
                                    ExecContext* ctx) {
  MAGICDB_CHECK(!AllSpilled());
  // Pick victims and release their accounting first. The first eviction
  // keeps taking partitions until the freed bytes cover the partition
  // write buffers themselves; later evictions take exactly one.
  const int64_t need =
      reserved_ ? 0
                : static_cast<int64_t>(partitions_->fanout()) *
                      mgr_->config().batch_bytes;
  int64_t released = 0;
  do {
    const int victim = next_victim_++;
    spilled_[victim] = true;
    for (const StagedGroup& g : groups->values()) {
      if (partitions_->PartitionFor(g.hash) == victim) {
        released += GroupBytes(g);
      }
    }
  } while (released <= need && !AllSpilled());
  ctx->ReleaseMemory(released);
  *charged_bytes -= released;
  if (!reserved_) {
    MAGICDB_RETURN_IF_ERROR(partitions_->Reserve(ctx));
    reserved_ = true;
  }
  for (StagedGroup& g : groups->TakeValues()) {
    const int p = partitions_->PartitionFor(g.hash);
    if (spilled_[p]) {
      scratch_.clear();
      spill::AppendStagedGroup(&scratch_, g);
      MAGICDB_RETURN_IF_ERROR(partitions_->AddTo(p, scratch_, ctx));
    } else {
      groups->Append(g.hash, std::move(g));
    }
  }
  return Status::OK();
}

Status AggSpill::AddPartial(const StagedGroup& g, ExecContext* ctx) {
  scratch_.clear();
  spill::AppendStagedGroup(&scratch_, g);
  return partitions_->Add(g.hash, scratch_, ctx);
}

Status AggSpill::FinishInput(ExecContext* ctx) {
  return partitions_->FinishWrites(ctx);
}

Status AggSpill::BuildOutput(std::vector<StagedGroup> resident,
                             ExecContext* ctx) {
  resident_ = std::move(resident);
  resident_pos_ = 0;
  std::vector<Task> stack;
  for (int p = 0; p < partitions_->fanout(); ++p) {
    if (partitions_->records(p) == 0) continue;
    Task t;
    t.file = partitions_->TakeFile(p);
    t.depth = 0;
    stack.push_back(std::move(t));
  }
  partitions_.reset();
  while (!stack.empty()) {
    MAGICDB_RETURN_IF_ERROR(ctx->CheckCancelled());
    Task task = std::move(stack.back());
    stack.pop_back();
    MAGICDB_RETURN_IF_ERROR(ProcessTask(std::move(task), &stack, ctx));
  }
  MAGICDB_RETURN_IF_ERROR(merge_reservation_.Acquire(
      ctx,
      static_cast<int64_t>(outputs_.size()) * mgr_->config().batch_bytes));
  for (RunCursor& run : outputs_) {
    MAGICDB_RETURN_IF_ERROR(run.file->Rewind());
    MAGICDB_RETURN_IF_ERROR(AdvanceRun(&run, ctx));
  }
  merge_ready_ = true;
  return Status::OK();
}

Status AggSpill::ProcessTask(Task task, std::vector<Task>* stack,
                             ExecContext* ctx) {
  // Transient buffers: the partition's read frame + the output run's write
  // buffer.
  SpillReservation task_reservation;
  MAGICDB_RETURN_IF_ERROR(
      task_reservation.Acquire(ctx, 2 * mgr_->config().batch_bytes));

  HashTable<StagedGroup> groups;
  int64_t charged = 0;
  MAGICDB_RETURN_IF_ERROR(task.file->Rewind());
  int64_t loop = 0;
  Status status;
  while (true) {
    if ((++loop & 1023) == 0) {
      status = ctx->CheckCancelled();
      if (!status.ok()) break;
    }
    std::string_view record;
    bool has = false;
    status = task.file->NextRecord(&record, &has, ctx);
    if (!status.ok() || !has) break;
    spill::RecordReader reader(record.data(), record.size());
    StagedGroup partial;
    status = reader.ReadStagedGroup(&partial);
    if (status.ok() && partial.states.size() != num_states_) {
      status = Status::Internal("aggregate spill record has " +
                                std::to_string(partial.states.size()) +
                                " states, expected " +
                                std::to_string(num_states_));
    }
    if (!status.ok()) break;
    StagedGroup* group = groups.Find(partial.hash, [&](const StagedGroup& g) {
      return CompareTuples(g.key, partial.key) == 0;
    });
    if (group == nullptr) {
      const int64_t group_bytes = GroupBytes(partial);
      status = ctx->ChargeMemory(group_bytes);
      if (!status.ok()) {
        ctx->ReleaseMemory(charged);
        if (status.code() != StatusCode::kResourceExhausted) return status;
        return Repartition(std::move(task), stack, ctx);
      }
      charged += group_bytes;
      groups.Append(partial.hash, std::move(partial));
      continue;
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
  }
  if (!status.ok()) {
    ctx->ReleaseMemory(charged);
    return status;
  }
  std::vector<StagedGroup> run = groups.TakeValues();
  SortByRank(&run);
  if (!run.empty()) {
    auto out = std::make_unique<SpillFile>(mgr_.get(), "agg-out");
    for (const StagedGroup& g : run) {
      scratch_.clear();
      spill::AppendStagedGroup(&scratch_, g);
      status = out->Append(scratch_, ctx);
      if (!status.ok()) break;
    }
    if (status.ok()) status = out->FinishWrite(ctx);
    if (status.ok()) {
      RunCursor run;
      run.file = std::move(out);
      outputs_.push_back(std::move(run));
    }
  }
  ctx->ReleaseMemory(charged);
  return status;
}

Status AggSpill::Repartition(Task task, std::vector<Task>* stack,
                             ExecContext* ctx) {
  const int next_depth = task.depth + 1;
  if (next_depth >= mgr_->config().max_recursion_depth) {
    return Status::ResourceExhausted(
        "query memory limit exceeded: aggregate spill partition still over "
        "the limit at recursion depth " +
        std::to_string(next_depth));
  }
  auto child =
      std::make_unique<SpillPartitionSet>(mgr_.get(), "agg", next_depth);
  MAGICDB_RETURN_IF_ERROR(child->Reserve(ctx));
  MAGICDB_RETURN_IF_ERROR(task.file->Rewind());
  int64_t loop = 0;
  while (true) {
    if ((++loop & 1023) == 0) {
      MAGICDB_RETURN_IF_ERROR(ctx->CheckCancelled());
    }
    std::string_view record;
    bool has = false;
    MAGICDB_RETURN_IF_ERROR(task.file->NextRecord(&record, &has, ctx));
    if (!has) break;
    spill::RecordReader reader(record.data(), record.size());
    StagedGroup partial;
    MAGICDB_RETURN_IF_ERROR(reader.ReadStagedGroup(&partial));
    MAGICDB_RETURN_IF_ERROR(child->Add(partial.hash, record, ctx));
  }
  MAGICDB_RETURN_IF_ERROR(child->FinishWrites(ctx));
  for (int p = 0; p < child->fanout(); ++p) {
    if (child->records(p) == 0) continue;
    Task t;
    t.file = child->TakeFile(p);
    t.depth = next_depth;
    stack->push_back(std::move(t));
  }
  return Status::OK();
}

Status AggSpill::AdvanceRun(RunCursor* run, ExecContext* ctx) {
  std::string_view record;
  bool has = false;
  MAGICDB_RETURN_IF_ERROR(run->file->NextRecord(&record, &has, ctx));
  if (!has) {
    run->has = false;
    return Status::OK();
  }
  spill::RecordReader reader(record.data(), record.size());
  MAGICDB_RETURN_IF_ERROR(reader.ReadStagedGroup(&run->group));
  run->has = true;
  return Status::OK();
}

Status AggSpill::NextGroup(StagedGroup* out, bool* has_group,
                           ExecContext* ctx) {
  MAGICDB_CHECK(merge_ready_);
  RunCursor* best = nullptr;
  for (RunCursor& run : outputs_) {
    if (run.has && (best == nullptr || RankLess(run.group, best->group))) {
      best = &run;
    }
  }
  const bool resident_left = resident_pos_ < resident_.size();
  if (resident_left &&
      (best == nullptr || RankLess(resident_[resident_pos_], best->group))) {
    *out = std::move(resident_[resident_pos_++]);
    *has_group = true;
    return Status::OK();
  }
  if (best == nullptr) {
    *has_group = false;
    merge_reservation_.Release();
    return Status::OK();
  }
  *out = std::move(best->group);
  *has_group = true;
  return AdvanceRun(best, ctx);
}

}  // namespace magicdb
