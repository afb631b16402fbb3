#include "src/spill/grace_hash_join.h"

#include "src/common/logging.h"
#include "src/exec/exec_context.h"
#include "src/expr/expr.h"
#include "src/spill/row_serde.h"

namespace magicdb {

GraceHashJoin::GraceHashJoin(std::shared_ptr<SpillManager> mgr,
                             std::vector<int> outer_keys,
                             std::vector<int> inner_keys, const Expr* residual)
    : mgr_(std::move(mgr)),
      outer_keys_(std::move(outer_keys)),
      inner_keys_(std::move(inner_keys)),
      residual_(residual) {}

Status GraceHashJoin::BeginBuildSpill(ExecContext* ctx,
                                      HashTable<Tuple>* table,
                                      int64_t* charged_bytes) {
  // The tracker is full at the instant the build breaches, so hand the
  // table's charge back before reserving the partition write buffers: the
  // rows are leaving memory as the dump below proceeds, and the buffers
  // can only fit in the room they give back.
  ctx->ReleaseMemory(*charged_bytes);
  *charged_bytes = 0;
  build_set_ =
      std::make_unique<SpillPartitionSet>(mgr_.get(), "join-build", 0);
  MAGICDB_RETURN_IF_ERROR(build_set_->Reserve(ctx));
  // Arrival-order dump: rows of one hash stay in arrival order, which is
  // what makes each rebuilt bucket identical to its in-memory counterpart.
  for (size_t e = 0; e < table->size(); ++e) {
    MAGICDB_RETURN_IF_ERROR(AddBuildRow(table->hash(e), (*table)[e], ctx));
  }
  table->Clear();
  return Status::OK();
}

Status GraceHashJoin::AddBuildRow(uint64_t hash, const Tuple& row,
                                  ExecContext* ctx) {
  scratch_.clear();
  spill::AppendU64(&scratch_, hash);
  spill::AppendTuple(&scratch_, row);
  return build_set_->Add(hash, scratch_, ctx);
}

Status GraceHashJoin::FinishBuild(ExecContext* ctx) {
  return build_set_->FinishWrites(ctx);
}

Status GraceHashJoin::AddProbeRow(uint64_t hash, const Tuple& row,
                                  ExecContext* ctx) {
  if (probe_set_ == nullptr) {
    probe_set_ =
        std::make_unique<SpillPartitionSet>(mgr_.get(), "join-probe", 0);
    MAGICDB_RETURN_IF_ERROR(probe_set_->Reserve(ctx));
  }
  const int64_t seq = probe_seq_++;
  // A probe row whose build partition is empty cannot match anything.
  if (build_set_->records(probe_set_->PartitionFor(hash)) == 0) {
    return Status::OK();
  }
  scratch_.clear();
  spill::AppendU64(&scratch_, hash);
  spill::AppendI64(&scratch_, seq);
  spill::AppendTuple(&scratch_, row);
  return probe_set_->Add(hash, scratch_, ctx);
}

Status GraceHashJoin::FinishProbe(ExecContext* ctx) {
  std::vector<Task> stack;
  if (probe_set_ != nullptr) {
    MAGICDB_RETURN_IF_ERROR(probe_set_->FinishWrites(ctx));
    for (int p = 0; p < build_set_->fanout(); ++p) {
      if (build_set_->records(p) == 0 || probe_set_->records(p) == 0) continue;
      Task t;
      t.build = build_set_->TakeFile(p);
      t.probe = probe_set_->TakeFile(p);
      t.depth = 0;
      stack.push_back(std::move(t));
    }
  }
  while (!stack.empty()) {
    MAGICDB_RETURN_IF_ERROR(ctx->CheckCancelled());
    Task task = std::move(stack.back());
    stack.pop_back();
    MAGICDB_RETURN_IF_ERROR(ProcessTask(std::move(task), &stack, ctx));
  }
  build_set_.reset();
  probe_set_.reset();
  // Merge setup: one read frame per output run stays resident.
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

Status GraceHashJoin::ProcessTask(Task task, std::vector<Task>* stack,
                                  ExecContext* ctx) {
  // Transient buffers of this partition pair: build + probe read frames and
  // the output run's write buffer.
  SpillReservation task_reservation;
  MAGICDB_RETURN_IF_ERROR(
      task_reservation.Acquire(ctx, 3 * mgr_->config().batch_bytes));

  // Load the build partition into a charged in-memory table.
  HashTable<Tuple> table;
  int64_t charged = 0;
  MAGICDB_RETURN_IF_ERROR(task.build->Rewind());
  int64_t loop = 0;
  while (true) {
    if ((++loop & 1023) == 0) {
      MAGICDB_RETURN_IF_ERROR(ctx->CheckCancelled());
    }
    std::string_view record;
    bool has = false;
    MAGICDB_RETURN_IF_ERROR(task.build->NextRecord(&record, &has, ctx));
    if (!has) break;
    spill::RecordReader reader(record.data(), record.size());
    uint64_t hash = 0;
    Tuple row;
    MAGICDB_RETURN_IF_ERROR(reader.ReadU64(&hash));
    MAGICDB_RETURN_IF_ERROR(reader.ReadTuple(&row));
    const int64_t row_bytes = TupleByteWidth(row);
    Status charge = ctx->ChargeMemory(row_bytes);
    if (!charge.ok()) {
      ctx->ReleaseMemory(charged);
      table.Clear();
      if (charge.code() != StatusCode::kResourceExhausted) return charge;
      return Repartition(std::move(task), stack, ctx);
    }
    charged += row_bytes;
    table.Append(hash, std::move(row));
  }

  // Stream the probe partition against the loaded table, emitting matches
  // tagged with the probe sequence so the final merge can restore order.
  std::unique_ptr<SpillFile> out;
  MAGICDB_RETURN_IF_ERROR(task.probe->Rewind());
  Status status;  // deferred so the table's charge is always released
  while (true) {
    if ((++loop & 1023) == 0) {
      status = ctx->CheckCancelled();
      if (!status.ok()) break;
    }
    std::string_view record;
    bool has = false;
    status = task.probe->NextRecord(&record, &has, ctx);
    if (!status.ok() || !has) break;
    spill::RecordReader reader(record.data(), record.size());
    uint64_t hash = 0;
    int64_t seq = 0;
    Tuple row;
    status = reader.ReadU64(&hash);
    if (status.ok()) status = reader.ReadI64(&seq);
    if (status.ok()) status = reader.ReadTuple(&row);
    if (!status.ok()) break;
    for (uint32_t e = table.First(hash); e != HashTable<Tuple>::kEnd;
         e = table.Next(e)) {
      const Tuple& build_row = table[e];
      if (CompareTupleColumns(row, build_row, outer_keys_, inner_keys_) != 0) {
        continue;  // hash collision
      }
      ctx->counters().tuples_processed += 1;
      Tuple joined = ConcatTuples(row, build_row);
      if (residual_ != nullptr) {
        ctx->counters().exprs_evaluated += 1;
        if (!EvalPredicate(*residual_, joined)) continue;
      }
      if (out == nullptr) {
        out = std::make_unique<SpillFile>(mgr_.get(), "join-out");
      }
      scratch_.clear();
      spill::AppendI64(&scratch_, seq);
      spill::AppendTuple(&scratch_, joined);
      status = out->Append(scratch_, ctx);
      if (!status.ok()) break;
    }
    if (!status.ok()) break;
  }
  ctx->ReleaseMemory(charged);
  MAGICDB_RETURN_IF_ERROR(status);
  if (out != nullptr && out->records() > 0) {
    MAGICDB_RETURN_IF_ERROR(out->FinishWrite(ctx));
    RunCursor run;
    run.file = std::move(out);
    outputs_.push_back(std::move(run));
  }
  return Status::OK();
}

Status GraceHashJoin::Repartition(Task task, std::vector<Task>* stack,
                                  ExecContext* ctx) {
  const int next_depth = task.depth + 1;
  if (next_depth >= mgr_->config().max_recursion_depth) {
    return Status::ResourceExhausted(
        "query memory limit exceeded: spill partition still over the limit "
        "at recursion depth " +
        std::to_string(next_depth) +
        " (likely one oversized duplicate-key bucket)");
  }
  auto child_build = std::make_unique<SpillPartitionSet>(
      mgr_.get(), "join-build", next_depth);
  auto child_probe = std::make_unique<SpillPartitionSet>(
      mgr_.get(), "join-probe", next_depth);
  MAGICDB_RETURN_IF_ERROR(child_build->Reserve(ctx));
  MAGICDB_RETURN_IF_ERROR(child_probe->Reserve(ctx));

  MAGICDB_RETURN_IF_ERROR(task.build->Rewind());
  int64_t loop = 0;
  while (true) {
    if ((++loop & 1023) == 0) {
      MAGICDB_RETURN_IF_ERROR(ctx->CheckCancelled());
    }
    std::string_view record;
    bool has = false;
    MAGICDB_RETURN_IF_ERROR(task.build->NextRecord(&record, &has, ctx));
    if (!has) break;
    spill::RecordReader reader(record.data(), record.size());
    uint64_t hash = 0;
    MAGICDB_RETURN_IF_ERROR(reader.ReadU64(&hash));
    MAGICDB_RETURN_IF_ERROR(child_build->Add(hash, record, ctx));
  }
  MAGICDB_RETURN_IF_ERROR(task.probe->Rewind());
  while (true) {
    if ((++loop & 1023) == 0) {
      MAGICDB_RETURN_IF_ERROR(ctx->CheckCancelled());
    }
    std::string_view record;
    bool has = false;
    MAGICDB_RETURN_IF_ERROR(task.probe->NextRecord(&record, &has, ctx));
    if (!has) break;
    spill::RecordReader reader(record.data(), record.size());
    uint64_t hash = 0;
    MAGICDB_RETURN_IF_ERROR(reader.ReadU64(&hash));
    if (child_build->records(child_build->PartitionFor(hash)) == 0) continue;
    MAGICDB_RETURN_IF_ERROR(child_probe->Add(hash, record, ctx));
  }
  MAGICDB_RETURN_IF_ERROR(child_build->FinishWrites(ctx));
  MAGICDB_RETURN_IF_ERROR(child_probe->FinishWrites(ctx));
  for (int p = 0; p < child_build->fanout(); ++p) {
    if (child_build->records(p) == 0 || child_probe->records(p) == 0) continue;
    Task t;
    t.build = child_build->TakeFile(p);
    t.probe = child_probe->TakeFile(p);
    t.depth = next_depth;
    stack->push_back(std::move(t));
  }
  return Status::OK();
}

Status GraceHashJoin::AdvanceRun(RunCursor* run, ExecContext* ctx) {
  std::string_view record;
  bool has = false;
  MAGICDB_RETURN_IF_ERROR(run->file->NextRecord(&record, &has, ctx));
  if (!has) {
    run->has = false;
    return Status::OK();
  }
  spill::RecordReader reader(record.data(), record.size());
  MAGICDB_RETURN_IF_ERROR(reader.ReadI64(&run->seq));
  MAGICDB_RETURN_IF_ERROR(reader.ReadTuple(&run->row));
  run->has = true;
  return Status::OK();
}

Status GraceHashJoin::NextOutput(Tuple* out, bool* eof, ExecContext* ctx) {
  MAGICDB_CHECK(merge_ready_);
  RunCursor* best = nullptr;
  for (RunCursor& run : outputs_) {
    if (run.has && (best == nullptr || run.seq < best->seq)) best = &run;
  }
  if (best == nullptr) {
    *eof = true;
    merge_reservation_.Release();
    return Status::OK();
  }
  *out = std::move(best->row);
  *eof = false;
  return AdvanceRun(best, ctx);
}

}  // namespace magicdb
