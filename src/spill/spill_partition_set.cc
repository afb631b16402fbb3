#include "src/spill/spill_partition_set.h"

#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/exec/exec_context.h"
#include "src/spill/row_serde.h"
#include "src/spill/sorted_runs.h"

namespace magicdb {

SpillPartitionSet::SpillPartitionSet(SpillManager* mgr, std::string label,
                                     int depth)
    : mgr_(mgr),
      label_(std::move(label)),
      depth_(depth),
      files_(mgr->config().fanout) {
  mgr_->NoteRecursionDepth(depth);
}

Status SpillPartitionSet::Reserve(ExecContext* ctx) {
  return reservation_.Acquire(
      ctx, static_cast<int64_t>(files_.size()) * mgr_->config().batch_bytes);
}

Status SpillPartitionSet::AddTo(int partition, std::string_view record,
                                ExecContext* ctx) {
  MAGICDB_CHECK(!finished_);
  MAGICDB_CHECK(partition >= 0 && partition < fanout());
  std::unique_ptr<SpillFile>& file = files_[partition];
  if (file == nullptr) {
    MAGICDB_FAILPOINT("spill.partition.open");
    file = std::make_unique<SpillFile>(
        mgr_, label_ + "-d" + std::to_string(depth_) + "-p" +
                  std::to_string(partition));
    mgr_->NotePartitionOpened();
  }
  return file->Append(record, ctx);
}

Status SpillPartitionSet::FinishWrites(ExecContext* ctx) {
  for (std::unique_ptr<SpillFile>& file : files_) {
    if (file != nullptr) {
      MAGICDB_RETURN_IF_ERROR(file->FinishWrite(ctx));
    }
  }
  finished_ = true;
  reservation_.Release();
  return Status::OK();
}

int64_t SpillPartitionSet::records(int partition) const {
  return files_[partition] == nullptr ? 0 : files_[partition]->records();
}

std::unique_ptr<SpillFile> SpillPartitionSet::TakeFile(int partition) {
  MAGICDB_CHECK(finished_);
  return std::move(files_[partition]);
}

SpillPartitioner::SpillPartitioner(SpillManager* mgr,
                                   std::vector<std::string> labels, int depth)
    : mgr_(mgr), labels_(std::move(labels)), depth_(depth) {
  for (const std::string& label : labels_) {
    inputs_.push_back(std::make_unique<SpillPartitionSet>(mgr_, label, depth));
  }
}

Status SpillPartitioner::Add(int i, uint64_t hash, std::string_view record,
                             ExecContext* ctx) {
  const int p = inputs_[i]->PartitionFor(hash);
  if (i > 0 && inputs_[0]->records(p) == 0) return Status::OK();
  return inputs_[i]->AddTo(p, record, ctx);
}

Status SpillPartitioner::PushLeaves(ExecContext* ctx,
                                    std::vector<Leaf>* stack) {
  for (std::unique_ptr<SpillPartitionSet>& set : inputs_) {
    MAGICDB_RETURN_IF_ERROR(set->FinishWrites(ctx));
  }
  for (int p = 0; p < inputs_[0]->fanout(); ++p) {
    bool live = true;
    for (const std::unique_ptr<SpillPartitionSet>& set : inputs_) {
      live = live && set->records(p) > 0;
    }
    if (!live) continue;
    Leaf leaf;
    leaf.depth = depth_;
    for (std::unique_ptr<SpillPartitionSet>& set : inputs_) {
      leaf.files.push_back(set->TakeFile(p));
    }
    stack->push_back(std::move(leaf));
  }
  return Status::OK();
}

Status SpillPartitioner::Run(ExecContext* ctx, const LeafFn& leaf) {
  std::vector<Leaf> stack;
  MAGICDB_RETURN_IF_ERROR(PushLeaves(ctx, &stack));
  while (!stack.empty()) {
    MAGICDB_RETURN_IF_ERROR(ctx->CheckCancelled());
    Leaf task = std::move(stack.back());
    stack.pop_back();
    bool split = false;
    MAGICDB_RETURN_IF_ERROR(leaf(task, &split));
    if (split) MAGICDB_RETURN_IF_ERROR(Split(task, ctx, &stack));
  }
  return Status::OK();
}

Status SpillPartitioner::Split(const Leaf& leaf, ExecContext* ctx,
                               std::vector<Leaf>* stack) {
  const int depth = leaf.depth + 1;
  if (depth >= mgr_->config().max_recursion_depth) {
    return Status::ResourceExhausted(
        "query memory limit exceeded: spill partition still over the limit "
        "at recursion depth " +
        std::to_string(depth));
  }
  SpillPartitioner child(mgr_, labels_, depth);
  for (std::unique_ptr<SpillPartitionSet>& set : child.inputs_) {
    MAGICDB_RETURN_IF_ERROR(set->Reserve(ctx));
  }
  for (size_t i = 0; i < leaf.files.size(); ++i) {
    MAGICDB_RETURN_IF_ERROR(ForEachRecord(
        leaf.files[i].get(), ctx, [&](std::string_view record) {
          spill::RecordReader reader(record.data(), record.size());
          uint64_t hash = 0;
          MAGICDB_RETURN_IF_ERROR(reader.ReadU64(&hash));
          return child.Add(static_cast<int>(i), hash, record, ctx);
        }));
  }
  return child.PushLeaves(ctx, stack);
}

}  // namespace magicdb
