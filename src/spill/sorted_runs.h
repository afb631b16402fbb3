#ifndef MAGICDB_SPILL_SORTED_RUNS_H_
#define MAGICDB_SPILL_SORTED_RUNS_H_

/// Sorted runs: the one place out-of-core paths frame, write, merge and scan
/// spilled records (DESIGN.md, "Sorted runs and the partitioner").
///
/// A run holds records in ascending order under its caller's order, in one
/// sealed SpillFile.
///
/// Callers describe their records with a codec, passed as a template
/// parameter so no indirect call sits in the per-row loop:
///
///   struct Codec {
///     using Row = ...;
///     void Encode(const Row& row, std::string* out) const;
///     Status Decode(std::string_view record, Row* row) const;
///     bool Less(const Row& a, const Row& b) const;  // strict order
///   };

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/exec_context.h"
#include "src/spill/spill_file.h"
#include "src/spill/spill_manager.h"

namespace magicdb {

/// Calls `fn(record)` for every record of the sealed `file`, from the first,
/// and stops at the first error `fn` returns. Checks for cancellation every
/// 1,024 records.
template <typename Fn>
Status ForEachRecord(SpillFile* file, ExecContext* ctx, const Fn& fn) {
  MAGICDB_RETURN_IF_ERROR(file->Rewind());
  for (int64_t n = 1;; ++n) {
    if ((n & 1023) == 0) MAGICDB_RETURN_IF_ERROR(ctx->CheckCancelled());
    std::string_view record;
    bool has = false;
    MAGICDB_RETURN_IF_ERROR(file->NextRecord(&record, &has, ctx));
    if (!has) return Status::OK();
    MAGICDB_RETURN_IF_ERROR(fn(record));
  }
}

/// Writes one run to a spill file created on the first Append.
template <typename Codec>
class RunWriter {
 public:
  using Row = typename Codec::Row;

  RunWriter(SpillManager* mgr, std::string label, Codec codec = Codec())
      : mgr_(mgr), label_(std::move(label)), codec_(std::move(codec)) {}

  bool started() const { return file_ != nullptr; }

  Status Append(const Row& row, ExecContext* ctx) {
    if (file_ == nullptr) {
      file_ = std::make_unique<SpillFile>(mgr_, label_);
    }
    scratch_.clear();
    codec_.Encode(row, &scratch_);
    return file_->Append(scratch_, ctx);
  }

  /// Seals the run and hands over its file; null when nothing was appended.
  StatusOr<std::unique_ptr<SpillFile>> FinishWrite(ExecContext* ctx) {
    if (file_ != nullptr) MAGICDB_RETURN_IF_ERROR(file_->FinishWrite(ctx));
    return std::move(file_);
  }

 private:
  SpillManager* const mgr_;
  const std::string label_;
  const Codec codec_;
  std::unique_ptr<SpillFile> file_;
  std::string scratch_;
};

/// K-way merge of sorted runs. Next scans the run heads linearly and takes
/// the least; ties go to the lowest run index, and rows within a run keep
/// their order.
///
/// Open reserves one read frame (the spill batch size) per run against
/// `ctx`'s tracker and charges the reads to `ctx`; end of stream releases
/// the frames. A null `ctx` reserves and charges nothing.
template <typename Codec>
class RunMerge {
 public:
  using Row = typename Codec::Row;

  explicit RunMerge(Codec codec = Codec()) : codec_(std::move(codec)) {}

  /// Adds a sealed run (null, from a writer that got no record, adds
  /// nothing); only before Open.
  void Add(std::unique_ptr<SpillFile> run) {
    if (run != nullptr) cursors_.push_back({std::move(run)});
  }

  Status Open(ExecContext* ctx) {
    ctx_ = ctx;
    if (ctx_ != nullptr && !cursors_.empty()) {
      MAGICDB_RETURN_IF_ERROR(frames_.Acquire(
          ctx_, static_cast<int64_t>(cursors_.size()) *
                    ctx_->spill_manager()->config().batch_bytes));
    }
    for (Cursor& c : cursors_) {
      MAGICDB_RETURN_IF_ERROR(c.file->Rewind());
      MAGICDB_RETURN_IF_ERROR(Advance(&c));
    }
    return Status::OK();
  }

  /// Moves the least head into `*out`; `*has_row` is false at end of stream.
  Status Next(Row* out, bool* has_row) {
    Cursor* best = nullptr;
    for (Cursor& c : cursors_) {
      if (c.has && (best == nullptr || codec_.Less(c.head, best->head))) {
        best = &c;
      }
    }
    *has_row = best != nullptr;
    if (best == nullptr) {
      frames_.Release();
      return Status::OK();
    }
    *out = std::move(best->head);
    return Advance(best);
  }

  /// Drops every run, deleting its file, and releases the frames.
  void Clear() {
    cursors_.clear();
    frames_.Release();
  }

 private:
  struct Cursor {
    std::unique_ptr<SpillFile> file;
    bool has = false;  // the decoded head is in `head`
    Row head{};
  };

  Status Advance(Cursor* c) {
    std::string_view record;
    MAGICDB_RETURN_IF_ERROR(c->file->NextRecord(&record, &c->has, ctx_));
    return c->has ? codec_.Decode(record, &c->head) : Status::OK();
  }

  const Codec codec_;
  std::vector<Cursor> cursors_;
  ExecContext* ctx_ = nullptr;
  SpillReservation frames_;
};

}  // namespace magicdb

#endif  // MAGICDB_SPILL_SORTED_RUNS_H_
