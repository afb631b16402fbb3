#include "src/exec/join_ops.h"

#include <algorithm>
#include <cmath>

#include "src/common/failpoint.h"
#include "src/common/logging.h"

namespace magicdb {

// ----- NestedLoopsJoinOp -----

NestedLoopsJoinOp::NestedLoopsJoinOp(OpPtr outer, OpPtr inner,
                                     ExprPtr predicate)
    : RowOperator(outer->schema().Concat(inner->schema()),
                  std::move(predicate)),
      outer_(std::move(outer)),
      inner_(std::move(inner)) {}

Status NestedLoopsJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  have_outer_ = false;
  inner_open_ = false;
  outer_in_.Reset();
  return outer_->Open(ctx);
}

Status NestedLoopsJoinOp::NextRow(Tuple* out, bool* eof) {
  while (true) {
    if (!have_outer_) {
      bool outer_eof = false;
      MAGICDB_RETURN_IF_ERROR(outer_in_.Next(outer_.get(), pull_rows(),
                                             &current_outer_, &outer_eof));
      if (outer_eof) {
        *eof = true;
        return Status::OK();
      }
      have_outer_ = true;
      if (inner_open_) {
        MAGICDB_RETURN_IF_ERROR(inner_->Close());
      }
      MAGICDB_RETURN_IF_ERROR(inner_->Open(ctx_));
      inner_in_.Reset();
      inner_open_ = true;
    }
    Tuple inner_tuple;
    bool inner_eof = false;
    MAGICDB_RETURN_IF_ERROR(
        inner_in_.Next(inner_.get(), pull_rows(), &inner_tuple, &inner_eof));
    if (inner_eof) {
      have_outer_ = false;
      continue;
    }
    ctx_->counters().tuples_processed += 1;
    *out = ConcatTuples(current_outer_, inner_tuple);
    *eof = false;
    return Status::OK();
  }
}

Status NestedLoopsJoinOp::Close() {
  if (inner_open_) {
    MAGICDB_RETURN_IF_ERROR(inner_->Close());
    inner_open_ = false;
  }
  return outer_->Close();
}

std::string NestedLoopsJoinOp::Describe() const {
  return "NestedLoopsJoin(" +
         (residual() ? residual()->ToString() : std::string("true")) + ")";
}

// ----- IndexNestedLoopsJoinOp -----

IndexNestedLoopsJoinOp::IndexNestedLoopsJoinOp(
    OpPtr outer, const Table* inner_table, const HashIndex* index,
    std::vector<int> outer_key_indexes, ExprPtr residual, bool remote_probe,
    const std::string& inner_alias)
    : Operator(outer->schema().Concat(
          inner_alias.empty()
              ? inner_table->schema()
              : inner_table->schema().WithQualifier(inner_alias))),
      outer_(std::move(outer)),
      inner_table_(inner_table),
      index_(index),
      outer_key_indexes_(std::move(outer_key_indexes)),
      residual_(std::move(residual)),
      remote_probe_(remote_probe) {
  MAGICDB_CHECK(index_ != nullptr);
  MAGICDB_CHECK(index_->columns().size() == outer_key_indexes_.size());
}

Status IndexNestedLoopsJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  outer_exhausted_ = true;
  outer_eof_ = false;
  outer_row_ = 0;
  matches_ = nullptr;
  match_pos_ = 0;
  return outer_->Open(ctx);
}

Status IndexNestedLoopsJoinOp::NextBatch(RowBatch* out, bool* eof) {
  *eof = false;
  return residual_.FillAndKeep(ctx_, out, eof,
                               [&] { return Probe(out, eof); });
}

Status IndexNestedLoopsJoinOp::Probe(RowBatch* out, bool* eof) {
  out->ResetForWrite(schema_.num_columns());
  while (true) {
    if (outer_exhausted_) {
      if (outer_eof_) {
        *eof = true;
        return Status::OK();
      }
      if (outer_batch_ == nullptr ||
          outer_batch_->capacity() != out->capacity()) {
        outer_batch_ = std::make_unique<RowBatch>(out->capacity());
      }
      MAGICDB_RETURN_IF_ERROR(
          outer_->NextBatch(outer_batch_.get(), &outer_eof_));
      outer_exhausted_ = false;
      outer_row_ = 0;
    }
    if (outer_batch_->has_ranks()) out->EnableRanks();
    for (; outer_row_ < outer_batch_->num_rows(); ++outer_row_) {
      const auto r = static_cast<size_t>(outer_row_);
      if (matches_ == nullptr) {
        if (out->full()) return Status::OK();  // probe when a row is wanted
        if (BatchRowHasNullAt(*outer_batch_, outer_row_,
                              outer_key_indexes_)) {
          continue;  // NULL keys never join
        }
        probe_key_.clear();
        for (int k : outer_key_indexes_) {
          probe_key_.push_back(outer_batch_->column(k)[r]);
        }
        // One probe: a hash operation plus one page to reach the bucket.
        ctx_->counters().hash_operations += 1;
        ctx_->counters().pages_read += 1;
        if (remote_probe_) {
          // Fetch-matches round trip: request carries the key, response the
          // matching tuples (charged below per match).
          ctx_->counters().messages_sent += 2;
          ctx_->counters().bytes_shipped += TupleByteWidth(probe_key_);
        }
        matches_ = &index_->Lookup(probe_key_);
        match_pos_ = 0;
      }
      for (; match_pos_ < matches_->size(); ++match_pos_) {
        if (out->full()) return Status::OK();  // resume mid-list next call
        const Tuple& inner_row = inner_table_->row((*matches_)[match_pos_]);
        // Unclustered index: each matching row costs one page fetch.
        ctx_->counters().pages_read += 1;
        ctx_->counters().tuples_processed += 1;
        if (remote_probe_) {
          ctx_->counters().bytes_shipped += TupleByteWidth(inner_row);
        }
        out->AppendJoined(*outer_batch_, outer_row_, inner_row);
        if (out->has_ranks()) {
          out->pos().push_back(outer_batch_->pos()[r]);
          out->sub().push_back(0);
        }
      }
      matches_ = nullptr;
    }
    outer_exhausted_ = true;
    if (outer_eof_) {
      *eof = true;
      return Status::OK();
    }
    if (out->full()) return Status::OK();
    // One cancellation check per consumed outer batch.
    MAGICDB_RETURN_IF_ERROR(ctx_->CheckCancelled());
  }
}

Status IndexNestedLoopsJoinOp::Close() { return outer_->Close(); }

std::string IndexNestedLoopsJoinOp::Describe() const {
  return std::string("IndexNestedLoopsJoin(") +
         (remote_probe_ ? "remote, " : "") + "inner=" + inner_table_->name() +
         ")";
}

// ----- HashJoinOp -----

HashJoinOp::HashJoinOp(OpPtr outer, OpPtr inner,
                       std::vector<int> outer_key_indexes,
                       std::vector<int> inner_key_indexes, ExprPtr residual)
    : Operator(outer->schema().Concat(inner->schema())),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_keys_(std::move(outer_key_indexes)),
      inner_keys_(std::move(inner_key_indexes)),
      residual_(std::move(residual)) {
  MAGICDB_CHECK(outer_keys_.size() == inner_keys_.size());
  MAGICDB_CHECK(!outer_keys_.empty());
}

Status HashJoinOp::AddBuildTuple(Tuple t, int64_t stage_pos,
                                 int64_t* build_bytes) {
  if (TupleHasNullAt(t, inner_keys_)) return Status::OK();  // never joins
  MAGICDB_FAILPOINT("exec.hash_join.build");
  ctx_->counters().hash_operations += 1;
  const uint64_t hash = HashTupleColumns(t, inner_keys_);
  if (grace_ != nullptr) {
    // Already out of core: every remaining build row goes straight to
    // its Grace partition, no memory charge.
    return grace_->AddBuildRow(hash, t, ctx_);
  }
  // Retained build row: governed memory, whether staged into the shared
  // partitioned build or kept in this replica's private table.
  const int64_t row_bytes = TupleByteWidth(t);
  Status charge = ctx_->ChargeMemory(row_bytes);
  if (!charge.ok()) {
    // A governed breach turns into out-of-core execution when a spill
    // area is attached (sequential mode only; parallel replicas fail the
    // gang and the service retries sequentially with spilling).
    if (charge.code() != StatusCode::kResourceExhausted ||
        !ctx_->spill_enabled() || shared_build_ != nullptr) {
      return charge;
    }
    grace_ = std::make_unique<GraceHashJoin>(ctx_->spill_manager(),
                                             outer_keys_, inner_keys_,
                                             residual_.predicate());
    MAGICDB_RETURN_IF_ERROR(
        grace_->BeginBuildSpill(ctx_, &build_, &charged_bytes_));
    *build_bytes = 0;
    return grace_->AddBuildRow(hash, t, ctx_);
  }
  charged_bytes_ += row_bytes;
  if (shared_build_ != nullptr) {
    shared_build_->Stage(worker_, stage_pos, hash, std::move(t));
    return Status::OK();
  }
  *build_bytes += row_bytes;
  build_.Append(hash, std::move(t));
  return Status::OK();
}

Status HashJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  build_.Clear();
  probe_entry_ = HashTable<Tuple>::kEnd;
  spill_passes_ = 0;
  probe_bytes_pending_ = 0;
  charged_bytes_ = 0;
  grace_.reset();
  probe_spilled_ = false;
  probe_batch_exhausted_ = true;
  probe_eof_ = false;
  probe_row_ = 0;
  // Build phase over the inner child. In shared (parallel) mode this
  // replica drains only its morsel-driven slice of the build input and
  // stages rows into the partitioned build; FinishStaging synchronizes
  // with the other replicas and assembles the partitions.
  MAGICDB_RETURN_IF_ERROR(inner_->Open(ctx));
  int64_t build_bytes = 0;
  // Build-input rows drained by this replica (before the NULL-key skip, so
  // the total matches the scan-output cardinality the optimizer estimated).
  int64_t build_rows = 0;
  MAGICDB_RETURN_IF_ERROR(DrainRows(inner_.get(), ctx, [&](Tuple t,
                                                           int64_t pos) {
    if (shared_build_ != nullptr && pos < 0) {
      return Status::Internal(
          "shared hash-join build requires rank-tagged batches");
    }
    ++build_rows;
    return AddBuildTuple(std::move(t), pos, &build_bytes);
  }));
  MAGICDB_RETURN_IF_ERROR(inner_->Close());
  // Cardinality feedback: record the observed build-input total and decide
  // the re-optimization trigger before any probe output is produced (every
  // pipeline breaker completes inside Open). The decision is value-based,
  // so in shared mode every replica computes it from the same gang-wide
  // total and unwinds consistently.
  const auto record_build = [&](int64_t actual) -> Status {
    if (feedback_key_.empty()) return Status::OK();
    return ctx->RecordCardinality(feedback_key_, "hash_join_build",
                                  feedback_est_rows_,
                                  static_cast<double>(actual),
                                  /*exact=*/true, feedback_can_trigger_);
  };
  if (grace_ != nullptr) {
    MAGICDB_RETURN_IF_ERROR(grace_->FinishBuild(ctx));
    MAGICDB_RETURN_IF_ERROR(record_build(build_rows));
    return outer_->Open(ctx);
  }
  if (shared_build_ != nullptr) {
    // Contribute this replica's slice before the FinishStaging barrier so
    // every replica reads the complete total afterwards.
    shared_build_->AddBuildRows(build_rows);
    // Barrier + partition assembly; global spill accounting happens inside
    // (charged once, not once per replica).
    MAGICDB_RETURN_IF_ERROR(shared_build_->FinishStaging(worker_, ctx));
    spill_passes_ = shared_build_->spill_passes();
    MAGICDB_RETURN_IF_ERROR(record_build(shared_build_->total_build_rows()));
    return outer_->Open(ctx);
  }
  // Build side over budget: charge the Grace partitioning passes the spill
  // subsystem would take to shrink each partition under budget. The build
  // input pays now; the probe input pays as it streams (see NextBatch).
  spill_passes_ = ChargeSpillPasses(build_bytes, ctx->memory_budget_bytes(),
                                    &ctx->counters());
  MAGICDB_RETURN_IF_ERROR(record_build(build_rows));
  return outer_->Open(ctx);
}

Status HashJoinOp::DrainProbeToSpill() {
  MAGICDB_RETURN_IF_ERROR(DrainRows(outer_.get(), ctx_, [&](Tuple t,
                                                            int64_t) {
    if (TupleHasNullAt(t, outer_keys_)) return Status::OK();  // never joins
    ctx_->counters().hash_operations += 1;
    const uint64_t hash = HashTupleColumns(t, outer_keys_);
    return grace_->AddProbeRow(hash, t, ctx_);
  }));
  return grace_->FinishProbe(ctx_);
}

Status HashJoinOp::NextBatch(RowBatch* out, bool* eof) {
  *eof = false;
  if (grace_ == nullptr) {
    return residual_.FillAndKeep(ctx_, out, eof,
                                 [&] { return Probe(out, eof); });
  }
  // Out of core: drain the probe side into its partitions once, then
  // stream the merged partition joins, whose leaf joins applied the
  // residual before writing their runs.
  if (!probe_spilled_) {
    MAGICDB_RETURN_IF_ERROR(DrainProbeToSpill());
    probe_spilled_ = true;
  }
  out->ResetForWrite(schema_.num_columns());
  Tuple t;
  while (!out->full() && !*eof) {
    MAGICDB_RETURN_IF_ERROR(grace_->NextOutput(&t, eof));
    if (!*eof) out->AppendTuple(std::move(t));
  }
  return Status::OK();
}

Status HashJoinOp::Probe(RowBatch* out, bool* eof) {
  out->ResetForWrite(schema_.num_columns());
  while (true) {
    if (probe_batch_exhausted_) {
      if (probe_eof_) {
        *eof = true;
        return Status::OK();
      }
      if (probe_batch_ == nullptr ||
          probe_batch_->capacity() != out->capacity()) {
        probe_batch_ = std::make_unique<RowBatch>(out->capacity());
      }
      MAGICDB_RETURN_IF_ERROR(
          outer_->NextBatch(probe_batch_.get(), &probe_eof_));
      probe_batch_exhausted_ = false;
      probe_row_ = 0;
      // Up-front vectorized pass: spill byte charges (in row order, so the
      // page floors match at any batch size), NULL-key screening, and key
      // hashing for every row of the batch.
      const int32_t nrows = probe_batch_->num_rows();
      probe_hashes_.assign(static_cast<size_t>(nrows), 0);
      probe_has_key_.assign(static_cast<size_t>(nrows), 0);
      for (int32_t r = 0; r < nrows; ++r) {
        if (spill_passes_ > 0) {
          const int64_t row_bytes = BatchRowByteWidth(*probe_batch_, r);
          if (shared_build_ != nullptr) {
            shared_build_->ChargeProbeBytes(ctx_, row_bytes);
          } else {
            probe_bytes_pending_ += row_bytes;
            while (probe_bytes_pending_ >= CostConstants::kPageSizeBytes) {
              probe_bytes_pending_ -= CostConstants::kPageSizeBytes;
              ctx_->counters().pages_written += spill_passes_;
              ctx_->counters().pages_read += spill_passes_;
            }
          }
        }
        if (!BatchRowHasNullAt(*probe_batch_, r, outer_keys_)) {
          probe_has_key_[static_cast<size_t>(r)] = 1;
          ctx_->counters().hash_operations += 1;
          probe_hashes_[static_cast<size_t>(r)] =
              HashBatchRowColumns(*probe_batch_, r, outer_keys_);
        }
      }
    }
    // Rank-tag the output whenever the probe side carries ranks — checked on
    // every call because `out` arrives freshly reset even on mid-batch
    // resumes.
    if (probe_batch_->has_ranks()) out->EnableRanks();
    for (; probe_row_ < probe_batch_->num_rows(); ++probe_row_) {
      const size_t r = static_cast<size_t>(probe_row_);
      if (probe_entry_ == HashTable<Tuple>::kEnd) {
        if (!probe_has_key_[r]) continue;  // NULL keys never join
        const uint64_t hash = probe_hashes_[r];
        probe_table_ = shared_build_ != nullptr
                           ? &shared_build_->Partition(hash)
                           : &build_;
        probe_entry_ = probe_table_->First(hash);
        if (probe_entry_ == HashTable<Tuple>::kEnd) continue;
        probe_batch_->MoveRowToTuple(probe_row_, &current_outer_);
      }
      while (probe_entry_ != HashTable<Tuple>::kEnd) {
        if (out->full()) return Status::OK();  // resume mid-bucket next call
        const Tuple& inner_row = (*probe_table_)[probe_entry_];
        probe_entry_ = probe_table_->Next(probe_entry_);
        // Verify key equality (hash collisions).
        if (CompareTupleColumns(current_outer_, inner_row, outer_keys_,
                                inner_keys_) != 0) {
          continue;
        }
        ctx_->counters().tuples_processed += 1;
        out->AppendJoined(current_outer_, inner_row);
        if (out->has_ranks()) {
          // Matches inherit the outer row's scan position; rows sharing it
          // keep their emission order within this worker's lane.
          out->pos().push_back(probe_batch_->pos()[r]);
          out->sub().push_back(0);
        }
      }
    }
    probe_batch_exhausted_ = true;
    if (probe_eof_) {
      *eof = true;
      return Status::OK();
    }
    if (out->full()) return Status::OK();
    // One cancellation check per consumed probe batch.
    MAGICDB_RETURN_IF_ERROR(ctx_->CheckCancelled());
  }
}

Status HashJoinOp::Close() {
  build_.Clear();
  grace_.reset();
  if (ctx_ != nullptr) {
    ctx_->ReleaseMemory(charged_bytes_);
    charged_bytes_ = 0;
  }
  return outer_->Close();
}

std::string HashJoinOp::Describe() const {
  std::string s = "HashJoin(keys=[";
  for (size_t i = 0; i < outer_keys_.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(outer_keys_[i]);
  }
  s += "]=[";
  for (size_t i = 0; i < inner_keys_.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(inner_keys_[i]);
  }
  s += "]";
  if (residual_.predicate()) {
    s += ", residual=" + residual_.predicate()->ToString();
  }
  return s + ")";
}

// ----- SortMergeJoinOp -----

SortMergeJoinOp::SortMergeJoinOp(OpPtr outer, OpPtr inner,
                                 std::vector<int> outer_key_indexes,
                                 std::vector<int> inner_key_indexes,
                                 ExprPtr residual, bool outer_presorted)
    : RowOperator(outer->schema().Concat(inner->schema()),
                  std::move(residual)),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_keys_(std::move(outer_key_indexes)),
      inner_keys_(std::move(inner_key_indexes)),
      outer_presorted_(outer_presorted) {
  MAGICDB_CHECK(outer_keys_.size() == inner_keys_.size());
  MAGICDB_CHECK(!outer_keys_.empty());
}

Status SortMergeJoinOp::DrainSorted(Operator* child,
                                    const std::vector<int>& keys,
                                    ExecContext* ctx, std::vector<Tuple>* out,
                                    bool presorted) {
  MAGICDB_RETURN_IF_ERROR(child->Open(ctx));
  MAGICDB_RETURN_IF_ERROR(DrainRows(child, ctx, [&](Tuple t, int64_t) {
    if (TupleHasNullAt(t, keys)) return Status::OK();  // never joins
    // Buffered row: governed memory. The join has no spill path, so a
    // breach fails the query.
    const int64_t row_bytes = TupleByteWidth(t);
    MAGICDB_RETURN_IF_ERROR(ctx->ChargeMemory(row_bytes));
    charged_bytes_ += row_bytes;
    out->push_back(std::move(t));
    return Status::OK();
  }));
  MAGICDB_RETURN_IF_ERROR(child->Close());
  if (presorted) {
    // Trust but verify: a misdeclared order is a planner bug.
    for (size_t i = 1; i < out->size(); ++i) {
      MAGICDB_CHECK(CompareTupleColumns((*out)[i - 1], (*out)[i], keys,
                                        keys) <= 0);
    }
    return Status::OK();
  }
  const int64_t n = static_cast<int64_t>(out->size());
  std::sort(out->begin(), out->end(), [&](const Tuple& a, const Tuple& b) {
    return CompareTupleColumns(a, b, keys, keys) < 0;
  });
  if (n > 1) {
    ctx->counters().exprs_evaluated +=
        static_cast<int64_t>(static_cast<double>(n) *
                             std::ceil(std::log2(static_cast<double>(n))));
  }
  return Status::OK();
}

void SortMergeJoinOp::AdvanceGroups() {
  // Advances li_/ri_ to the next pair of groups with equal keys and sets
  // group boundaries; sets in_group_ accordingly.
  while (li_ < left_.size() && ri_ < right_.size()) {
    const int c = CompareTupleColumns(left_[li_], right_[ri_], outer_keys_,
                                      inner_keys_);
    if (c < 0) {
      ++li_;
    } else if (c > 0) {
      ++ri_;
    } else {
      lg_end_ = li_ + 1;
      while (lg_end_ < left_.size() &&
             CompareTupleColumns(left_[lg_end_], left_[li_], outer_keys_,
                                 outer_keys_) == 0) {
        ++lg_end_;
      }
      rg_end_ = ri_ + 1;
      while (rg_end_ < right_.size() &&
             CompareTupleColumns(right_[rg_end_], right_[ri_], inner_keys_,
                                 inner_keys_) == 0) {
        ++rg_end_;
      }
      lpos_ = li_;
      rpos_ = ri_;
      in_group_ = true;
      return;
    }
  }
  in_group_ = false;
}

Status SortMergeJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  left_.clear();
  right_.clear();
  charged_bytes_ = 0;
  li_ = ri_ = lg_end_ = rg_end_ = lpos_ = rpos_ = 0;
  in_group_ = false;
  MAGICDB_RETURN_IF_ERROR(DrainSorted(outer_.get(), outer_keys_, ctx, &left_,
                                      outer_presorted_));
  MAGICDB_RETURN_IF_ERROR(
      DrainSorted(inner_.get(), inner_keys_, ctx, &right_, false));
  AdvanceGroups();
  return Status::OK();
}

Status SortMergeJoinOp::NextRow(Tuple* out, bool* eof) {
  while (in_group_) {
    if (rpos_ >= rg_end_) {
      rpos_ = ri_;
      ++lpos_;
    }
    if (lpos_ >= lg_end_) {
      li_ = lg_end_;
      ri_ = rg_end_;
      AdvanceGroups();
      continue;
    }
    ctx_->counters().tuples_processed += 1;
    *out = ConcatTuples(left_[lpos_], right_[rpos_++]);
    *eof = false;
    return Status::OK();
  }
  *eof = true;
  return Status::OK();
}

Status SortMergeJoinOp::Close() {
  left_.clear();
  right_.clear();
  if (ctx_ != nullptr) {
    ctx_->ReleaseMemory(charged_bytes_);
    charged_bytes_ = 0;
  }
  return Status::OK();
}

std::string SortMergeJoinOp::Describe() const {
  return "SortMergeJoin(keys=" + std::to_string(outer_keys_.size()) +
         (outer_presorted_ ? ", outer presorted" : "") + ")";
}

}  // namespace magicdb
