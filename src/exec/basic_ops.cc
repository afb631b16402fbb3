#include "src/exec/basic_ops.h"

#include <algorithm>
#include <cmath>

namespace magicdb {

// ----- FilterOp -----

FilterOp::FilterOp(OpPtr child, ExprPtr predicate)
    : Operator(child->schema()),
      child_(std::move(child)),
      filter_(std::move(predicate)) {}

Status FilterOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  return child_->Open(ctx);
}

Status FilterOp::NextBatch(RowBatch* out, bool* eof) {
  return filter_.FillAndKeep(ctx_, out, eof,
                             [&] { return child_->NextBatch(out, eof); });
}

Status FilterOp::Close() { return child_->Close(); }

std::string FilterOp::Describe() const {
  return "Filter(" + filter_.predicate()->ToString() + ")";
}

// ----- ProjectOp -----

ProjectOp::ProjectOp(OpPtr child, std::vector<ExprPtr> exprs, Schema schema)
    : Operator(std::move(schema)),
      child_(std::move(child)),
      exprs_(std::move(exprs)),
      move_from_(exprs_.size(), -1) {
  // A child column may move only when a single output reads it, as that
  // output's bare reference: every reference, inside any expression, counts.
  const int child_cols = child_->schema().num_columns();
  std::vector<int> readers(static_cast<size_t>(child_cols), 0);
  for (const ExprPtr& e : exprs_) {
    std::vector<int> refs;
    e->CollectColumnRefs(&refs);
    for (int c : refs) {
      if (c >= 0 && c < child_cols) ++readers[static_cast<size_t>(c)];
    }
  }
  for (size_t j = 0; j < exprs_.size(); ++j) {
    if (exprs_[j]->kind() != ExprKind::kColumnRef) continue;
    const int c = static_cast<const ColumnRefExpr&>(*exprs_[j]).index();
    if (c >= 0 && c < child_cols && readers[static_cast<size_t>(c)] == 1) {
      move_from_[j] = c;
    }
  }
}

Status ProjectOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  return child_->Open(ctx);
}

Status ProjectOp::NextBatch(RowBatch* out, bool* eof) {
  if (in_batch_ == nullptr || in_batch_->capacity() != out->capacity()) {
    in_batch_ = std::make_unique<RowBatch>(out->capacity());
  }
  MAGICDB_RETURN_IF_ERROR(child_->NextBatch(in_batch_.get(), eof));
  out->ResetForWrite(static_cast<int>(exprs_.size()));
  const int32_t n = in_batch_->num_rows();
  for (size_t j = 0; j < exprs_.size(); ++j) {
    ctx_->counters().exprs_evaluated += n;
    std::vector<Value>& dst = out->column(static_cast<int>(j));
    if (move_from_[j] >= 0) {
      dst.swap(in_batch_->column(move_from_[j]));  // its only reader
      continue;
    }
    Status first_error;
    BatchOperand op;
    ResolveBatchOperand(*exprs_[j], *in_batch_, &col_vals_, &col_errs_,
                        &first_error, &op);
    // Projection is strict: a row error fails the query. Only the
    // materializing path can produce one (literals never error, and an
    // out-of-range column ref materializes).
    MAGICDB_RETURN_IF_ERROR(first_error);
    if (op.lit != nullptr) {
      dst.assign(static_cast<size_t>(n), *op.lit);  // broadcast literal
    } else if (op.col == &col_vals_) {
      dst.swap(col_vals_);  // materialized scratch: steal, don't copy
    } else {
      // Column view: one bulk copy replaces the per-row kernel.
      dst.assign(op.col->begin(), op.col->begin() + n);
    }
  }
  out->set_num_rows(n);
  if (in_batch_->has_ranks()) {
    out->EnableRanks();
    out->pos() = in_batch_->pos();
    out->sub() = in_batch_->sub();
  }
  return Status::OK();
}

Status ProjectOp::Close() { return child_->Close(); }

std::string ProjectOp::Describe() const {
  std::string s = "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) s += ", ";
    s += exprs_[i]->ToString();
  }
  return s + ")";
}

// ----- DistinctOp -----

DistinctOp::DistinctOp(OpPtr child)
    : RowOperator(child->schema()), child_(std::move(child)) {}

Status DistinctOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  seen_.Clear();
  charged_bytes_ = 0;
  in_.Reset();
  return child_->Open(ctx);
}

Status DistinctOp::NextRow(Tuple* out, bool* eof) {
  while (true) {
    MAGICDB_RETURN_IF_ERROR(in_.Next(child_.get(), pull_rows(), out, eof));
    if (*eof) return Status::OK();
    ctx_->counters().hash_operations += 1;
    const bool fresh = seen_.FindOrInsert(
        HashTuple(*out),
        [&](const Tuple& t) { return CompareTuples(t, *out) == 0; },
        [&] { return *out; }).second;
    if (fresh) {
      // The retained copy is governed memory; DISTINCT has no spill path,
      // so a breach fails the query.
      const int64_t row_bytes = TupleByteWidth(*out);
      MAGICDB_RETURN_IF_ERROR(ctx_->ChargeMemory(row_bytes));
      charged_bytes_ += row_bytes;
      return Status::OK();
    }
  }
}

Status DistinctOp::Close() {
  seen_.Clear();
  if (ctx_ != nullptr) {
    ctx_->ReleaseMemory(charged_bytes_);
    charged_bytes_ = 0;
  }
  return child_->Close();
}

std::string DistinctOp::Describe() const { return "Distinct"; }

// ----- SortOp -----

SortOp::SortOp(OpPtr child, std::vector<SortKey> keys)
    : RowOperator(child->schema()),
      child_(std::move(child)),
      keys_(std::move(keys)) {}

Status SortOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  sorted_.clear();
  next_ = 0;
  sorter_.reset();
  charged_bytes_ = 0;
  base_seq_ = 0;
  MAGICDB_RETURN_IF_ERROR(child_->Open(ctx));
  std::vector<Tuple> rows;
  std::vector<Tuple> row_keys;
  int64_t bytes = 0;
  int64_t total_rows = 0;
  // Charged bytes of the buffered key tuples (reset when a run spills).
  int64_t key_bytes = 0;
  // Each key is evaluated over a whole drained batch; plain column keys
  // resolve to views of the batch, so the key values are copied out of a
  // row before the row itself is moved out.
  std::vector<std::vector<Value>> key_vals(keys_.size());
  std::vector<std::vector<uint8_t>> key_errs(keys_.size());
  std::vector<BatchOperand> key_ops(keys_.size());
  MAGICDB_RETURN_IF_ERROR(DrainBatches(child_.get(), ctx, [&](RowBatch* in)
                                                              -> Status {
    const int32_t n = in->num_rows();
    for (size_t i = 0; i < keys_.size(); ++i) {
      ctx->counters().exprs_evaluated += n;
      Status first_error;
      ResolveBatchOperand(*keys_[i].expr, *in, &key_vals[i], &key_errs[i],
                          &first_error, &key_ops[i]);
      MAGICDB_RETURN_IF_ERROR(first_error);
    }
    for (int32_t r = 0; r < n; ++r) {
      Tuple k;
      k.reserve(keys_.size());
      for (const BatchOperand& op : key_ops) {
        k.push_back(op.at(static_cast<size_t>(r)));
      }
      Tuple t;
      in->MoveRowToTuple(r, &t);
      // Buffered row + its computed key tuple: governed memory.
      const int64_t row_bytes = TupleByteWidth(t) + TupleByteWidth(k);
      Status charge = ctx->ChargeMemory(row_bytes);
      if (!charge.ok()) {
        // A governed breach turns into external merge sort when a spill
        // area is attached: flush the buffer as one sorted run and retry.
        if (charge.code() != StatusCode::kResourceExhausted ||
            !ctx->spill_enabled()) {
          return charge;
        }
        if (sorter_ == nullptr) {
          std::vector<bool> ascending;
          ascending.reserve(keys_.size());
          for (const SortKey& sk : keys_) ascending.push_back(sk.ascending);
          sorter_ = std::make_unique<ExternalSorter>(ctx->spill_manager(),
                                                     std::move(ascending));
        }
        const int64_t flushed = static_cast<int64_t>(rows.size());
        MAGICDB_RETURN_IF_ERROR(sorter_->SpillRun(&rows, &row_keys, base_seq_,
                                                  &charged_bytes_, ctx));
        base_seq_ += flushed;
        key_bytes = 0;
        // Second failure is final: even one row does not fit.
        MAGICDB_RETURN_IF_ERROR(ctx->ChargeMemory(row_bytes));
      }
      charged_bytes_ += row_bytes;
      key_bytes += TupleByteWidth(k);
      bytes += TupleByteWidth(t);
      ++total_rows;
      rows.push_back(std::move(t));
      row_keys.push_back(std::move(k));
    }
    return Status::OK();
  }));
  MAGICDB_RETURN_IF_ERROR(child_->Close());

  // Charge n log2 n comparisons as CPU work over the full input.
  if (total_rows > 1) {
    ctx->counters().exprs_evaluated += static_cast<int64_t>(
        static_cast<double>(total_rows) *
        std::ceil(std::log2(static_cast<double>(total_rows))));
  }
  if (sorter_ != nullptr) {
    // Out of core: the final buffer spills as one more run, so no buffered
    // row stays charged while NextRow() k-way merges and the result sink
    // charges its batches. Real page I/O was charged by the spill files, so
    // the heuristic below is skipped.
    MAGICDB_RETURN_IF_ERROR(
        sorter_->SpillRun(&rows, &row_keys, base_seq_, &charged_bytes_, ctx));
    return sorter_->FinishInput(ctx);
  }

  const int64_t n = static_cast<int64_t>(rows.size());
  std::vector<int64_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    for (size_t k = 0; k < keys_.size(); ++k) {
      const int c = row_keys[a][k].Compare(row_keys[b][k]);
      if (c != 0) return keys_[k].ascending ? c < 0 : c > 0;
    }
    return a < b;  // stable tiebreak
  });
  sorted_.reserve(rows.size());
  for (int64_t i : order) sorted_.push_back(std::move(rows[i]));
  // The key tuples die with this scope: stop charging for them.
  row_keys.clear();
  ctx->ReleaseMemory(key_bytes);
  charged_bytes_ -= key_bytes;

  // External passes when the input exceeds the memory budget: one full
  // write + read of the data per predicted pass.
  if (bytes > ctx->memory_budget_bytes()) {
    const int64_t passes =
        SpillPasses(static_cast<double>(bytes),
                    static_cast<double>(ctx->memory_budget_bytes()));
    const int64_t pages =
        PagesForRows(n, std::max<int64_t>(1, bytes / std::max<int64_t>(1, n)));
    ctx->counters().pages_written += pages * passes;
    ctx->counters().pages_read += pages * passes;
  }
  return Status::OK();
}

Status SortOp::NextRow(Tuple* out, bool* eof) {
  if (sorter_ != nullptr) return sorter_->Next(out, eof);
  if (next_ >= sorted_.size()) {
    *eof = true;
    return Status::OK();
  }
  // The row leaves the sort's buffer: hand it over and its charge with it.
  Tuple& row = sorted_[next_++];
  const int64_t row_bytes = TupleByteWidth(row);
  ctx_->ReleaseMemory(row_bytes);
  charged_bytes_ -= row_bytes;
  *out = std::move(row);
  *eof = false;
  return Status::OK();
}

Status SortOp::Close() {
  sorted_.clear();
  sorter_.reset();
  if (ctx_ != nullptr) {
    ctx_->ReleaseMemory(charged_bytes_);
    charged_bytes_ = 0;
  }
  return Status::OK();
}

std::string SortOp::Describe() const {
  std::string s = "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) s += ", ";
    s += keys_[i].expr->ToString();
    if (!keys_[i].ascending) s += " DESC";
  }
  return s + ")";
}

// ----- LimitOp -----

LimitOp::LimitOp(OpPtr child, int64_t limit)
    : RowOperator(child->schema()), child_(std::move(child)), limit_(limit) {}

Status LimitOp::Open(ExecContext* ctx) {
  produced_ = 0;
  in_.Reset();
  return child_->Open(ctx);
}

Status LimitOp::NextRow(Tuple* out, bool* eof) {
  if (produced_ >= limit_) {
    *eof = true;
    return Status::OK();
  }
  MAGICDB_RETURN_IF_ERROR(in_.Next(child_.get(), /*max_rows=*/1, out, eof));
  if (!*eof) ++produced_;
  return Status::OK();
}

Status LimitOp::Close() { return child_->Close(); }

std::string LimitOp::Describe() const {
  return "Limit(" + std::to_string(limit_) + ")";
}

}  // namespace magicdb
