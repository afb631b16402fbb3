#include "src/exec/scan_ops.h"

#include <algorithm>

#include "src/common/failpoint.h"

namespace magicdb {

namespace {

// Rows read or skipped between two cancellation checks, at most.
constexpr int64_t kCancelCheckRows = 1024;

}  // namespace

SeqScanOp::SeqScanOp(const Table* table, const std::string& alias,
                     ExprPtr predicate)
    : Operator(alias.empty() ? table->schema()
                             : table->schema().WithQualifier(alias)),
      table_(table),
      predicate_(std::move(predicate)) {
  const int num_cols = schema_.num_columns();
  if (predicate_ == nullptr) {
    for (int c = 0; c < num_cols; ++c) read_cols_.push_back(c);
    return;
  }
  predicate_->CollectColumnRefs(&read_cols_);
  for (int c = 0; c < num_cols; ++c) {
    if (!std::binary_search(read_cols_.begin(), read_cols_.end(), c)) {
      survivor_cols_.push_back(c);
    }
  }
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(predicate_, &conjuncts);
  for (ColumnRange& r : ExtractColumnRanges(conjuncts)) {
    if (r.column >= 0 && r.column < num_cols &&
        (schema_.column(r.column).type == DataType::kInt64 ||
         schema_.column(r.column).type == DataType::kDouble)) {
      bounds_.push_back(std::move(r));
    }
  }
}

Status SeqScanOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  next_row_ = 0;
  have_morsel_ = false;
  return Status::OK();
}

bool SeqScanOp::SkipPage(int64_t page) const {
  for (const ColumnRange& r : bounds_) {
    const ZoneEntry& z = table_->zones(r.column)[static_cast<size_t>(page)];
    if (z.has_nan) continue;
    if (!z.has_value) return true;
    if (!r.lo.is_null()) {
      const int c = z.max.Compare(r.lo);
      if (c < 0 || (c == 0 && !r.lo_inclusive)) return true;
    }
    if (!r.hi.is_null()) {
      const int c = z.min.Compare(r.hi);
      if (c > 0 || (c == 0 && !r.hi_inclusive)) return true;
    }
  }
  return false;
}

Status SeqScanOp::ReadRows(RowBatch* out, bool* eof) {
  out->ResetForWrite(schema_.num_columns());
  *eof = false;
  if (morsels_ != nullptr) out->EnableRanks();
  // A filtering scan keeps each row's table position in pos() even without
  // ranks, to copy the survivors' remaining columns.
  const bool keep_pos = morsels_ != nullptr || predicate_ != nullptr;
  const int64_t rpp = table_->rows_per_page();
  int64_t unchecked = 0;
  while (!out->full()) {
    if (unchecked >= kCancelCheckRows) {
      MAGICDB_RETURN_IF_ERROR(ctx_->CheckCancelled());
      unchecked = 0;
    }
    int64_t chunk_end;
    if (morsels_ != nullptr) {
      if (!have_morsel_ || next_row_ >= morsel_.end) {
        // Morsel claims are the scan's cancellation checkpoint in parallel
        // mode: a cancelled worker stops claiming work and unwinds before
        // its next barrier, letting the abort path release its peers.
        MAGICDB_RETURN_IF_ERROR(ctx_->CheckCancelled());
        if (!morsels_->Next(&morsel_)) {
          *eof = true;
          break;
        }
        have_morsel_ = true;
        next_row_ = morsel_.begin;
      }
      chunk_end = morsel_.end;
    } else {
      if (next_row_ >= table_->NumRows()) {
        *eof = true;
        break;
      }
      chunk_end = table_->NumRows();
    }
    const int64_t room = out->capacity() - out->num_rows();
    int64_t chunk = std::min(room, chunk_end - next_row_);
    if (!bounds_.empty()) {
      // Every page start consults the zone map: skip the page, or read on
      // to the next page the zones rule out. Morsels are page-aligned, so
      // the decisions are the same at any DoP.
      int64_t run_end = (next_row_ / rpp + 1) * rpp;
      if (next_row_ % rpp == 0 && SkipPage(next_row_ / rpp)) {
        const int64_t skipped = std::min(run_end, chunk_end) - next_row_;
        next_row_ += skipped;
        unchecked += skipped;
        continue;
      }
      while (run_end < next_row_ + chunk && !SkipPage(run_end / rpp)) {
        run_end += rpp;
      }
      chunk = std::min(chunk, run_end - next_row_);
    }
    // One page charge for every page boundary in
    // [next_row_, next_row_ + chunk). Morsels are page-aligned, so the
    // totals match a front-to-back scan at any DoP.
    const int64_t first_boundary = ((next_row_ + rpp - 1) / rpp) * rpp;
    for (int64_t b = first_boundary; b < next_row_ + chunk; b += rpp) {
      MAGICDB_FAILPOINT("storage.page_read");
      ctx_->counters().pages_read += 1;
    }
    // Column-wise copy into the batch: one output column at a time, so
    // each inner loop appends to a single vector.
    for (int c : read_cols_) {
      std::vector<Value>& col = out->column(c);
      col.reserve(static_cast<size_t>(out->num_rows() + chunk));
      for (int64_t i = 0; i < chunk; ++i) {
        col.push_back(table_->row(next_row_ + i)[static_cast<size_t>(c)]);
      }
    }
    if (keep_pos) {
      for (int64_t i = 0; i < chunk; ++i) out->pos().push_back(next_row_ + i);
    }
    if (morsels_ != nullptr) out->sub().resize(out->pos().size(), 0);
    out->set_num_rows(out->num_rows() + static_cast<int32_t>(chunk));
    ctx_->counters().tuples_processed += chunk;
    next_row_ += chunk;
    unchecked += chunk;
  }
  // And one check per batch: every blocking loop bottoms out at a scan, so
  // a cancelled query unwinds within one batch of rows.
  return ctx_->CheckCancelled();
}

Status SeqScanOp::NextBatch(RowBatch* out, bool* eof) {
  while (true) {
    MAGICDB_RETURN_IF_ERROR(ReadRows(out, eof));
    if (predicate_ == nullptr) return Status::OK();
    const int32_t n = out->num_rows();
    if (n > 0) {
      // One predicate evaluation per row read. The columns it does not
      // read hold NULL placeholders until the survivors' values arrive.
      ctx_->counters().exprs_evaluated += n;
      for (int c : survivor_cols_) {
        out->column(c).resize(static_cast<size_t>(n));
      }
      BatchEvalPredicate(*predicate_, *out, &pred_vals_, &pred_keep_);
      const std::vector<int64_t>& rows = out->pos();
      for (int c : survivor_cols_) {
        std::vector<Value>& col = out->column(c);
        for (size_t i = 0; i < pred_keep_.size(); ++i) {
          if (pred_keep_[i]) {
            col[i] = table_->row(rows[i])[static_cast<size_t>(c)];
          }
        }
      }
      out->KeepRows(pred_keep_);
      if (morsels_ == nullptr) out->pos().clear();
    }
    // Never hand an empty non-final batch upward; keep reading instead.
    if (out->num_rows() > 0 || *eof) return Status::OK();
  }
}

Status SeqScanOp::Close() { return Status::OK(); }

std::string SeqScanOp::Describe() const {
  std::string s = "SeqScan(" + table_->name() +
                  ", rows=" + std::to_string(table_->NumRows());
  if (predicate_ != nullptr) s += ", filter=" + predicate_->ToString();
  return s + ")";
}

OrderedIndexScanOp::OrderedIndexScanOp(const Table* table,
                                       const OrderedIndex* index,
                                       const std::string& alias)
    : RowOperator(alias.empty() ? table->schema()
                                : table->schema().WithQualifier(alias)),
      table_(table),
      index_(index) {}

Status OrderedIndexScanOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  next_ = 0;
  rows_per_page_ = RowsPerPage(table_->schema().TupleWidthBytes());
  row_order_ = index_->Range({}, {});
  ctx->counters().pages_read += index_->ModelledHeight();
  return Status::OK();
}

Status OrderedIndexScanOp::NextRow(Tuple* out, bool* eof) {
  if (next_ >= static_cast<int64_t>(row_order_.size())) {
    *eof = true;
    return Status::OK();
  }
  if (next_ % rows_per_page_ == 0) {
    ctx_->counters().pages_read += 1;
  }
  ctx_->counters().tuples_processed += 1;
  *out = table_->row(row_order_[next_++]);
  *eof = false;
  return Status::OK();
}

Status OrderedIndexScanOp::Close() {
  row_order_.clear();
  return Status::OK();
}

std::string OrderedIndexScanOp::Describe() const {
  return "OrderedIndexScan(" + table_->name() + ")";
}

FilterSetScanOp::FilterSetScanOp(std::string binding_id, Schema schema)
    : RowOperator(std::move(schema)), binding_id_(std::move(binding_id)) {}

Status FilterSetScanOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  next_row_ = 0;
  MAGICDB_ASSIGN_OR_RETURN(binding_, ctx->GetFilterSet(binding_id_));
  if (binding_->is_bloom()) {
    return Status::Internal(
        "filter set " + binding_id_ +
        " is a Bloom filter and cannot be scanned as a relation");
  }
  rows_per_page_ = RowsPerPage(schema_.TupleWidthBytes());
  return Status::OK();
}

Status FilterSetScanOp::NextRow(Tuple* out, bool* eof) {
  if (next_row_ >= binding_->NumKeys()) {
    *eof = true;
    return Status::OK();
  }
  if (next_row_ % rows_per_page_ == 0) {
    ctx_->counters().pages_read += 1;
  }
  ctx_->counters().tuples_processed += 1;
  *out = binding_->keys()[next_row_++];
  *eof = false;
  return Status::OK();
}

Status FilterSetScanOp::Close() { return Status::OK(); }

std::string FilterSetScanOp::Describe() const {
  return "FilterSetScan(" + binding_id_ + ")";
}

}  // namespace magicdb
