#include "src/exec/scan_ops.h"

#include <algorithm>

#include "src/common/failpoint.h"

namespace magicdb {

SeqScanOp::SeqScanOp(const Table* table, const std::string& alias)
    : Operator(alias.empty() ? table->schema()
                             : table->schema().WithQualifier(alias)),
      table_(table) {}

Status SeqScanOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  next_row_ = 0;
  have_morsel_ = false;
  rows_per_page_ = RowsPerPage(table_->schema().TupleWidthBytes());
  return Status::OK();
}

Status SeqScanOp::NextBatch(RowBatch* out, bool* eof) {
  const int num_cols = schema_.num_columns();
  out->ResetForWrite(num_cols);
  *eof = false;
  if (morsels_ != nullptr) out->EnableRanks();
  while (!out->full()) {
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
    const int64_t chunk = std::min(room, chunk_end - next_row_);
    // One page charge for every page boundary in
    // [next_row_, next_row_ + chunk). Morsels are page-aligned, so the
    // totals match a front-to-back scan at any DoP.
    const int64_t first_boundary =
        ((next_row_ + rows_per_page_ - 1) / rows_per_page_) * rows_per_page_;
    for (int64_t b = first_boundary; b < next_row_ + chunk;
         b += rows_per_page_) {
      MAGICDB_FAILPOINT("storage.page_read");
      ctx_->counters().pages_read += 1;
    }
    // Column-wise copy into the batch: one output column at a time, so
    // each inner loop appends to a single vector.
    for (int c = 0; c < num_cols; ++c) {
      std::vector<Value>& col = out->column(c);
      col.reserve(static_cast<size_t>(out->num_rows() + chunk));
      for (int64_t i = 0; i < chunk; ++i) {
        col.push_back(table_->row(next_row_ + i)[static_cast<size_t>(c)]);
      }
    }
    if (morsels_ != nullptr) {
      for (int64_t i = 0; i < chunk; ++i) {
        out->pos().push_back(next_row_ + i);
        out->sub().push_back(0);
      }
    }
    out->set_num_rows(out->num_rows() + static_cast<int32_t>(chunk));
    ctx_->counters().tuples_processed += chunk;
    next_row_ += chunk;
  }
  // One cancellation check per batch: every blocking loop bottoms out at a
  // scan, so a cancelled query unwinds within one batch of rows.
  return ctx_->CheckCancelled();
}

Status SeqScanOp::Close() { return Status::OK(); }

std::string SeqScanOp::Describe() const {
  return "SeqScan(" + table_->name() + ", rows=" +
         std::to_string(table_->NumRows()) + ")";
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
