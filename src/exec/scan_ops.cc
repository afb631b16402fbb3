#include "src/exec/scan_ops.h"

#include <algorithm>

#include "src/common/failpoint.h"

namespace magicdb {

namespace {

// Rows read or skipped between two cancellation checks, at most.
constexpr int64_t kCancelCheckRows = 1024;

template <typename T>
int ThreeWay(T a, T b) {
  return a == b ? 0 : (a < b ? -1 : 1);
}

bool NumericColumn(const Schema& schema, int c) {
  return c >= 0 && c < schema.num_columns() &&
         (schema.column(c).type == DataType::kInt64 ||
          schema.column(c).type == DataType::kDouble);
}

}  // namespace

bool SeqScanOp::KernelConjunct::Holds(const Value& v) const {
  // Value::Compare's numeric branch: exact when both sides are INT, else
  // over doubles. Each side stays where the conjunct wrote it, since a NaN
  // compares as greater from either side.
  int c;
  switch (v.type()) {
    case DataType::kInt64:
      if (literal_int) {
        c = literal_left ? ThreeWay(int_literal, v.AsInt64())
                         : ThreeWay(v.AsInt64(), int_literal);
        break;
      }
      c = literal_left
              ? ThreeWay(double_literal, static_cast<double>(v.AsInt64()))
              : ThreeWay(static_cast<double>(v.AsInt64()), double_literal);
      break;
    case DataType::kDouble:
      c = literal_left ? ThreeWay(double_literal, v.AsDouble())
                       : ThreeWay(v.AsDouble(), double_literal);
      break;
    default:
      return false;  // NULL: a stored INT or DOUBLE column holds nothing else
  }
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

SeqScanOp::SeqScanOp(const Table* table, const std::string& alias,
                     ExprPtr predicate)
    : Operator(alias.empty() ? table->schema()
                             : table->schema().WithQualifier(alias)),
      table_(table),
      predicate_(std::move(predicate)) {
  const int num_cols = schema_.num_columns();
  std::vector<ExprPtr> conjuncts;
  if (predicate_ != nullptr) SplitConjuncts(predicate_, &conjuncts);
  std::vector<ExprPtr> residual;
  for (const ExprPtr& conjunct : conjuncts) {
    ColumnComparison match;
    if (!MatchColumnComparison(*conjunct, &match) ||
        !NumericColumn(schema_, match.column) ||
        (match.literal->type() != DataType::kInt64 &&
         match.literal->type() != DataType::kDouble)) {
      residual.push_back(conjunct);
      continue;
    }
    // The operator as written, not the match's column-on-the-left reading.
    const auto& cmp = static_cast<const ComparisonExpr&>(*conjunct);
    KernelConjunct k;
    k.column = match.column;
    k.op = cmp.op();
    k.literal_left = cmp.left()->kind() == ExprKind::kLiteral;
    k.literal_int = match.literal->type() == DataType::kInt64;
    if (k.literal_int) k.int_literal = match.literal->AsInt64();
    k.double_literal = k.literal_int ? static_cast<double>(k.int_literal)
                                     : match.literal->AsDouble();
    kernel_.push_back(k);
  }
  residual_ = ConjoinAll(residual);
  if (residual_ != nullptr) residual_->CollectColumnRefs(&residual_cols_);
  for (int c = 0; c < num_cols; ++c) {
    if (!std::binary_search(residual_cols_.begin(), residual_cols_.end(), c)) {
      output_cols_.push_back(c);
    }
  }
  for (ColumnRange& r : ExtractColumnRanges(conjuncts)) {
    if (NumericColumn(schema_, r.column)) bounds_.push_back(std::move(r));
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

Status SeqScanOp::ReadRows(int32_t capacity, bool* eof) {
  rows_.clear();
  *eof = false;
  const size_t want = static_cast<size_t>(capacity);
  const int64_t rpp = table_->rows_per_page();
  int64_t unchecked = 0;
  while (rows_.size() < want) {
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
    // Read no further than the next cancellation check.
    int64_t end = std::min(chunk_end, next_row_ + kCancelCheckRows - unchecked);
    if (!bounds_.empty()) {
      // Every page start consults the zone map: skip the page, or read on
      // within it. Morsels are page-aligned, so the decisions are the same
      // at any DoP.
      const int64_t page_end = (next_row_ / rpp + 1) * rpp;
      if (next_row_ % rpp == 0 && SkipPage(next_row_ / rpp)) {
        const int64_t skipped = std::min(page_end, chunk_end) - next_row_;
        next_row_ += skipped;
        unchecked += skipped;
        continue;
      }
      end = std::min(end, page_end);
    }
    const int64_t begin = next_row_;
    int64_t r = begin;
    if (kernel_.empty()) {
      r = std::min(end, begin + static_cast<int64_t>(want - rows_.size()));
      for (int64_t i = begin; i < r; ++i) rows_.push_back(i);
    } else {
      for (; r < end && rows_.size() < want; ++r) {
        const Tuple& row = table_->row(r);
        bool pass = true;
        for (const KernelConjunct& k : kernel_) {
          if (!k.Holds(row[static_cast<size_t>(k.column)])) {
            pass = false;
            break;
          }
        }
        if (pass) rows_.push_back(r);
      }
    }
    // One page charge for every page boundary in [begin, r). Morsels are
    // page-aligned, so the totals match a front-to-back scan at any DoP.
    const int64_t first_boundary = ((begin + rpp - 1) / rpp) * rpp;
    for (int64_t b = first_boundary; b < r; b += rpp) {
      MAGICDB_FAILPOINT("storage.page_read");
      ctx_->counters().pages_read += 1;
    }
    ctx_->counters().tuples_processed += r - begin;
    // A filtering scan charges one predicate evaluation per row read.
    if (predicate_ != nullptr) ctx_->counters().exprs_evaluated += r - begin;
    next_row_ = r;
    unchecked += r - begin;
  }
  // And one check per batch: every blocking loop bottoms out at a scan, so
  // a cancelled query unwinds within one batch of rows.
  return ctx_->CheckCancelled();
}

void SeqScanOp::CopyColumn(int c, RowBatch* out) const {
  std::vector<Value>& col = out->column(c);
  col.reserve(col.size() + rows_.size());
  const auto ci = static_cast<size_t>(c);
  for (int64_t r : rows_) col.push_back(table_->row(r)[ci]);
}

Status SeqScanOp::NextBatch(RowBatch* out, bool* eof) {
  while (true) {
    out->ResetForWrite(schema_.num_columns());
    MAGICDB_RETURN_IF_ERROR(ReadRows(out->capacity(), eof));
    if (residual_ != nullptr && !rows_.empty()) {
      // While the residual runs, only its own columns hold values; it reads
      // no other column.
      for (int c : residual_cols_) CopyColumn(c, out);
      out->set_num_rows(static_cast<int32_t>(rows_.size()));
      BatchEvalPredicate(*residual_, *out, &pred_vals_, &pred_keep_);
      size_t n = 0;
      for (size_t i = 0; i < rows_.size(); ++i) {
        if (pred_keep_[i] == 0) continue;
        if (i != n) {
          rows_[n] = rows_[i];
          for (int c : residual_cols_) {
            std::vector<Value>& col = out->column(c);
            col[n] = std::move(col[i]);
          }
        }
        ++n;
      }
      rows_.resize(n);
      for (int c : residual_cols_) out->column(c).resize(n);
    }
    for (int c : output_cols_) CopyColumn(c, out);
    out->set_num_rows(static_cast<int32_t>(rows_.size()));
    if (morsels_ != nullptr) {
      out->EnableRanks();
      out->pos().assign(rows_.begin(), rows_.end());
      out->sub().assign(rows_.size(), 0);
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
