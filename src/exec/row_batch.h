#ifndef MAGICDB_EXEC_ROW_BATCH_H_
#define MAGICDB_EXEC_ROW_BATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/types/tuple.h"
#include "src/types/value.h"

namespace magicdb {

/// Column-oriented batch of rows, the unit operators exchange through
/// Operator::NextBatch. Layout:
///
///   - `num_cols` column vectors of Value, all `num_rows` long. Every row
///     of a batch is live: a filter keeps its survivors by gathering them
///     to the front (KeepRows), so consumers loop over 0..num_rows()
///     without an indirection;
///   - optional *rank* vectors (pos, sub), one entry per row, carrying the
///     deterministic (position, sub-rank) tags the result sink's lane merge
///     orders by. Scans fill pos with the global row index; rank-preserving
///     operators copy them through.
///
/// A batch is an arena the producing operator overwrites every iteration:
/// consumers must finish with (or move out of) a batch before pulling the
/// next one. Capacity is fixed at construction (ExecOptions::batch_size)
/// and survives ResetForWrite.
class RowBatch {
 public:
  static constexpr int32_t kDefaultCapacity = 1024;

  explicit RowBatch(int32_t capacity = kDefaultCapacity)
      : capacity_(capacity > 0 ? capacity : kDefaultCapacity) {}

  int32_t capacity() const { return capacity_; }
  int32_t num_cols() const { return static_cast<int32_t>(columns_.size()); }
  int32_t num_rows() const { return num_rows_; }
  bool full() const { return num_rows_ >= capacity_; }

  /// Clears rows and ranks; (re)shapes to `num_cols` columns.
  /// Column storage is retained so steady-state iterations do not allocate.
  void ResetForWrite(int num_cols) {
    columns_.resize(static_cast<size_t>(num_cols));
    for (auto& col : columns_) col.clear();
    num_rows_ = 0;
    has_ranks_ = false;
    pos_.clear();
    sub_.clear();
  }

  std::vector<Value>& column(int c) { return columns_[static_cast<size_t>(c)]; }
  const std::vector<Value>& column(int c) const {
    return columns_[static_cast<size_t>(c)];
  }

  /// Appends one row by moving the tuple's values column-wise (how
  /// row-at-a-time operators fill their batches). The tuple must have
  /// num_cols() values.
  void AppendTuple(Tuple&& t) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].push_back(std::move(t[c]));
    }
    ++num_rows_;
  }

  /// Appends one join output row: the values of `outer`, then those of
  /// `inner`, copied straight into the columns. num_cols() must be
  /// outer.size() + inner.size().
  void AppendJoined(const Tuple& outer, const Tuple& inner) {
    auto col = columns_.begin();
    for (const Value& v : outer) (col++)->push_back(v);
    for (const Value& v : inner) (col++)->push_back(v);
    ++num_rows_;
  }

  /// AppendJoined with the outer values read from row `row` of `outer`.
  void AppendJoined(const RowBatch& outer, int32_t row, const Tuple& inner) {
    auto col = columns_.begin();
    for (const std::vector<Value>& src : outer.columns_) {
      (col++)->push_back(src[static_cast<size_t>(row)]);
    }
    for (const Value& v : inner) (col++)->push_back(v);
    ++num_rows_;
  }

  /// Bulk-write protocol: an operator that fills column vectors directly
  /// (e.g. the scan's column-wise page copy) declares the new row count
  /// afterwards. Every column must be `n` long.
  void set_num_rows(int32_t n) { num_rows_ = n; }

  /// Keeps the rows whose `keep` entry is nonzero: gathers them, with
  /// their pos()/sub() entries, to the front in order and shrinks the
  /// batch to the survivor count. `keep` has num_rows() entries. Filters
  /// call it after their predicate pass, so every batch that leaves an
  /// operator is dense.
  void KeepRows(const std::vector<uint8_t>& keep);

  // -- Rank tags (lane-merge ordering) --------------------------------------

  bool has_ranks() const { return has_ranks_; }
  /// Enables the (pos, sub) rank vectors; the producer appends one entry
  /// per row it emits.
  void EnableRanks() { has_ranks_ = true; }
  std::vector<int64_t>& pos() { return pos_; }
  const std::vector<int64_t>& pos() const { return pos_; }
  std::vector<int64_t>& sub() { return sub_; }
  const std::vector<int64_t>& sub() const { return sub_; }

  // -- Row-form conversion --------------------------------------------------

  /// Moves row `r` out of the batch into `*t` (resized to num_cols()). The
  /// row's slots are left NULL; callers do this only on a batch they will
  /// Reset (or discard) before reuse.
  void MoveRowToTuple(int32_t r, Tuple* t);

  /// Appends every row to `*out` as tuples, moving the values out.
  void MoveActiveToTuples(std::vector<Tuple>* out);

 private:
  int32_t capacity_;
  int32_t num_rows_ = 0;
  std::vector<std::vector<Value>> columns_;
  bool has_ranks_ = false;
  std::vector<int64_t> pos_;
  std::vector<int64_t> sub_;
};

/// Row-wise helpers over batch columns, mirroring their Tuple counterparts
/// (TupleByteWidth / TupleHasNullAt / HashTupleColumns) value-for-value so
/// batch loops charge and hash exactly like per-tuple code.
int64_t BatchRowByteWidth(const RowBatch& batch, int32_t row);
bool BatchRowHasNullAt(const RowBatch& batch, int32_t row,
                       const std::vector<int>& indexes);
uint64_t HashBatchRowColumns(const RowBatch& batch, int32_t row,
                             const std::vector<int>& indexes);

/// Process-wide default execution batch size: RowBatch::kDefaultCapacity
/// unless the MAGICDB_TEST_BATCH_SIZE environment variable overrides it (a
/// value below 1 falls back to kDefaultCapacity). check.sh sets the
/// variable to rerun the full test suite at batch size 1, the exact-work
/// reference, and at an odd size.
int64_t DefaultExecBatchSize();

}  // namespace magicdb

#endif  // MAGICDB_EXEC_ROW_BATCH_H_
