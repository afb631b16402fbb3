#ifndef MAGICDB_EXEC_SCAN_OPS_H_
#define MAGICDB_EXEC_SCAN_OPS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/exec/operator.h"
#include "src/expr/expr.h"
#include "src/parallel/morsel.h"
#include "src/storage/table.h"

namespace magicdb {

/// Full scan of a stored table. Charges one page read per page boundary
/// crossed plus CPU per tuple. The table's schema may be re-qualified with
/// an alias ("Emp E").
///
/// An optional predicate (over the table's columns) filters inside the
/// scan. Its top-level bounds (ExtractColumnRanges) on INT and DOUBLE
/// columns are checked against the table's zone map at every page start: a
/// page where some bounded column holds no non-NULL value, or whose
/// [min, max] lies outside the bound, is skipped and charges nothing (a
/// page holding a NaN in the column is never skipped on it). On a page
/// that is read, each row copies a value at most once:
///
///   1. the *kernel* conjuncts, `col op literal` or `literal op col` over
///      an INT or DOUBLE column and a non-NULL INT or DOUBLE literal, are
///      tested on the stored values, in the orientation they are written
///      (Value::Compare is not antisymmetric on NaN), without a copy;
///   2. the other conjuncts, ANDed into the residual, run as one
///      BatchEvalPredicate over the kernel survivors, for which only the
///      residual's columns are copied;
///   3. the remaining columns are copied for the final survivors.
///
/// A predicate without kernel conjuncts makes every row read a candidate.
/// The scan charges what FilterOp over an unfiltered scan charges for the
/// rows it reads (a page read, a tuple and an expression evaluation per
/// row).
///
/// With a MorselSource attached (parallel execution), the scan claims
/// page-aligned morsels from the shared source instead of walking the table
/// front to back: the plan replicas of all workers collectively produce
/// every row exactly once, and the per-row page-boundary charge sums to
/// exactly the sequential scan's page count.
class SeqScanOp final : public Operator {
 public:
  /// `alias` empty keeps the table's own qualifier.
  SeqScanOp(const Table* table, const std::string& alias = "",
            ExprPtr predicate = nullptr);

  Status Open(ExecContext* ctx) override;
  /// Column-wise copies with a cancellation check at least once per 1,024
  /// rows read or skipped, and once per batch (morsel claims keep their own
  /// checkpoint). Reads rows until a batch's worth of them pass the kernel
  /// (every row read, without one), keeps those that pass the residual, and
  /// like FilterOp never returns an empty batch that is not the last. In
  /// morsel mode the batch carries (pos, sub) = (global row, 0) rank tags,
  /// which the result sink's lane merge uses to restore sequential output
  /// order across workers.
  Status NextBatch(RowBatch* out, bool* eof) override;
  Status Close() override;
  std::string Describe() const override;

  const Table* table() const { return table_; }

  /// Switches the scan to morsel-driven mode. The source must be shared by
  /// every plan replica scanning this site and be page-aligned for this
  /// table's row width. Call before Open; Open does not reset the source
  /// (the morsel cursor is query-global, not per-replica).
  void AttachMorselSource(std::shared_ptr<MorselSource> source) {
    morsels_ = std::move(source);
  }

 private:
  /// A kernel conjunct: `column op literal`, or `literal op column` when
  /// `literal_left`.
  struct KernelConjunct {
    int column = -1;
    CompareOp op = CompareOp::kEq;
    bool literal_left = false;
    bool literal_int = false;
    int64_t int_literal = 0;
    double double_literal = 0.0;  // the literal as a double, either type

    /// The conjunct over the stored value `v`, compared exactly as
    /// Value::Compare's numeric branch does; NULL fails.
    bool Holds(const Value& v) const;
  };

  /// Reads rows from the pages the zones do not rule out until `capacity`
  /// of them pass the kernel, or the input ends, and leaves their table
  /// positions in `rows_`. Copies nothing.
  Status ReadRows(int32_t capacity, bool* eof);
  /// True when the zone map proves no row of `page` satisfies the bounds.
  bool SkipPage(int64_t page) const;
  /// Appends column `c` of every row in `rows_` to out->column(c).
  void CopyColumn(int c, RowBatch* out) const;

  const Table* table_;
  ExprPtr predicate_;
  std::vector<ColumnRange> bounds_;  // on zone-mapped columns only
  std::vector<KernelConjunct> kernel_;
  ExprPtr residual_;                 // the other conjuncts; may be null
  std::vector<int> residual_cols_;   // copied for kernel survivors
  std::vector<int> output_cols_;     // copied for final survivors
  ExecContext* ctx_ = nullptr;
  int64_t next_row_ = 0;
  std::shared_ptr<MorselSource> morsels_;
  Morsel morsel_;
  bool have_morsel_ = false;
  // Scratch reused across batches: candidate positions and the residual's
  // vectorized pass.
  std::vector<int64_t> rows_;
  std::vector<Value> pred_vals_;
  std::vector<uint8_t> pred_keep_;
};

/// Scans a stored table in the key order of one of its ordered indexes —
/// an access path that *provides* an interesting order (a downstream
/// sort-merge join can skip its sort). Charged like a clustered index
/// traversal: the tree height at open plus the table's pages.
class OrderedIndexScanOp final : public RowOperator {
 public:
  OrderedIndexScanOp(const Table* table, const OrderedIndex* index,
                     const std::string& alias = "");

  Status Open(ExecContext* ctx) override;
  Status Close() override;
  std::string Describe() const override;

 private:
  Status NextRow(Tuple* out, bool* eof) override;

  const Table* table_;
  const OrderedIndex* index_;
  std::vector<int64_t> row_order_;
  int64_t next_ = 0;
  int64_t rows_per_page_ = 1;
};

/// Scans the distinct key tuples of a bound (exact) filter set — the
/// "Filter" relation in the magic rewrite of Figure 2. Bloom bindings
/// cannot be scanned; Open fails for them.
class FilterSetScanOp final : public RowOperator {
 public:
  FilterSetScanOp(std::string binding_id, Schema schema);

  Status Open(ExecContext* ctx) override;
  Status Close() override;
  std::string Describe() const override;

 private:
  Status NextRow(Tuple* out, bool* eof) override;

  std::string binding_id_;
  std::shared_ptr<FilterSetBinding> binding_;
  int64_t next_row_ = 0;
  int64_t rows_per_page_ = 1;
};

}  // namespace magicdb

#endif  // MAGICDB_EXEC_SCAN_OPS_H_
