#ifndef MAGICDB_EXEC_BASIC_OPS_H_
#define MAGICDB_EXEC_BASIC_OPS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/hash_table.h"
#include "src/exec/operator.h"
#include "src/expr/expr.h"
#include "src/spill/external_sorter.h"

namespace magicdb {

/// Drops tuples failing `predicate` (NULL counts as failing).
class FilterOp final : public Operator {
 public:
  FilterOp(OpPtr child, ExprPtr predicate);

  Status Open(ExecContext* ctx) override;
  /// Pulls the child's batch into `out` and keeps the rows a vectorized
  /// predicate pass accepts, gathered dense with their rank tags.
  Status NextBatch(RowBatch* out, bool* eof) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

 private:
  OpPtr child_;
  BatchFilter filter_;
  ExecContext* ctx_ = nullptr;
};

/// Computes output columns from expressions over the child tuple.
class ProjectOp final : public Operator {
 public:
  ProjectOp(OpPtr child, std::vector<ExprPtr> exprs, Schema schema);

  Status Open(ExecContext* ctx) override;
  /// Each output column is one BatchEval over the child batch; the input's
  /// rank tags copy through. A bare column reference whose column no other
  /// output reads moves the child's column into the output instead of
  /// copying it.
  Status NextBatch(RowBatch* out, bool* eof) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

 private:
  OpPtr child_;
  std::vector<ExprPtr> exprs_;
  // Per output: the child column it moves, or -1 when it is computed or
  // copied.
  std::vector<int> move_from_;
  ExecContext* ctx_ = nullptr;
  // Child batch + per-column value/error scratch.
  std::unique_ptr<RowBatch> in_batch_;
  std::vector<Value> col_vals_;
  std::vector<uint8_t> col_errs_;
};

/// Hash-based duplicate elimination over whole tuples. The retained
/// distinct rows are governed memory, charged as they are kept and released
/// at Close; with no spill path, a breach fails the query with
/// kResourceExhausted.
class DistinctOp final : public RowOperator {
 public:
  explicit DistinctOp(OpPtr child);

  Status Open(ExecContext* ctx) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

 private:
  Status NextRow(Tuple* out, bool* eof) override;

  OpPtr child_;
  RowReader in_;
  HashTable<Tuple> seen_;
  int64_t charged_bytes_ = 0;
};

/// Full sort on key expressions. Each key is evaluated once per row, by one
/// BatchEval over each drained batch; if the input exceeds the context
/// memory budget, the predicted external merge passes are charged (write +
/// read of all pages per pass). The buffered
/// input is governed memory: rows and their key tuples are charged as they
/// are buffered, the key bytes are released once an in-memory sort drops
/// the keys, and each row's bytes are released as it is emitted. When the
/// buffer breaches the query's hard limit and spilling is enabled, the sort
/// degrades to an external merge sort (sorted runs on disk + k-way merge)
/// with byte-identical output.
class SortOp final : public RowOperator {
 public:
  struct SortKey {
    ExprPtr expr;
    bool ascending = true;
  };

  SortOp(OpPtr child, std::vector<SortKey> keys);

  Status Open(ExecContext* ctx) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

 private:
  Status NextRow(Tuple* out, bool* eof) override;

  OpPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Tuple> sorted_;
  size_t next_ = 0;
  // Bytes still charged for buffered rows (and, until the sort drops them,
  // their key tuples); the remainder is released on Close.
  int64_t charged_bytes_ = 0;
  // External merge sort, engaged on a governed memory breach.
  std::unique_ptr<ExternalSorter> sorter_;
  int64_t base_seq_ = 0;
};

/// Emits at most `limit` tuples. Asks its child for one row at a time, so
/// a LIMIT query does no work past the rows it returns.
class LimitOp final : public RowOperator {
 public:
  LimitOp(OpPtr child, int64_t limit);

  Status Open(ExecContext* ctx) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

 private:
  Status NextRow(Tuple* out, bool* eof) override;

  OpPtr child_;
  RowReader in_;
  int64_t limit_;
  int64_t produced_ = 0;
};

}  // namespace magicdb

#endif  // MAGICDB_EXEC_BASIC_OPS_H_
