#ifndef MAGICDB_EXPR_EXPR_H_
#define MAGICDB_EXPR_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/types/schema.h"
#include "src/types/value.h"

namespace magicdb {

class RowBatch;

class Expr;
/// Expressions are immutable and shared between plan alternatives; the
/// optimizer copies plans freely without deep-copying expression trees.
using ExprPtr = std::shared_ptr<const Expr>;

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kComparison,
  kArithmetic,
  kLogical,
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv };
enum class LogicalOp { kAnd, kOr, kNot };

const char* CompareOpName(CompareOp op);
const char* ArithOpName(ArithOp op);

/// Scalar expression over a positional column layout. Column references
/// are resolved indexes into a batch's columns; the SQL binder produces
/// resolved trees.
///
/// Evaluation follows SQL three-valued logic: comparisons and arithmetic
/// over NULL yield NULL; AND/OR use Kleene logic. Predicates treat a NULL
/// result as false.
class Expr {
 public:
  virtual ~Expr() = default;

  ExprKind kind() const { return kind_; }

  /// Result type given that column refs were resolved against a schema at
  /// construction time.
  virtual DataType result_type() const = 0;

  /// Evaluates the expression over every row of `batch`, the only
  /// evaluator. Writes out->at(r) for each row r; a row whose evaluation
  /// errs (a type mismatch the binder missed, e.g. '+' over strings, or
  /// division by zero) gets errs->at(r) = 1 and a NULL value, and
  /// *first_error is set to the error Status if it is still OK. A row whose
  /// *child* erred is poisoned (errs propagates) without recomputing. Both
  /// vectors are assign()-ed to batch.num_rows() entries on entry. When
  /// several rows err, *first_error is the first in this tree's
  /// (child-major) evaluation order. Every kind implements it with tight
  /// column loops.
  virtual void BatchEval(const RowBatch& batch, std::vector<Value>* out,
                         std::vector<uint8_t>* errs,
                         Status* first_error) const = 0;

  /// Collects the distinct column indexes referenced by this tree.
  void CollectColumnRefs(std::vector<int>* out) const;

  /// Returns an equivalent tree with every column index `i` replaced by
  /// `mapping[i]`. Every referenced index must be mapped (>= 0).
  virtual ExprPtr RemapColumns(const std::vector<int>& mapping) const = 0;

  virtual std::string ToString() const = 0;

 protected:
  explicit Expr(ExprKind kind) : kind_(kind) {}

 private:
  virtual void CollectColumnRefsInternal(std::vector<int>* out) const = 0;

  ExprKind kind_;
};

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value value)
      : Expr(ExprKind::kLiteral), value_(std::move(value)) {}

  const Value& value() const { return value_; }
  DataType result_type() const override { return value_.type(); }
  void BatchEval(const RowBatch& batch, std::vector<Value>* out,
                 std::vector<uint8_t>* errs,
                 Status* first_error) const override;
  ExprPtr RemapColumns(const std::vector<int>& mapping) const override;
  std::string ToString() const override { return value_.ToString(); }

 private:
  void CollectColumnRefsInternal(std::vector<int>* out) const override;

  Value value_;
};

class ColumnRefExpr final : public Expr {
 public:
  /// `index` is positional in the input tuple; `name` is for display only.
  ColumnRefExpr(int index, DataType type, std::string name)
      : Expr(ExprKind::kColumnRef),
        index_(index),
        type_(type),
        name_(std::move(name)) {}

  int index() const { return index_; }
  const std::string& name() const { return name_; }
  DataType result_type() const override { return type_; }
  void BatchEval(const RowBatch& batch, std::vector<Value>* out,
                 std::vector<uint8_t>* errs,
                 Status* first_error) const override;
  ExprPtr RemapColumns(const std::vector<int>& mapping) const override;
  std::string ToString() const override;

 private:
  void CollectColumnRefsInternal(std::vector<int>* out) const override;

  int index_;
  DataType type_;
  std::string name_;
};

class ComparisonExpr final : public Expr {
 public:
  ComparisonExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kComparison),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}

  CompareOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  DataType result_type() const override { return DataType::kBool; }
  void BatchEval(const RowBatch& batch, std::vector<Value>* out,
                 std::vector<uint8_t>* errs,
                 Status* first_error) const override;
  ExprPtr RemapColumns(const std::vector<int>& mapping) const override;
  std::string ToString() const override;

 private:
  void CollectColumnRefsInternal(std::vector<int>* out) const override;

  CompareOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class ArithmeticExpr final : public Expr {
 public:
  ArithmeticExpr(ArithOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kArithmetic),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}

  ArithOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  DataType result_type() const override;
  void BatchEval(const RowBatch& batch, std::vector<Value>* out,
                 std::vector<uint8_t>* errs,
                 Status* first_error) const override;
  ExprPtr RemapColumns(const std::vector<int>& mapping) const override;
  std::string ToString() const override;

 private:
  void CollectColumnRefsInternal(std::vector<int>* out) const override;

  ArithOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class LogicalExpr final : public Expr {
 public:
  /// For kNot, `right` is null.
  LogicalExpr(LogicalOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kLogical),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}

  LogicalOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  DataType result_type() const override { return DataType::kBool; }
  void BatchEval(const RowBatch& batch, std::vector<Value>* out,
                 std::vector<uint8_t>* errs,
                 Status* first_error) const override;
  ExprPtr RemapColumns(const std::vector<int>& mapping) const override;
  std::string ToString() const override;

 private:
  void CollectColumnRefsInternal(std::vector<int>* out) const override;

  LogicalOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

// ----- Factory helpers -----

ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumnRef(int index, DataType type, std::string name = "");
/// Column ref resolved against `schema` by dotted name; errors if missing.
StatusOr<ExprPtr> MakeColumnRef(const Schema& schema,
                                const std::string& dotted_name);
ExprPtr MakeComparison(CompareOp op, ExprPtr left, ExprPtr right);
ExprPtr MakeArithmetic(ArithOp op, ExprPtr left, ExprPtr right);
ExprPtr MakeAnd(ExprPtr left, ExprPtr right);
ExprPtr MakeOr(ExprPtr left, ExprPtr right);
ExprPtr MakeNot(ExprPtr operand);

/// AND-combines `conjuncts`; returns nullptr for an empty list.
ExprPtr ConjoinAll(const std::vector<ExprPtr>& conjuncts);

/// Splits an expression into top-level AND conjuncts.
void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out);

/// A comparison of one column with a literal, read with the column on the
/// left: `5 < col` reads as `col > 5`.
struct ColumnComparison {
  int column = -1;
  CompareOp op = CompareOp::kEq;
  const Value* literal = nullptr;  // points into the matched expression
};

/// Matches `col op literal` and `literal op col`; false for anything else.
bool MatchColumnComparison(const Expr& expr, ColumnComparison* out);

/// The interval the top-level conjuncts bound one column to. Only
/// `col op literal` and `literal op col` with op in {=, <, <=, >, >=} and a
/// numeric, non-NULL, non-NaN literal bound a column; `<>`, OR, arithmetic,
/// strings and column-to-column comparisons bound nothing. Of several
/// bounds on one side, the tightest under Value::Compare wins (exclusive
/// over inclusive at equal values). A NULL `lo` or `hi` leaves that side
/// open.
struct ColumnRange {
  int column = -1;
  Value lo;
  bool lo_inclusive = false;
  Value hi;
  bool hi_inclusive = false;
  /// Positions in the conjunct list of the conjuncts folded in.
  std::vector<size_t> conjuncts;
};

/// One range per bounded column, in order of first appearance. The scan's
/// page skipping, the optimizer's range selectivity and its page cost all
/// read the bounds through this one extraction.
std::vector<ColumnRange> ExtractColumnRanges(
    const std::vector<ExprPtr>& conjuncts);

/// Resolved batch-mode input of a subexpression: either a zero-copy view of
/// a batch column (ColumnRefExpr with an in-range index), a single broadcast
/// value (LiteralExpr), or the caller's scratch vectors filled through
/// BatchEval. Lets batch kernels skip the per-row Value copies for the two
/// leaf kinds that dominate real predicates and projections.
struct BatchOperand {
  const std::vector<Value>* col = nullptr;  // column view or filled scratch
  const Value* lit = nullptr;               // broadcast literal
  const std::vector<uint8_t>* errs = nullptr;  // null => no row errored

  const Value& at(size_t i) const { return lit != nullptr ? *lit : (*col)[i]; }
  bool err(size_t i) const { return errs != nullptr && (*errs)[i] != 0; }
};

/// Resolves `expr` against `batch` into `*op`. Zero-copy for literals and
/// in-range column refs; otherwise materializes through expr.BatchEval into
/// the caller-owned scratch vectors (reused across batches) and points the
/// operand at them.
void ResolveBatchOperand(const Expr& expr, const RowBatch& batch,
                         std::vector<Value>* scratch_vals,
                         std::vector<uint8_t>* scratch_errs,
                         Status* first_error, BatchOperand* op);

/// Evaluates `expr` as a predicate over every row of `batch`: on return
/// keep->at(r) is 1 exactly where the result is boolean true (NULL,
/// non-bool and erroring rows count as false) and 0 elsewhere, ready for
/// RowBatch::KeepRows. `vals` and `keep` are caller-owned scratch vectors
/// reused across batches.
void BatchEvalPredicate(const Expr& expr, const RowBatch& batch,
                        std::vector<Value>* vals, std::vector<uint8_t>* keep);

}  // namespace magicdb

#endif  // MAGICDB_EXPR_EXPR_H_
