#include "src/expr/expr.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "src/common/logging.h"
#include "src/exec/row_batch.h"

namespace magicdb {

namespace {

/// Resets the per-node result vectors: every slot NULL, no errors.
void InitBatchOut(const RowBatch& batch, std::vector<Value>* out,
                  std::vector<uint8_t>* errs) {
  out->assign(static_cast<size_t>(batch.num_rows()), Value());
  errs->assign(static_cast<size_t>(batch.num_rows()), 0);
}

/// Marks row `r` as errored; the first error in evaluation order wins.
void RowError(size_t r, Status s, std::vector<uint8_t>* errs,
              Status* first_error) {
  (*errs)[r] = 1;
  if (first_error->ok()) *first_error = std::move(s);
}

}  // namespace

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

void Expr::CollectColumnRefs(std::vector<int>* out) const {
  CollectColumnRefsInternal(out);
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

// ----- LiteralExpr -----

void LiteralExpr::BatchEval(const RowBatch& batch, std::vector<Value>* out,
                            std::vector<uint8_t>* errs, Status*) const {
  out->assign(static_cast<size_t>(batch.num_rows()), value_);
  errs->assign(static_cast<size_t>(batch.num_rows()), 0);
}

ExprPtr LiteralExpr::RemapColumns(const std::vector<int>&) const {
  return std::make_shared<LiteralExpr>(value_);
}

void LiteralExpr::CollectColumnRefsInternal(std::vector<int>*) const {}

// ----- ColumnRefExpr -----

void ColumnRefExpr::BatchEval(const RowBatch& batch, std::vector<Value>* out,
                              std::vector<uint8_t>* errs,
                              Status* first_error) const {
  const int32_t n = batch.num_rows();
  if (index_ >= 0 && index_ < batch.num_cols()) {
    const std::vector<Value>& col = batch.column(index_);
    out->assign(col.begin(), col.begin() + static_cast<ptrdiff_t>(n));
    errs->assign(static_cast<size_t>(n), 0);
    return;
  }
  InitBatchOut(batch, out, errs);
  const Status oob = Status::Internal(
      "column index " + std::to_string(index_) +
      " out of range for tuple of arity " + std::to_string(batch.num_cols()));
  for (size_t r = 0; r < errs->size(); ++r) {
    RowError(r, oob, errs, first_error);
  }
}

ExprPtr ColumnRefExpr::RemapColumns(const std::vector<int>& mapping) const {
  MAGICDB_CHECK(index_ >= 0 && index_ < static_cast<int>(mapping.size()));
  MAGICDB_CHECK(mapping[index_] >= 0);
  return std::make_shared<ColumnRefExpr>(mapping[index_], type_, name_);
}

void ColumnRefExpr::CollectColumnRefsInternal(std::vector<int>* out) const {
  out->push_back(index_);
}

std::string ColumnRefExpr::ToString() const {
  if (!name_.empty()) return name_;
  return "$" + std::to_string(index_);
}

// ----- ComparisonExpr -----

void ComparisonExpr::BatchEval(const RowBatch& batch, std::vector<Value>* out,
                               std::vector<uint8_t>* errs,
                               Status* first_error) const {
  std::vector<Value> lvals, rvals;
  std::vector<uint8_t> lerrs, rerrs;
  BatchOperand lop, rop;
  ResolveBatchOperand(*left_, batch, &lvals, &lerrs, first_error, &lop);
  ResolveBatchOperand(*right_, batch, &rvals, &rerrs, first_error, &rop);
  InitBatchOut(batch, out, errs);
  for (size_t i = 0; i < out->size(); ++i) {
    if (lop.err(i) || rop.err(i)) {
      (*errs)[i] = 1;  // child error poisons the row
      continue;
    }
    const Value& lv = lop.at(i);
    const Value& rv = rop.at(i);
    if (lv.is_null() || rv.is_null()) continue;  // result stays NULL
    const int c = lv.Compare(rv);
    bool b = false;
    switch (op_) {
      case CompareOp::kEq:
        b = c == 0;
        break;
      case CompareOp::kNe:
        b = c != 0;
        break;
      case CompareOp::kLt:
        b = c < 0;
        break;
      case CompareOp::kLe:
        b = c <= 0;
        break;
      case CompareOp::kGt:
        b = c > 0;
        break;
      case CompareOp::kGe:
        b = c >= 0;
        break;
    }
    (*out)[i] = Value::Bool(b);
  }
}

ExprPtr ComparisonExpr::RemapColumns(const std::vector<int>& mapping) const {
  return std::make_shared<ComparisonExpr>(op_, left_->RemapColumns(mapping),
                                          right_->RemapColumns(mapping));
}

void ComparisonExpr::CollectColumnRefsInternal(std::vector<int>* out) const {
  left_->CollectColumnRefs(out);
  std::vector<int> rhs;
  right_->CollectColumnRefs(&rhs);
  out->insert(out->end(), rhs.begin(), rhs.end());
}

std::string ComparisonExpr::ToString() const {
  return "(" + left_->ToString() + " " + CompareOpName(op_) + " " +
         right_->ToString() + ")";
}

// ----- ArithmeticExpr -----

DataType ArithmeticExpr::result_type() const {
  if (left_->result_type() == DataType::kDouble ||
      right_->result_type() == DataType::kDouble ||
      op_ == ArithOp::kDiv) {
    return DataType::kDouble;
  }
  return DataType::kInt64;
}

void ArithmeticExpr::BatchEval(const RowBatch& batch, std::vector<Value>* out,
                               std::vector<uint8_t>* errs,
                               Status* first_error) const {
  std::vector<Value> lvals, rvals;
  std::vector<uint8_t> lerrs, rerrs;
  BatchOperand lop, rop;
  ResolveBatchOperand(*left_, batch, &lvals, &lerrs, first_error, &lop);
  ResolveBatchOperand(*right_, batch, &rvals, &rerrs, first_error, &rop);
  InitBatchOut(batch, out, errs);
  for (size_t i = 0; i < out->size(); ++i) {
    if (lop.err(i) || rop.err(i)) {
      (*errs)[i] = 1;
      continue;
    }
    const Value& lv = lop.at(i);
    const Value& rv = rop.at(i);
    if (lv.is_null() || rv.is_null()) continue;
    // Exact integer arithmetic when both sides are int64 (except division).
    if (lv.type() == DataType::kInt64 && rv.type() == DataType::kInt64 &&
        op_ != ArithOp::kDiv) {
      const int64_t a = lv.AsInt64();
      const int64_t b = rv.AsInt64();
      switch (op_) {
        case ArithOp::kAdd:
          (*out)[i] = Value::Int64(a + b);
          continue;
        case ArithOp::kSub:
          (*out)[i] = Value::Int64(a - b);
          continue;
        case ArithOp::kMul:
          (*out)[i] = Value::Int64(a * b);
          continue;
        default:
          break;
      }
    }
    StatusOr<double> a = lv.AsNumeric();
    if (!a.ok()) {
      RowError(i, a.status(), errs, first_error);
      continue;
    }
    StatusOr<double> b = rv.AsNumeric();
    if (!b.ok()) {
      RowError(i, b.status(), errs, first_error);
      continue;
    }
    switch (op_) {
      case ArithOp::kAdd:
        (*out)[i] = Value::Double(*a + *b);
        break;
      case ArithOp::kSub:
        (*out)[i] = Value::Double(*a - *b);
        break;
      case ArithOp::kMul:
        (*out)[i] = Value::Double(*a * *b);
        break;
      case ArithOp::kDiv:
        if (*b == 0.0) {
          RowError(i, Status::InvalidArgument("division by zero"), errs,
                   first_error);
          break;
        }
        (*out)[i] = Value::Double(*a / *b);
        break;
    }
  }
}

ExprPtr ArithmeticExpr::RemapColumns(const std::vector<int>& mapping) const {
  return std::make_shared<ArithmeticExpr>(op_, left_->RemapColumns(mapping),
                                          right_->RemapColumns(mapping));
}

void ArithmeticExpr::CollectColumnRefsInternal(std::vector<int>* out) const {
  left_->CollectColumnRefs(out);
  std::vector<int> rhs;
  right_->CollectColumnRefs(&rhs);
  out->insert(out->end(), rhs.begin(), rhs.end());
}

std::string ArithmeticExpr::ToString() const {
  return "(" + left_->ToString() + " " + ArithOpName(op_) + " " +
         right_->ToString() + ")";
}

// ----- LogicalExpr -----

void LogicalExpr::BatchEval(const RowBatch& batch, std::vector<Value>* out,
                            std::vector<uint8_t>* errs,
                            Status* first_error) const {
  std::vector<Value> lvals;
  std::vector<uint8_t> lerrs;
  BatchOperand lop;
  ResolveBatchOperand(*left_, batch, &lvals, &lerrs, first_error, &lop);
  if (op_ == LogicalOp::kNot) {
    InitBatchOut(batch, out, errs);
    for (size_t i = 0; i < out->size(); ++i) {
      if (lop.err(i)) {
        (*errs)[i] = 1;
        continue;
      }
      const Value& v = lop.at(i);
      if (v.is_null()) continue;
      if (v.type() != DataType::kBool) {
        RowError(i, Status::TypeError("NOT over non-boolean: " + v.ToString()),
                 errs, first_error);
        continue;
      }
      (*out)[i] = Value::Bool(!v.AsBool());
    }
    return;
  }
  std::vector<Value> rvals;
  std::vector<uint8_t> rerrs;
  BatchOperand rop;
  ResolveBatchOperand(*right_, batch, &rvals, &rerrs, first_error, &rop);
  InitBatchOut(batch, out, errs);
  // Kleene three-valued AND/OR: 0 = false, 1 = true, 2 = unknown.
  auto as_tri = [&](const Value& v, size_t r) -> int {
    if (v.is_null()) return 2;
    if (v.type() != DataType::kBool) {
      RowError(r,
               Status::TypeError("logical op over non-boolean: " +
                                 v.ToString()),
               errs, first_error);
      return -1;
    }
    return v.AsBool() ? 1 : 0;
  };
  for (size_t i = 0; i < out->size(); ++i) {
    if (lop.err(i) || rop.err(i)) {
      (*errs)[i] = 1;
      continue;
    }
    const int a = as_tri(lop.at(i), i);
    if (a < 0) continue;
    const int b = as_tri(rop.at(i), i);
    if (b < 0) continue;
    if (op_ == LogicalOp::kAnd) {
      if (a == 0 || b == 0) {
        (*out)[i] = Value::Bool(false);
      } else if (a != 2 && b != 2) {
        (*out)[i] = Value::Bool(true);
      }  // else: unknown stays NULL
      continue;
    }
    // OR
    if (a == 1 || b == 1) {
      (*out)[i] = Value::Bool(true);
    } else if (a != 2 && b != 2) {
      (*out)[i] = Value::Bool(false);
    }  // else: unknown stays NULL
  }
}

ExprPtr LogicalExpr::RemapColumns(const std::vector<int>& mapping) const {
  return std::make_shared<LogicalExpr>(
      op_, left_->RemapColumns(mapping),
      right_ ? right_->RemapColumns(mapping) : nullptr);
}

void LogicalExpr::CollectColumnRefsInternal(std::vector<int>* out) const {
  left_->CollectColumnRefs(out);
  if (right_) {
    std::vector<int> rhs;
    right_->CollectColumnRefs(&rhs);
    out->insert(out->end(), rhs.begin(), rhs.end());
  }
}

std::string LogicalExpr::ToString() const {
  if (op_ == LogicalOp::kNot) return "NOT " + left_->ToString();
  return "(" + left_->ToString() +
         (op_ == LogicalOp::kAnd ? " AND " : " OR ") + right_->ToString() +
         ")";
}

// ----- Factories -----

ExprPtr MakeLiteral(Value v) {
  return std::make_shared<LiteralExpr>(std::move(v));
}

ExprPtr MakeColumnRef(int index, DataType type, std::string name) {
  return std::make_shared<ColumnRefExpr>(index, type, std::move(name));
}

StatusOr<ExprPtr> MakeColumnRef(const Schema& schema,
                                const std::string& dotted_name) {
  MAGICDB_ASSIGN_OR_RETURN(int idx, schema.FindColumn(dotted_name));
  return MakeColumnRef(idx, schema.column(idx).type,
                       schema.column(idx).QualifiedName());
}

ExprPtr MakeComparison(CompareOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<ComparisonExpr>(op, std::move(left),
                                          std::move(right));
}

ExprPtr MakeArithmetic(ArithOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<ArithmeticExpr>(op, std::move(left),
                                          std::move(right));
}

ExprPtr MakeAnd(ExprPtr left, ExprPtr right) {
  return std::make_shared<LogicalExpr>(LogicalOp::kAnd, std::move(left),
                                       std::move(right));
}

ExprPtr MakeOr(ExprPtr left, ExprPtr right) {
  return std::make_shared<LogicalExpr>(LogicalOp::kOr, std::move(left),
                                       std::move(right));
}

ExprPtr MakeNot(ExprPtr operand) {
  return std::make_shared<LogicalExpr>(LogicalOp::kNot, std::move(operand),
                                       nullptr);
}

ExprPtr ConjoinAll(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr result;
  for (const ExprPtr& c : conjuncts) {
    if (!c) continue;
    result = result ? MakeAnd(result, c) : c;
  }
  return result;
}

void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (!expr) return;
  if (expr->kind() == ExprKind::kLogical) {
    const auto* logical = static_cast<const LogicalExpr*>(expr.get());
    if (logical->op() == LogicalOp::kAnd) {
      SplitConjuncts(logical->left(), out);
      SplitConjuncts(logical->right(), out);
      return;
    }
  }
  out->push_back(expr);
}

bool MatchColumnComparison(const Expr& expr, ColumnComparison* out) {
  if (expr.kind() != ExprKind::kComparison) return false;
  const auto& cmp = static_cast<const ComparisonExpr&>(expr);
  const Expr* col = cmp.left().get();
  const Expr* lit = cmp.right().get();
  CompareOp op = cmp.op();
  if (col->kind() == ExprKind::kLiteral &&
      lit->kind() == ExprKind::kColumnRef) {
    std::swap(col, lit);
    switch (op) {
      case CompareOp::kLt:
        op = CompareOp::kGt;
        break;
      case CompareOp::kLe:
        op = CompareOp::kGe;
        break;
      case CompareOp::kGt:
        op = CompareOp::kLt;
        break;
      case CompareOp::kGe:
        op = CompareOp::kLe;
        break;
      default:
        break;
    }
  }
  if (col->kind() != ExprKind::kColumnRef ||
      lit->kind() != ExprKind::kLiteral) {
    return false;
  }
  out->column = static_cast<const ColumnRefExpr*>(col)->index();
  out->op = op;
  out->literal = &static_cast<const LiteralExpr*>(lit)->value();
  return true;
}

std::vector<ColumnRange> ExtractColumnRanges(
    const std::vector<ExprPtr>& conjuncts) {
  std::vector<ColumnRange> ranges;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    ColumnComparison cmp;
    if (!conjuncts[i] || !MatchColumnComparison(*conjuncts[i], &cmp) ||
        cmp.op == CompareOp::kNe) {
      continue;
    }
    const Value& lit = *cmp.literal;
    if (lit.type() != DataType::kInt64 &&
        (lit.type() != DataType::kDouble || std::isnan(lit.AsDouble()))) {
      continue;
    }
    auto it = std::find_if(ranges.begin(), ranges.end(),
                           [&](const ColumnRange& r) {
                             return r.column == cmp.column;
                           });
    if (it == ranges.end()) {
      it = ranges.insert(ranges.end(), ColumnRange{});
      it->column = cmp.column;
    }
    ColumnRange& r = *it;
    if (cmp.op != CompareOp::kLt && cmp.op != CompareOp::kLe) {
      // =, > or >=: a lower bound.
      const bool inclusive = cmp.op != CompareOp::kGt;
      const int c = r.lo.is_null() ? 1 : lit.Compare(r.lo);
      if (c > 0) {
        r.lo = lit;
        r.lo_inclusive = inclusive;
      } else if (c == 0) {
        r.lo_inclusive = r.lo_inclusive && inclusive;
      }
    }
    if (cmp.op != CompareOp::kGt && cmp.op != CompareOp::kGe) {
      // =, < or <=: an upper bound.
      const bool inclusive = cmp.op != CompareOp::kLt;
      const int c = r.hi.is_null() ? -1 : lit.Compare(r.hi);
      if (c < 0) {
        r.hi = lit;
        r.hi_inclusive = inclusive;
      } else if (c == 0) {
        r.hi_inclusive = r.hi_inclusive && inclusive;
      }
    }
    r.conjuncts.push_back(i);
  }
  return ranges;
}

void ResolveBatchOperand(const Expr& expr, const RowBatch& batch,
                         std::vector<Value>* scratch_vals,
                         std::vector<uint8_t>* scratch_errs,
                         Status* first_error, BatchOperand* op) {
  *op = BatchOperand{};
  if (expr.kind() == ExprKind::kLiteral) {
    op->lit = &static_cast<const LiteralExpr&>(expr).value();
    return;
  }
  if (expr.kind() == ExprKind::kColumnRef) {
    const int index = static_cast<const ColumnRefExpr&>(expr).index();
    if (index >= 0 && index < batch.num_cols()) {
      op->col = &batch.column(index);
      return;
    }
    // Out-of-range refs take the materializing path below, which errs
    // every row.
  }
  expr.BatchEval(batch, scratch_vals, scratch_errs, first_error);
  op->col = scratch_vals;
  op->errs = scratch_errs;
}

void BatchEvalPredicate(const Expr& expr, const RowBatch& batch,
                        std::vector<Value>* vals, std::vector<uint8_t>* keep) {
  Status first_error;  // predicate errors count as false; status discarded
  expr.BatchEval(batch, vals, keep, &first_error);
  for (size_t r = 0; r < vals->size(); ++r) {
    const Value& v = (*vals)[r];
    (*keep)[r] = (*keep)[r] == 0 && v.type() == DataType::kBool && v.AsBool();
  }
}

}  // namespace magicdb
