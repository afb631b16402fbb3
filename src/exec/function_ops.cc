#include "src/exec/function_ops.h"

#include "src/common/logging.h"

namespace magicdb {

// ----- FunctionProbeJoinOp -----

FunctionProbeJoinOp::FunctionProbeJoinOp(OpPtr outer,
                                         const TableFunction* function,
                                         std::vector<int> outer_arg_indexes,
                                         ExprPtr residual, bool memoize)
    : RowOperator(outer->schema().Concat(function->RelationSchema()
                                             .WithQualifier(function->name())),
                  std::move(residual)),
      outer_(std::move(outer)),
      function_(function),
      outer_arg_indexes_(std::move(outer_arg_indexes)),
      memoize_(memoize) {
  MAGICDB_CHECK(static_cast<int>(outer_arg_indexes_.size()) ==
                function_->arg_schema().num_columns());
}

Status FunctionProbeJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  memo_.Clear();
  have_outer_ = false;
  cache_hits_ = 0;
  result_pos_ = 0;
  outer_in_.Reset();
  return outer_->Open(ctx);
}

Status FunctionProbeJoinOp::NextRow(Tuple* out, bool* eof) {
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
      current_results_.clear();
      result_pos_ = 0;
      // A NULL argument equals no argument value: the row never joins.
      if (TupleHasNullAt(current_outer_, outer_arg_indexes_)) continue;
      Tuple args = ProjectTuple(current_outer_, outer_arg_indexes_);

      const std::pair<Tuple, std::vector<Tuple>>* cached = nullptr;
      uint64_t h = 0;
      if (memoize_) {
        ctx_->counters().hash_operations += 1;
        h = HashTuple(args);
        cached = memo_.Find(h, [&](const auto& entry) {
          return CompareTuples(entry.first, args) == 0;
        });
      }
      if (cached != nullptr) {
        ++cache_hits_;
        current_results_ = cached->second;
      } else {
        ctx_->counters().function_invocations += 1;
        std::vector<Tuple> results;
        MAGICDB_RETURN_IF_ERROR(function_->Invoke(args, &results));
        current_results_.reserve(results.size());
        for (Tuple& r : results) {
          current_results_.push_back(ConcatTuples(args, r));
        }
        if (memoize_) {
          memo_.Append(h, {std::move(args), current_results_});
        }
      }
    }
    if (result_pos_ < current_results_.size()) {
      ctx_->counters().tuples_processed += 1;
      *out = ConcatTuples(current_outer_, current_results_[result_pos_++]);
      *eof = false;
      return Status::OK();
    }
    have_outer_ = false;
  }
}

Status FunctionProbeJoinOp::Close() {
  memo_.Clear();
  return outer_->Close();
}

std::string FunctionProbeJoinOp::Describe() const {
  return "FunctionProbeJoin(" + function_->name() +
         (memoize_ ? ", memoized" : "") + ")";
}

// ----- FunctionCallOp -----

FunctionCallOp::FunctionCallOp(OpPtr args_child, const TableFunction* function)
    : RowOperator(function->RelationSchema().WithQualifier(function->name())),
      args_child_(std::move(args_child)),
      function_(function) {
  MAGICDB_CHECK(args_child_->schema().num_columns() ==
                function_->arg_schema().num_columns());
}

Status FunctionCallOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  current_rows_.clear();
  pos_ = 0;
  child_eof_ = false;
  args_in_.Reset();
  return args_child_->Open(ctx);
}

Status FunctionCallOp::NextRow(Tuple* out, bool* eof) {
  while (true) {
    if (pos_ < current_rows_.size()) {
      ctx_->counters().tuples_processed += 1;
      *out = current_rows_[pos_++];
      *eof = false;
      return Status::OK();
    }
    if (child_eof_) {
      *eof = true;
      return Status::OK();
    }
    Tuple args;
    bool eof_child = false;
    MAGICDB_RETURN_IF_ERROR(
        args_in_.Next(args_child_.get(), pull_rows(), &args, &eof_child));
    if (eof_child) {
      child_eof_ = true;
      continue;
    }
    ctx_->counters().function_invocations += 1;
    std::vector<Tuple> results;
    MAGICDB_RETURN_IF_ERROR(function_->Invoke(args, &results));
    current_rows_.clear();
    current_rows_.reserve(results.size());
    for (Tuple& r : results) {
      current_rows_.push_back(ConcatTuples(args, r));
    }
    pos_ = 0;
  }
}

Status FunctionCallOp::Close() { return args_child_->Close(); }

std::string FunctionCallOp::Describe() const {
  return "FunctionCall(" + function_->name() + ")";
}

}  // namespace magicdb
