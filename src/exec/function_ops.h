#ifndef MAGICDB_EXEC_FUNCTION_OPS_H_
#define MAGICDB_EXEC_FUNCTION_OPS_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/hash_table.h"
#include "src/exec/operator.h"
#include "src/expr/expr.h"
#include "src/udr/table_function.h"

namespace magicdb {

/// Joins an outer stream with a user-defined relation (§5.2) by invoking
/// the function once per outer tuple ("repeated probe" in the taxonomy of
/// Figure 6). With `memoize`, repeated argument values hit a cache instead
/// of re-invoking ("function caching / memoing").
///
/// Output schema: outer ++ function relation (args ++ results).
class FunctionProbeJoinOp final : public RowOperator {
 public:
  FunctionProbeJoinOp(OpPtr outer, const TableFunction* function,
                      std::vector<int> outer_arg_indexes, ExprPtr residual,
                      bool memoize);

  Status Open(ExecContext* ctx) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {outer_.get()};
  }

  int64_t cache_hits() const { return cache_hits_; }

 private:
  Status NextRow(Tuple* out, bool* eof) override;

  OpPtr outer_;
  RowReader outer_in_;
  const TableFunction* function_;
  std::vector<int> outer_arg_indexes_;
  bool memoize_;

  // Argument tuple -> the function rows it produced.
  HashTable<std::pair<Tuple, std::vector<Tuple>>> memo_;
  Tuple current_outer_;
  std::vector<Tuple> current_results_;  // function rows (args ++ results)
  size_t result_pos_ = 0;
  bool have_outer_ = false;
  int64_t cache_hits_ = 0;
};

/// Invokes the function once per child tuple, where the child produces
/// *argument* tuples (typically the distinct filter set of a Filter Join on
/// a user-defined relation — "consecutive procedure calls" in Figure 6).
/// Emits args ++ results rows; the planner joins them back to the outer.
class FunctionCallOp final : public RowOperator {
 public:
  FunctionCallOp(OpPtr args_child, const TableFunction* function);

  Status Open(ExecContext* ctx) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {args_child_.get()};
  }

 private:
  Status NextRow(Tuple* out, bool* eof) override;

  OpPtr args_child_;
  RowReader args_in_;
  const TableFunction* function_;
  std::vector<Tuple> current_rows_;
  size_t pos_ = 0;
  bool child_eof_ = false;
};

}  // namespace magicdb

#endif  // MAGICDB_EXEC_FUNCTION_OPS_H_
