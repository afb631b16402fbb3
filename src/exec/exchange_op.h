#ifndef MAGICDB_EXEC_EXCHANGE_OP_H_
#define MAGICDB_EXEC_EXCHANGE_OP_H_

#include <string>

#include "src/exec/operator.h"

namespace magicdb {

/// Ships the child's tuples between sites in the distributed cost model
/// (§5.1). Data is unchanged; the operator charges one message per page of
/// shipped bytes (batched network transfer) plus per-byte cost, the same
/// quantities the optimizer's communication model predicts.
class ShipOp final : public RowOperator {
 public:
  ShipOp(OpPtr child, int from_site, int to_site);

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
  int from_site_;
  int to_site_;
  int64_t bytes_in_batch_ = 0;
  bool opened_message_charged_ = false;
};

}  // namespace magicdb

#endif  // MAGICDB_EXEC_EXCHANGE_OP_H_
