#include "src/exec/operator.h"

#include <sstream>

namespace magicdb {

namespace {
void AppendTree(const Operator& op, int depth, std::ostringstream* os) {
  for (int i = 0; i < depth; ++i) *os << "  ";
  *os << op.Describe() << "\n";
  for (const Operator* c : op.Children()) {
    AppendTree(*c, depth + 1, os);
  }
}
}  // namespace

std::string Operator::TreeString() const {
  std::ostringstream os;
  AppendTree(*this, 0, &os);
  return os.str();
}

Status RowOperator::NextBatch(RowBatch* out, bool* eof) {
  pull_rows_ = out->capacity();
  *eof = false;
  Tuple t;
  return residual_.FillAndKeep(ctx_, out, eof, [&]() -> Status {
    out->ResetForWrite(schema_.num_columns());
    while (!out->full() && !*eof) {
      MAGICDB_RETURN_IF_ERROR(NextRow(&t, eof));
      if (!*eof) out->AppendTuple(std::move(t));
    }
    return Status::OK();
  });
}

void RowReader::Reset() {
  batch_.ResetForWrite(batch_.num_cols());
  next_ = 0;
  child_eof_ = false;
}

Status RowReader::Next(Operator* child, int32_t max_rows, Tuple* out,
                       bool* eof) {
  while (next_ >= batch_.num_rows()) {
    if (child_eof_) {
      *eof = true;
      return Status::OK();
    }
    if (batch_.capacity() != max_rows) batch_ = RowBatch(max_rows);
    MAGICDB_RETURN_IF_ERROR(child->NextBatch(&batch_, &child_eof_));
    next_ = 0;
  }
  batch_.MoveRowToTuple(next_++, out);
  *eof = false;
  return Status::OK();
}

StatusOr<std::vector<Tuple>> ExecuteToVector(Operator* root,
                                             ExecContext* ctx) {
  MAGICDB_RETURN_IF_ERROR(root->Open(ctx));
  return DrainToVector(root, ctx);
}

StatusOr<std::vector<Tuple>> DrainToVector(Operator* root, ExecContext* ctx) {
  std::vector<Tuple> rows;
  MAGICDB_RETURN_IF_ERROR(DrainBatches(root, ctx, [&](RowBatch* batch) {
    batch->MoveActiveToTuples(&rows);
    return Status::OK();
  }));
  MAGICDB_RETURN_IF_ERROR(root->Close());
  return rows;
}

}  // namespace magicdb
