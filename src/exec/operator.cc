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

Status Operator::NextBatch(RowBatch* out, bool* eof) {
  out->ResetForWrite(schema_.num_columns());
  *eof = false;
  Tuple t;
  bool row_eof = false;
  while (!out->full()) {
    MAGICDB_RETURN_IF_ERROR(Next(&t, &row_eof));
    if (row_eof) {
      *eof = true;
      break;
    }
    out->AppendTuple(std::move(t));
  }
  return Status::OK();
}

StatusOr<std::vector<Tuple>> ExecuteToVector(Operator* root,
                                             ExecContext* ctx) {
  MAGICDB_RETURN_IF_ERROR(root->Open(ctx));
  return DrainToVector(root, ctx);
}

StatusOr<std::vector<Tuple>> DrainToVector(Operator* root, ExecContext* ctx) {
  std::vector<Tuple> rows;
  if (ctx->batch_size() > 0) {
    RowBatch batch(static_cast<int32_t>(ctx->batch_size()));
    while (true) {
      bool eof = false;
      MAGICDB_RETURN_IF_ERROR(root->NextBatch(&batch, &eof));
      batch.MoveActiveToTuples(&rows);
      // One cancellation checkpoint per batch (vs per 1024 rows below).
      MAGICDB_RETURN_IF_ERROR(ctx->CheckCancelled());
      if (eof) break;
    }
  } else {
    while (true) {
      Tuple t;
      bool eof = false;
      MAGICDB_RETURN_IF_ERROR(root->Next(&t, &eof));
      if (eof) break;
      rows.push_back(std::move(t));
      // Cancellation checkpoint for plans whose output loop dominates (the
      // scan-level checkpoints cover the blocking build phases).
      if ((rows.size() & 1023) == 0) {
        MAGICDB_RETURN_IF_ERROR(ctx->CheckCancelled());
      }
    }
  }
  MAGICDB_RETURN_IF_ERROR(root->Close());
  return rows;
}

}  // namespace magicdb
