#include "src/exec/exchange_op.h"

#include "src/common/cost_counters.h"

namespace magicdb {

ShipOp::ShipOp(OpPtr child, int from_site, int to_site)
    : RowOperator(child->schema()),
      child_(std::move(child)),
      from_site_(from_site),
      to_site_(to_site) {}

Status ShipOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  bytes_in_batch_ = 0;
  opened_message_charged_ = false;
  in_.Reset();
  return child_->Open(ctx);
}

Status ShipOp::NextRow(Tuple* out, bool* eof) {
  MAGICDB_RETURN_IF_ERROR(in_.Next(child_.get(), pull_rows(), out, eof));
  if (*eof) return Status::OK();
  if (from_site_ == to_site_) return Status::OK();  // no-op locally
  if (!opened_message_charged_) {
    ctx_->counters().messages_sent += 1;  // first batch / connection
    opened_message_charged_ = true;
  }
  const int64_t bytes = TupleByteWidth(*out);
  ctx_->counters().bytes_shipped += bytes;
  bytes_in_batch_ += bytes;
  // One additional message per full page of payload.
  while (bytes_in_batch_ >= CostConstants::kPageSizeBytes) {
    bytes_in_batch_ -= CostConstants::kPageSizeBytes;
    ctx_->counters().messages_sent += 1;
  }
  return Status::OK();
}

Status ShipOp::Close() {
  if (ctx_ != nullptr && from_site_ != to_site_ && bytes_in_batch_ > 0) {
    // The last partial page of payload still crosses the wire as one
    // (short) message. Without this flush the measured message count
    // undercounted by one whenever the shipped bytes were not an exact
    // multiple of the page size.
    ctx_->counters().messages_sent += 1;
    bytes_in_batch_ = 0;
  }
  return child_->Close();
}

std::string ShipOp::Describe() const {
  return "Ship(site" + std::to_string(from_site_) + " -> site" +
         std::to_string(to_site_) + ")";
}

}  // namespace magicdb
