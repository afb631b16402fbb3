#include "src/server/cursor.h"

#include <utility>

#include "src/server/query_service.h"

namespace magicdb {

Cursor::~Cursor() {
  if (state_ != nullptr && !state_->closed) {
    Close();  // abandoned cursor: cancel + drain + release, status dropped
  }
}

Cursor::Cursor(Cursor&& other) noexcept : state_(std::move(other.state_)) {
  other.state_ = nullptr;
}

Cursor& Cursor::operator=(Cursor&& other) noexcept {
  if (this != &other) {
    if (state_ != nullptr && !state_->closed) Close();
    state_ = std::move(other.state_);
    other.state_ = nullptr;
  }
  return *this;
}

StatusOr<std::vector<Tuple>> Cursor::Fetch(int64_t max_rows) {
  if (state_ == nullptr) {
    return Status::InvalidArgument("Fetch on an empty cursor");
  }
  return state_->service->FetchFromCursor(state_.get(), max_rows);
}

bool Cursor::done() const {
  return state_ == nullptr || state_->saw_eof || state_->closed ||
         !state_->sink.final_status().ok();
}

int64_t Cursor::peak_buffered_rows() const {
  return state_ == nullptr ? 0 : state_->sink.peak_queued_rows();
}

int64_t Cursor::producer_parks() const {
  return state_ == nullptr ? 0 : state_->sink.producer_parks();
}

Status Cursor::Close() {
  if (state_ == nullptr) return Status::OK();
  return state_->service->CloseCursor(state_.get());
}

}  // namespace magicdb
