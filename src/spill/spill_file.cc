#include "src/spill/spill_file.h"

#include <cstdio>
#include <cstring>

#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/exec/exec_context.h"
#include "src/spill/spill_manager.h"

namespace magicdb {

namespace {
int64_t CeilPages(int64_t bytes) {
  return (bytes + CostConstants::kPageSizeBytes - 1) /
         CostConstants::kPageSizeBytes;
}
}  // namespace

SpillFile::SpillFile(SpillManager* mgr, const std::string& label)
    : mgr_(mgr), path_(mgr->NextFilePath(label)) {}

SpillFile::~SpillFile() {
  if (write_handle_ != nullptr) std::fclose(write_handle_);
  if (read_handle_ != nullptr) std::fclose(read_handle_);
  if (write_handle_ != nullptr || write_finished_) std::remove(path_.c_str());
  mgr_->ReleaseDisk(disk_charged_);
}

void SpillFile::ChargeWrite(int64_t bytes, ExecContext* ctx) {
  mgr_->AddBytesWritten(bytes);
  if (ctx == nullptr) return;
  // Spill I/O is forward progress for the stuck-query watchdog.
  ctx->NoteProgress(bytes);
  ctx->counters().spill_bytes_written += bytes;
  const int64_t pages = CeilPages(bytes_written_) - write_pages_charged_;
  ctx->counters().pages_written += pages;
  write_pages_charged_ += pages;
}

void SpillFile::ChargeRead(int64_t bytes, ExecContext* ctx) {
  mgr_->AddBytesRead(bytes);
  if (ctx == nullptr) return;
  ctx->NoteProgress(bytes);
  ctx->counters().spill_bytes_read += bytes;
  const int64_t pages = CeilPages(bytes_read_) - read_pages_charged_;
  ctx->counters().pages_read += pages;
  read_pages_charged_ += pages;
}

Status SpillFile::FlushFrame(ExecContext* ctx) {
  if (write_buffer_.empty()) return Status::OK();
  MAGICDB_FAILPOINT("spill.write");
  // Budget check precedes the filesystem write: a rejected frame fails this
  // query before it consumes the disk it was denied.
  const int64_t budgeted_bytes =
      static_cast<int64_t>(sizeof(uint32_t) + write_buffer_.size());
  MAGICDB_RETURN_IF_ERROR(mgr_->ChargeDisk(budgeted_bytes));
  disk_charged_ += budgeted_bytes;
  if (write_handle_ == nullptr) {
    write_handle_ = std::fopen(path_.c_str(), "wb");
    if (write_handle_ == nullptr) {
      return Status::Internal("cannot create spill file: " + path_);
    }
    mgr_->NoteFileCreated();
  }
  const uint32_t len = static_cast<uint32_t>(write_buffer_.size());
  if (std::fwrite(&len, sizeof(len), 1, write_handle_) != 1 ||
      std::fwrite(write_buffer_.data(), 1, write_buffer_.size(),
                  write_handle_) != write_buffer_.size()) {
    return Status::Internal("short write to spill file: " + path_);
  }
  const int64_t frame_bytes =
      static_cast<int64_t>(sizeof(len) + write_buffer_.size());
  bytes_written_ += frame_bytes;
  ChargeWrite(frame_bytes, ctx);
  write_buffer_.clear();
  return Status::OK();
}

Status SpillFile::Append(std::string_view record, ExecContext* ctx) {
  MAGICDB_CHECK(!write_finished_);
  const uint32_t len = static_cast<uint32_t>(record.size());
  write_buffer_.append(reinterpret_cast<const char*>(&len), sizeof(len));
  write_buffer_.append(record.data(), record.size());
  ++records_;
  if (static_cast<int64_t>(write_buffer_.size()) >=
      mgr_->config().batch_bytes) {
    return FlushFrame(ctx);
  }
  return Status::OK();
}

Status SpillFile::FinishWrite(ExecContext* ctx) {
  if (write_finished_) return Status::OK();
  MAGICDB_RETURN_IF_ERROR(FlushFrame(ctx));
  if (write_handle_ != nullptr) {
    if (std::fflush(write_handle_) != 0) {
      return Status::Internal("cannot flush spill file: " + path_);
    }
    std::fclose(write_handle_);
    write_handle_ = nullptr;
  }
  write_finished_ = true;
  write_buffer_.shrink_to_fit();
  return Status::OK();
}

Status SpillFile::Rewind() {
  MAGICDB_CHECK(write_finished_);
  if (read_handle_ != nullptr) {
    std::fclose(read_handle_);
    read_handle_ = nullptr;
  }
  frame_.clear();
  frame_offset_ = 0;
  if (records_ == 0) return Status::OK();  // never flushed: nothing on disk
  read_handle_ = std::fopen(path_.c_str(), "rb");
  if (read_handle_ == nullptr) {
    return Status::Internal("cannot reopen spill file: " + path_);
  }
  return Status::OK();
}

Status SpillFile::ReadFrame(ExecContext* ctx, bool* have_frame) {
  *have_frame = false;
  if (read_handle_ == nullptr) return Status::OK();
  uint32_t len = 0;
  const size_t got = std::fread(&len, 1, sizeof(len), read_handle_);
  if (got == 0) return Status::OK();  // clean EOF
  MAGICDB_FAILPOINT("spill.read");
  if (got != sizeof(len)) {
    return Status::Internal("torn frame header in spill file: " + path_);
  }
  frame_.resize(len);
  if (std::fread(frame_.data(), 1, len, read_handle_) != len) {
    return Status::Internal("torn frame in spill file: " + path_);
  }
  frame_offset_ = 0;
  const int64_t frame_bytes = static_cast<int64_t>(sizeof(len) + len);
  bytes_read_ += frame_bytes;
  ChargeRead(frame_bytes, ctx);
  *have_frame = true;
  return Status::OK();
}

Status SpillFile::NextRecord(std::string_view* record, bool* has_record,
                             ExecContext* ctx) {
  while (true) {
    if (frame_offset_ + sizeof(uint32_t) <= frame_.size()) {
      uint32_t len = 0;
      std::memcpy(&len, frame_.data() + frame_offset_, sizeof(len));
      frame_offset_ += sizeof(len);
      if (frame_offset_ + len > frame_.size()) {
        return Status::Internal("torn record in spill file: " + path_);
      }
      *record = std::string_view(frame_.data() + frame_offset_, len);
      frame_offset_ += len;
      *has_record = true;
      return Status::OK();
    }
    bool have_frame = false;
    MAGICDB_RETURN_IF_ERROR(ReadFrame(ctx, &have_frame));
    if (!have_frame) {
      *has_record = false;
      return Status::OK();
    }
  }
}

}  // namespace magicdb
