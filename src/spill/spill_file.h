#ifndef MAGICDB_SPILL_SPILL_FILE_H_
#define MAGICDB_SPILL_SPILL_FILE_H_

/// One spill temp file: an append-only sequence of length-prefixed records,
/// written in buffered frames and read back sequentially.
///
/// Lifecycle: append records, FinishWrite(), then any number of Rewind() +
/// NextRecord() passes. The destructor closes handles and unlinks the file,
/// so a query that fails mid-spill leaves nothing behind.
///
/// Accounting: every frame flushed or read charges page I/O (ceil of the
/// cumulative byte count over the shared page size — the same convention as
/// PagesForRows) and spill bytes to the ExecContext passed to the call, and
/// bytes to the owning SpillManager's global counters. Passing a null
/// context keeps the manager metrics but charges no CostCounters.
///
/// Failpoints: `spill.write` before every frame write, `spill.read` before
/// every frame read.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/statusor.h"

namespace magicdb {

class ExecContext;
class SpillManager;

class SpillFile {
 public:
  /// Creates a handle for a new temp file under `mgr`'s directory. The file
  /// itself is created lazily on the first flush.
  SpillFile(SpillManager* mgr, const std::string& label);
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Appends one record (buffered; flushes a frame when the buffer reaches
  /// the manager's batch_bytes). `ctx` may be null.
  Status Append(std::string_view record, ExecContext* ctx);

  /// Flushes the tail frame and closes the write handle. Must be called
  /// before Rewind. Idempotent.
  Status FinishWrite(ExecContext* ctx);

  /// (Re)positions the reader at the first record. Only after FinishWrite.
  Status Rewind();

  /// Reads the next record into `*record` (valid until the next call or
  /// destruction). Returns false in `*has_record` at end of file. `ctx` may
  /// be null.
  Status NextRecord(std::string_view* record, bool* has_record,
                    ExecContext* ctx);

  int64_t records() const { return records_; }

 private:
  Status FlushFrame(ExecContext* ctx);
  Status ReadFrame(ExecContext* ctx, bool* have_frame);
  void ChargeWrite(int64_t bytes, ExecContext* ctx);
  void ChargeRead(int64_t bytes, ExecContext* ctx);

  SpillManager* const mgr_;
  std::string path_;
  std::FILE* write_handle_ = nullptr;
  std::FILE* read_handle_ = nullptr;
  bool write_finished_ = false;

  std::string write_buffer_;
  std::string frame_;       // current read frame
  size_t frame_offset_ = 0; // parse position within frame_

  int64_t records_ = 0;
  int64_t bytes_written_ = 0;
  int64_t bytes_read_ = 0;
  // Bytes charged against the manager's service-wide disk budget; released
  // in the destructor together with the unlink, so a closed query leaves
  // zero residual budget consumption.
  int64_t disk_charged_ = 0;
  // Cumulative byte counts at the last page-charge, for exact ceil-diff
  // page accounting (total pages charged == ceil(total bytes / page)).
  int64_t write_pages_charged_ = 0;
  int64_t read_pages_charged_ = 0;
};

}  // namespace magicdb

#endif  // MAGICDB_SPILL_SPILL_FILE_H_
