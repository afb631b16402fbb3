#ifndef MAGICDB_PARALLEL_MORSEL_H_
#define MAGICDB_PARALLEL_MORSEL_H_

#include <atomic>
#include <cstdint>

namespace magicdb {

/// A fixed-size run of consecutive row positions [begin, end) of one input
/// relation — the unit of work distribution in morsel-driven execution.
struct Morsel {
  int64_t index = 0;  // 0-based position of this morsel in the input
  int64_t begin = 0;  // first row (inclusive)
  int64_t end = 0;    // last row (exclusive)
};

/// Carves [0, num_rows) into page-aligned morsels and hands them out to
/// workers through an atomic cursor. Page alignment is load-bearing for
/// cost accounting: every morsel except the last spans whole storage pages,
/// so the per-row "charge one page read at each page boundary" rule used by
/// the scans sums to exactly the same page count at any degree of
/// parallelism as a single sequential scan.
///
/// Thread-safe: any number of workers may call Next concurrently. Claimed
/// morsel indexes are monotonically increasing, so the morsels one worker
/// receives are always in ascending row order — the property the result
/// sink's lane merge relies on for deterministic output.
class MorselSource {
 public:
  /// Morsels cover [0, num_rows); the morsel size is `target_rows` rounded
  /// up to the next multiple of `rows_per_page` (minimum one page).
  MorselSource(int64_t num_rows, int64_t rows_per_page,
               int64_t target_rows = kDefaultMorselRows);

  /// Claims the next unclaimed morsel. Returns false at end of input.
  bool Next(Morsel* morsel);

  int64_t num_rows() const { return num_rows_; }
  int64_t morsel_rows() const { return morsel_rows_; }

  /// Rewinds the cursor. Only safe when no worker is mid-claim (tests and
  /// re-execution setup; never during a running pipeline).
  void Reset() { next_.store(0, std::memory_order_relaxed); }

  static constexpr int64_t kDefaultMorselRows = 4096;

 private:
  int64_t num_rows_;
  int64_t morsel_rows_;
  int64_t num_morsels_;
  std::atomic<int64_t> next_{0};
};

}  // namespace magicdb

#endif  // MAGICDB_PARALLEL_MORSEL_H_
