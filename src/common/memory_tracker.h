#ifndef MAGICDB_COMMON_MEMORY_TRACKER_H_
#define MAGICDB_COMMON_MEMORY_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/common/status.h"

namespace magicdb {

/// Per-query memory governor. One tracker is shared (via shared_ptr) by every
/// worker of a query plus its result sink; operators charge each row or
/// group they retain (hash-table rows, spooled production tuples,
/// partial-aggregate groups, sort and distinct inputs, spill frames, queued
/// sink rows) when they retain it, and release the bytes when the state is
/// dropped.
///
/// Charging is advisory accounting, not an allocator hook: the charge is the
/// engine's own estimate (TupleByteWidth and friends), the same quantity the
/// cost model budgets against. The tracker keeps a limit, the bytes in use
/// and a sticky peak of them. A charge is one fetch_add plus the peak
/// update; a breach refunds the failed charge and returns
/// kResourceExhausted, so `used_bytes()` never exceeds the limit by more
/// than the in-flight charges of concurrent workers, and `peak_bytes()`
/// never exceeds it at all. A deterministic rerun with the limit set to the
/// observed peak therefore succeeds, and one byte less fails.
///
/// A limit <= 0 means unlimited: charges still maintain used/peak (cheap
/// relaxed atomics) but can never fail. Operators treat a null tracker
/// pointer as "no governance" and skip the calls entirely.
class MemoryTracker {
 public:
  explicit MemoryTracker(int64_t limit_bytes) : limit_bytes_(limit_bytes) {}

  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  /// Accounts `bytes` against the limit. On breach the charge is rolled back
  /// and kResourceExhausted is returned; the caller must abandon the
  /// allocation it was about to retain.
  Status Charge(int64_t bytes) {
    if (bytes <= 0) return Status::OK();
    const int64_t now =
        used_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (limit_bytes_ > 0 && now > limit_bytes_) {
      used_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "query memory limit exceeded: need " + std::to_string(now) +
          " bytes, limit " + std::to_string(limit_bytes_) + " bytes");
    }
    // Lock-free max update; racing peaks converge to the true maximum.
    int64_t peak = peak_bytes_.load(std::memory_order_relaxed);
    while (now > peak && !peak_bytes_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
    return Status::OK();
  }

  /// Returns previously charged bytes. Never fails.
  void Release(int64_t bytes) {
    if (bytes <= 0) return;
    used_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  int64_t used_bytes() const {
    return used_bytes_.load(std::memory_order_relaxed);
  }
  int64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  int64_t limit_bytes() const { return limit_bytes_; }

 private:
  const int64_t limit_bytes_;
  std::atomic<int64_t> used_bytes_{0};
  std::atomic<int64_t> peak_bytes_{0};
};

}  // namespace magicdb

#endif  // MAGICDB_COMMON_MEMORY_TRACKER_H_
