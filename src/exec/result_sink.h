#ifndef MAGICDB_EXEC_RESULT_SINK_H_
#define MAGICDB_EXEC_RESULT_SINK_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/memory_tracker.h"
#include "src/common/statusor.h"
#include "src/types/tuple.h"

namespace magicdb {

/// A row's place in the sequential emission order: the (pos, sub) rank tag
/// its batch carried (RowBatch::pos/sub), ordered lexicographically.
struct RowRank {
  int64_t pos = 0;
  int64_t sub = 0;

  friend bool operator<(const RowRank& a, const RowRank& b) {
    return a.pos != b.pos ? a.pos < b.pos : a.sub < b.sub;
  }
};

/// Bounded, backpressured row queue between one query's producers and its
/// (single) consumer — the streaming replacement for materializing a full
/// result vector. It has one *lane* per producer: the sequential pipeline,
/// or each worker of a parallel gang. Producers are cooperative pump tasks
/// (StreamPump) that never block a pool thread; the consumer is the client
/// thread inside Cursor::Fetch, or the caller of an embedded DrainLanes.
///
/// Backpressure protocol (producer side, per lane):
///   1. Before producing a batch, call ReserveOrPark(lane, resume). Below
///      the lane's high-water mark it returns true — go produce. On a full
///      lane it stores `resume` and returns false — the producer must return
///      without re-enqueueing itself (it is *parked*: no pool thread is
///      occupied, no CPU spins).
///   2. Push(lane, rows, ranks) appends a whole batch, so a lane may
///      overshoot its mark by up to one producer quantum.
///   3. Finish(lane, status) ends the lane (end of data, error,
///      cancellation).
/// The consumer's Fetch pops rows and, once a parked lane has drained below
/// its mark, re-submits it by invoking its resume closure (outside the
/// lock). Parking under the same mutex as the pop rules out lost wakeups.
///
/// Lane merge: with several lanes, rows go out in (pos, sub) order. The
/// least queued head (ties to the lowest lane) may go out once it lies below
/// the *frontier* — the rank of the last pushed row — of every other lane
/// that has nothing queued and has not ended cleanly. Each lane's ranks
/// increase (workers claim morsels in increasing order, and a rank belongs
/// to one worker), so the merged order is exactly the sequential order. A
/// one-lane sink stores no ranks and delivers in push order.
///
/// Memory: the high-water mark is split evenly across the lanes (at least
/// one row each), so at most high_water_rows + lanes x quantum rows are
/// buffered. Thread-safe between one producer per lane and one consumer;
/// every cross-thread handoff (including the terminal state the consumer
/// reads final counters after) is ordered through the internal mutex.
class ResultSink {
 public:
  /// `high_water_rows` is clamped up to 1. The sink starts with one lane.
  explicit ResultSink(int64_t high_water_rows);

  ResultSink(const ResultSink&) = delete;
  ResultSink& operator=(const ResultSink&) = delete;

  /// Gives the sink one lane per producer (clamped up to 1). Must be called
  /// before the producers start.
  void set_lanes(int lanes);

  /// Attaches the query's memory governor: queued rows are charged on Push
  /// and released as the consumer pops (or Drain discards) them. Must be
  /// called before the producers start; null = ungoverned.
  void set_memory_tracker(std::shared_ptr<MemoryTracker> tracker) {
    tracker_ = std::move(tracker);
  }

  // ----- producer side -----

  /// True: `lane` has capacity (or the stream is being drained) — produce
  /// now. False: the lane is full; `resume` is stored for the consumer to
  /// invoke and the producer must return without rescheduling.
  bool ReserveOrPark(int lane, std::function<void()> resume);

  /// Appends rows to `lane` and wakes the consumer. With several lanes
  /// `ranks` holds each row's rank; with one it is ignored. Empty batches
  /// are dropped. With a memory tracker the batch is charged first; on
  /// breach it is dropped and kResourceExhausted returned — the producer
  /// must Finish its lane with it.
  Status Push(int lane, std::vector<Tuple> rows,
              const std::vector<RowRank>& ranks);

  /// Ends `lane`; the first call per lane wins. The first error of any lane
  /// is the stream's outcome; the stream ends cleanly when every lane
  /// finished OK.
  void Finish(int lane, Status status);

  // ----- consumer side -----

  /// Pops up to `max_rows` rows in merge order, blocking until a row may go
  /// out, the stream ended, or `token` fires (checked every few
  /// milliseconds; nullptr = uncancellable). Rows that may go out are
  /// delivered before a stream error is reported; a fired token is
  /// reported immediately. An empty OK batch means clean end of stream.
  StatusOr<std::vector<Tuple>> Fetch(int64_t max_rows,
                                     const CancelToken* token);

  /// Discards everything queued and keeps resuming parked lanes until every
  /// lane finished. Close calls this *after* cancelling the query token, so
  /// the producers unwind within one quantum. Blocks until finished.
  void Drain();

  /// True when the stream waits on its consumer rather than on execution:
  /// every lane finished, or every unfinished lane is parked on its
  /// high-water mark. The stuck-query watchdog skips such streams.
  bool awaiting_consumer() const;

  /// Terminal status: the first lane error, OK until then.
  Status final_status() const;

  // ----- observability -----

  /// Most rows ever resident at once — the number the bounded-memory
  /// guarantee is stated against.
  int64_t peak_queued_rows() const { return peak_queued_rows_.load(); }
  int64_t total_rows_pushed() const { return total_rows_pushed_.load(); }
  /// Times a producer parked on a full lane (backpressure engagements).
  int64_t producer_parks() const { return producer_parks_.load(); }

 private:
  struct Lane {
    std::deque<Tuple> rows;
    std::deque<RowRank> ranks;  // one per queued row; several lanes only
    RowRank frontier{INT64_MIN, INT64_MIN};  // rank of the last pushed row
    std::function<void()> parked_resume;  // non-null while parked
    bool finished = false;
    bool ended = false;  // finished OK: no longer holds back the merge
  };

  /// The lane whose head row goes out next, or -1 when no queued row may go
  /// out yet. Callers hold mu_.
  int NextLaneLocked() const;
  /// Pops up to `max_rows` rows into `out` and collects the resume closures
  /// of lanes that drained below their mark. Callers hold mu_.
  void PopLocked(int64_t max_rows, std::vector<Tuple>* out,
                 std::vector<std::function<void()>>* resumes);

  const int64_t high_water_rows_;
  std::shared_ptr<MemoryTracker> tracker_;  // set before producers start

  mutable std::mutex mu_;
  std::condition_variable consumer_cv_;
  std::vector<Lane> lanes_;
  int64_t lane_high_water_;
  int unfinished_lanes_ = 1;
  int64_t queued_rows_ = 0;
  bool draining_ = false;
  Status final_status_;
  // Written under mu_; atomic so the accessors read them without it.
  std::atomic<int64_t> peak_queued_rows_{0};
  std::atomic<int64_t> total_rows_pushed_{0};
  std::atomic<int64_t> producer_parks_{0};
};

}  // namespace magicdb

#endif  // MAGICDB_EXEC_RESULT_SINK_H_
