#ifndef MAGICDB_SERVER_CURSOR_H_
#define MAGICDB_SERVER_CURSOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/statusor.h"
#include "src/db/database.h"
#include "src/exec/result_sink.h"

namespace magicdb {

class QueryService;

/// Shared state of one open cursor. Internal to the server layer: the
/// cursor handle, the query's producer tasks on the shared pool, and the
/// service all reference it via shared_ptr, so it outlives whichever side
/// finishes last. Clients use the Cursor wrapper below.
struct CursorState {
  CursorState(QueryService* service, int64_t high_water_rows)
      : service(service), sink(high_water_rows) {}

  QueryService* service;
  ResultSink sink;
  /// Per-query memory governor; null when the query runs ungoverned. Close
  /// reads its peak for the query_memory_bytes histogram.
  std::shared_ptr<MemoryTracker> memory_tracker;
  /// Never null: Close() cancels it to unwind any remaining production.
  CancelTokenPtr token;
  /// Catalog epoch the plan was built at; production quanta re-check it so
  /// a cursor never fetches from a plan whose catalog objects changed.
  int64_t plan_epoch = 0;
  /// Plan-cache key for checking the instance back in at end of stream
  /// (empty when this execution's tree is not poolable).
  std::string cache_key;
  std::chrono::steady_clock::time_point start_time{};
  /// Bytes this query claims against the service-wide memory ceiling (its
  /// effective memory limit; 0 when ungoverned or no ceiling configured).
  /// Released together with the admission ticket at close.
  int64_t memory_claim = 0;
  /// Live-query registry id (stuck-query watchdog, graceful drain);
  /// 0 = never registered.
  uint64_t watch_id = 0;
  /// Liveness heartbeat shared with every execution context of the query;
  /// the watchdog cancels the token when it stops advancing.
  std::shared_ptr<std::atomic<int64_t>> progress_heartbeat;

  // Plan metadata, immutable once the cursor is handed out.
  PlanMeta plan;
  int used_dop = 1;
  std::string parallel_fallback_reason;
  /// Times runtime cardinality feedback re-planned this query before its
  /// final attempt ran to completion (0 = the first plan survived).
  int reoptimizations = 0;
  /// Per-query runtime cardinality ledger (never null once opened); shared
  /// with every execution context of the query.
  std::shared_ptr<CardinalityFeedback> cardinality_feedback;

  // Terminal execution state: written by the lane that finishes last
  // strictly before its sink.Finish(), read by the consumer strictly after
  // every lane finished — the sink's mutex orders the handoff.
  CostCounters final_counters;
  std::vector<FilterJoinMeasured> filter_join_measured;

  // Consumer-side bookkeeping, touched only by the one client thread
  // driving the cursor (and by Close, which that thread calls).
  bool saw_eof = false;
  bool closed = false;
  Status terminal_status;
};

/// Streaming handle to one query's result: the bounded-memory replacement
/// for QueryResult's materialized row vector. Obtained from
/// Session::Open(); rows arrive through repeated Fetch(n) calls while the
/// query produces into a bounded, backpressured queue behind the scenes —
/// peak buffered rows never exceed the queue's high-water mark plus one
/// scheduler quantum per producing lane (one lane, or one per worker of a
/// dop > 1 gang), regardless of result cardinality.
///
/// Concatenating every fetched batch yields exactly the rows (same order,
/// same bytes) Session::Query() returns for the same statement and options
/// — Query() is in fact a fetch-all wrapper over this cursor.
///
/// Lifecycle: the query stays admitted (holds its admission ticket) while
/// the cursor is open; Close() — or the destructor — cancels any remaining
/// production, drains the queue, and releases the ticket, so an abandoned
/// or slow consumer cannot pin pool resources. The deadline/cancel token
/// is enforced at every Fetch. One thread drives a cursor; a cursor must
/// not outlive its session's QueryService.
class Cursor {
 public:
  /// An empty (already-closed) cursor; Fetch on it fails.
  Cursor() = default;
  ~Cursor();

  Cursor(Cursor&& other) noexcept;
  Cursor& operator=(Cursor&& other) noexcept;
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;

  bool valid() const { return state_ != nullptr; }

  const Schema& schema() const { return state_->plan.schema; }
  const std::string& explain() const { return state_->plan.explain; }
  double est_cost() const { return state_->plan.est_cost; }
  double est_rows() const { return state_->plan.est_rows; }
  int used_dop() const { return state_->used_dop; }
  const std::string& parallel_fallback_reason() const {
    return state_->parallel_fallback_reason;
  }
  const std::vector<FilterJoinCostBreakdown>& filter_joins() const {
    return state_->plan.filter_joins;
  }
  const OptimizerStats& optimizer_stats() const {
    return state_->plan.optimizer_stats;
  }

  /// How many times cardinality feedback re-planned this query at Open.
  int reoptimizations() const { return state_->reoptimizations; }

  /// Breaker cardinalities observed while executing (first observation per
  /// key wins; complete once the stream ended).
  std::vector<CardinalityObservation> feedback() const {
    return state_->cardinality_feedback != nullptr
               ? state_->cardinality_feedback->Snapshot()
               : std::vector<CardinalityObservation>{};
  }

  /// Pulls the next batch: up to `max_rows` rows (at least one unless the
  /// stream ended), blocking until rows are available. An empty batch with
  /// OK status is the end-of-stream marker. Errors (deadline, cancellation,
  /// execution failure, stale plan after DDL) surface here; buffered rows
  /// are delivered before a stream error, but the cursor's own
  /// deadline/cancel token is checked first at every call.
  StatusOr<std::vector<Tuple>> Fetch(int64_t max_rows);

  /// True once Fetch returned the end-of-stream marker or an error.
  bool done() const;

  /// Execution totals, meaningful once the stream ended cleanly: exactly
  /// the counters (and measured Filter Join phases) Query() would report.
  const CostCounters& counters() const { return state_->final_counters; }
  const std::vector<FilterJoinMeasured>& filter_join_measured() const {
    return state_->filter_join_measured;
  }

  /// Most rows the result queue ever held, and how often the producer was
  /// suspended on a full queue — the observable backpressure facts the
  /// bounded-memory guarantee is stated against.
  int64_t peak_buffered_rows() const;
  int64_t producer_parks() const;

  /// Peak bytes the per-query memory governor ever had charged (0 when the
  /// query ran ungoverned). The governor rejects any charge that would
  /// exceed the limit, so this never exceeds it — spilling included.
  int64_t memory_peak_bytes() const {
    return state_->memory_tracker != nullptr
               ? state_->memory_tracker->peak_bytes()
               : 0;
  }

  /// Cancels remaining production, drains the queue, releases the query's
  /// admission ticket. Idempotent; later calls return the same terminal
  /// status (OK only when the stream was fully consumed to end-of-stream
  /// before closing).
  Status Close();

 private:
  friend class QueryService;
  explicit Cursor(std::shared_ptr<CursorState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<CursorState> state_;
};

}  // namespace magicdb

#endif  // MAGICDB_SERVER_CURSOR_H_
