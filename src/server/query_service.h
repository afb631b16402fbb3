#ifndef MAGICDB_SERVER_QUERY_SERVICE_H_
#define MAGICDB_SERVER_QUERY_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/metrics.h"
#include "src/common/statusor.h"
#include "src/db/database.h"
#include "src/parallel/thread_pool.h"
#include "src/server/cursor.h"
#include "src/server/plan_cache.h"
#include "src/server/session.h"

namespace magicdb {

/// The producer of one cursor's result stream (defined in the .cc): a
/// StreamPump over the query's lanes on the shared pool.
class StreamProducer;
class SpillManager;

/// Construction-time knobs of a QueryService.
struct QueryServiceOptions {
  /// Worker threads in the one shared pool. 0 = hardware concurrency.
  int pool_threads = 0;

  /// Admission tickets: queries running or executing concurrently (queued
  /// submitters beyond this wait FIFO). An open cursor holds its ticket
  /// until closed. 0 = 2 * pool_threads.
  int max_concurrent_queries = 0;

  /// Plan-cache capacity (distinct (options, sql) keys) and how many idle
  /// physical instances each entry pools for reuse.
  size_t plan_cache_entries = 128;
  size_t plan_cache_instances_per_entry = 8;

  /// Rows a producing pipeline pumps per scheduler quantum before yielding
  /// its pool worker to the next queued task (the fair-interleaving knob;
  /// roughly a quarter of MorselSource::kDefaultMorselRows by default).
  int64_t scheduler_quantum_rows = kDefaultQuantumRows;

  /// Default high-water mark (rows) of a cursor's result queue: once this
  /// many rows are buffered unfetched, the producer is parked until the
  /// consumer drains below the mark. A dop > 1 cursor splits the mark
  /// evenly across its gang's lanes. Peak buffered rows are bounded by this
  /// plus one scheduler quantum per lane. Per-query override:
  /// ExecOptions::stream_queue_rows.
  int64_t stream_queue_rows = kDefaultStreamQueueRows;

  /// Default per-query memory limit (bytes) for retained execution state
  /// (build tables, spooled tuples, aggregate groups, queued result rows).
  /// A query breaching it fails with kResourceExhausted. 0 = ungoverned.
  /// Per-query override: ExecOptions::memory_limit_bytes.
  int64_t query_memory_limit_bytes = 0;

  /// Directory for spill temp files. When set, a governed query that
  /// breaches its memory limit degrades to out-of-core execution (Grace
  /// hash join, hybrid hash aggregation, external merge sort) instead of
  /// failing — unless the query opts out with ExecOptions::allow_spill =
  /// false. Empty (the default) disables spilling entirely.
  std::string spill_dir;

  /// Write/read batch size of one spill file (bytes); bounds per-file
  /// buffer memory, which is itself charged to the query. 0 = the
  /// SpillConfig default.
  int64_t spill_batch_bytes = 0;

  /// Default rows per execution batch, applied to queries that leave
  /// ExecOptions::batch_size <= 0. A value <= 0 (the default) resolves at
  /// construction to DefaultExecBatchSize(): 1024, or the
  /// MAGICDB_TEST_BATCH_SIZE environment variable when set, so a
  /// build-script sweep can change the batch size of every service in the
  /// process without touching call sites.
  int64_t default_batch_size = -1;

  /// Weighted-fair admission: relative capacity shares of the three
  /// priority classes while queries are queued (an idle service admits
  /// everything immediately regardless). Clamped up to 1 at construction.
  int admission_weight_high = 8;
  int admission_weight_normal = 4;
  int admission_weight_background = 1;

  /// Load-shedding high-water mark on queued (not yet admitted) queries: a
  /// non-high-priority submission arriving while this many waiters are
  /// queued is rejected immediately with kUnavailable carrying a
  /// machine-readable `retry_after_us=` hint, instead of queueing
  /// unboundedly. 0 (the default) disables the trigger — or defers to the
  /// MAGICDB_TEST_SHED_QUEUE_DEPTH environment variable when set, so a
  /// build-script sweep can impose overload on the whole suite. Negative
  /// explicitly disables, overriding the environment.
  int shed_queue_depth = 0;

  /// Load-shedding high-water mark on the *estimated* admission wait
  /// (microseconds), computed from the queue depth and an EWMA of recent
  /// query latency. Same shed semantics and kUnavailable hint as
  /// shed_queue_depth. 0 (the default) disables; negative explicitly
  /// disables.
  int64_t shed_wait_estimate_us = 0;

  /// Service-wide memory ceiling (bytes): admission blocks a governed
  /// query while the sum of admitted queries' effective memory limits
  /// would exceed this, so concurrent governed queries cannot collectively
  /// overcommit the node. A single query whose limit alone exceeds the
  /// ceiling fails with kResourceExhausted. Ungoverned queries (no memory
  /// limit) are not claimed against it. 0 = unlimited.
  int64_t service_memory_ceiling_bytes = 0;

  /// Service-wide spill disk budget (bytes) across every live spill file
  /// (SpillConfig::disk_budget_bytes). A query whose frame flush would
  /// exceed it fails with kResourceExhausted; bystanders are unaffected
  /// and the budget frees as queries close. 0 = unbounded.
  int64_t spill_disk_budget_bytes = 0;

  /// Stuck-query watchdog: cancel a query whose progress heartbeat (rows,
  /// batches, spill bytes) has not advanced for this long. Parked
  /// producers (consumer backpressure) and finished streams are exempt.
  /// Zero (the default) disables the watchdog entirely — no thread is
  /// started.
  std::chrono::milliseconds watchdog_stall_timeout{0};

  /// How often the watchdog samples heartbeats (only meaningful with a
  /// non-zero stall timeout). 0 = a quarter of the stall timeout.
  std::chrono::milliseconds watchdog_poll_interval{0};
};

/// Point-in-time view of the service counters (see also MetricsText()).
struct ServiceStats {
  int pool_threads = 0;
  int64_t queries_submitted = 0;
  int64_t queries_admitted = 0;
  int64_t queries_completed = 0;
  int64_t queries_failed = 0;
  int64_t queries_cancelled = 0;
  int64_t deadlines_exceeded = 0;
  /// Queries that failed their per-query memory limit (kResourceExhausted).
  int64_t queries_resource_exhausted = 0;
  /// DDL-staleness replans Query() performed (each with backoff).
  int64_t query_ddl_retries = 0;
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t plan_instance_reuses = 0;
  int64_t sched_quanta = 0;
  int64_t morsels_stolen = 0;
  int64_t ddl_epoch = 0;
  /// Streaming-cursor series: cursors ever opened, cursors open right now,
  /// rows delivered through Fetch, producer suspensions on a full result
  /// queue, and cursors that failed because DDL staled their plan.
  int64_t cursors_opened = 0;
  int64_t open_cursors = 0;
  int64_t rows_streamed = 0;
  int64_t cursor_producer_parks = 0;
  int64_t cursors_stale = 0;
  /// Parallel queries (requested dop > 1) that ran sequentially, total and
  /// broken down by sanitized fallback reason — a sequential regression
  /// shows up here instead of silently shifting latencies.
  int64_t parallel_fallbacks = 0;
  std::map<std::string, int64_t> parallel_fallback_reasons;
  /// Runtime re-optimizations performed (one per abandoned attempt), total
  /// and broken down by the sanitized trigger site
  /// (`magicdb_server_reoptimizations_total{reason=...}`).
  int64_t reoptimizations = 0;
  std::map<std::string, int64_t> reoptimization_reasons;
  /// Plan-cache traffic broken down by the join-order backend that planned
  /// the statement ({backend=...} labels on the hit/miss counters).
  std::map<std::string, int64_t> plan_cache_hits_by_backend;
  std::map<std::string, int64_t> plan_cache_misses_by_backend;
  /// Spill subsystem totals (magicdb_spill_*): bytes moved through spill
  /// files, files/partitions created, deepest recursive partitioning level
  /// seen, and queries that actually spilled.
  int64_t spill_bytes_written = 0;
  int64_t spill_bytes_read = 0;
  int64_t spill_files_created = 0;
  int64_t spill_partitions_opened = 0;
  int64_t spill_recursion_depth_max = 0;
  int64_t spilled_queries = 0;
  /// Live admission state: tickets currently held (admitted queries and
  /// open cursors) and gang slots reserved by running parallel gangs. Both
  /// must return to zero when every cursor is closed — the invariant the
  /// chaos tests assert after each injected fault.
  int active_queries = 0;
  int used_gang_slots = 0;
  /// Overload-resilience series: queries waiting in the admission queue
  /// right now, queries rejected by load shedding (total and by reason),
  /// wrapper retries after a shed, watchdog kills (total and by reason),
  /// bytes currently claimed against the service memory ceiling, the spill
  /// disk budget/occupancy/rejections, and whether the service is
  /// draining (Shutdown() called).
  int queued_queries = 0;
  int64_t queries_shed = 0;
  std::map<std::string, int64_t> shed_reasons;
  int64_t query_shed_retries = 0;
  int64_t watchdog_cancels = 0;
  std::map<std::string, int64_t> watchdog_cancel_reasons;
  int64_t memory_ceiling_claimed_bytes = 0;
  int64_t spill_disk_budget_bytes = 0;
  int64_t spill_disk_used_bytes = 0;
  int64_t spill_disk_rejections = 0;
  bool draining = false;
  /// Admissions broken down by priority class (weighted-fairness checks).
  std::map<std::string, int64_t> admitted_by_priority;
  /// Per-priority admission-wait quantiles (microseconds), keyed by class
  /// name; present once a class has admitted at least one query.
  std::map<std::string, double> admission_wait_us_p50_by_priority;
  std::map<std::string, double> admission_wait_us_p95_by_priority;
  double admission_wait_us_p50 = 0.0;
  double admission_wait_us_p95 = 0.0;
  double query_latency_us_p50 = 0.0;
  double query_latency_us_p95 = 0.0;
  double query_latency_us_p99 = 0.0;
  double cursor_batch_wait_us_p50 = 0.0;
  double cursor_batch_wait_us_p95 = 0.0;

  std::string ToString() const;
};

/// Concurrent query service over one Database: the missing layer between
/// "embedded library" and "server".
///
///   - One process-wide work-stealing ThreadPool shared by every query
///     (an embedded Database::Run at dop > 1 creates a pool per call).
///   - FIFO admission controller: `max_concurrent_queries` tickets, plus
///     gang-slot accounting that keeps the number of potentially blocking
///     parallel workers at or below the pool size — the invariant that
///     makes barrier-synchronized gangs deadlock-free on a shared pool
///     (ThreadPool::RunGang).
///   - Streaming result delivery: Open() returns a Cursor whose Fetch(n)
///     pulls batches incrementally. Producing pipelines — the sequential
///     tree, or each replica of a parallel gang after its Open phase — run
///     as cooperative quantum tasks that push into their lane of a bounded
///     ResultSink and park on its high-water mark, so result memory is
///     bounded by the queue (not the result cardinality) and a slow
///     consumer suspends — never blocks — pool workers. Query() is a
///     fetch-all wrapper over the same path.
///   - Fair scheduling: producers pump `scheduler_quantum_rows` rows per
///     quantum and re-enqueue themselves, so concurrently admitted queries
///     interleave at morsel granularity instead of monopolizing a worker.
///   - SQL-keyed plan cache (per-options fingerprint) invalidated by the
///     catalog DDL epoch; hits skip parse/bind/optimize entirely when an
///     idle physical instance is pooled.
///   - Per-query deadlines and cooperative cancellation threaded through
///     every operator checkpoint and every cursor Fetch; cursor close =
///     cancel + drain, so abandoned consumers free pool resources.
///
/// Queries run through Database::StartQuery, the same attempt driver behind
/// Database::Run, so results are byte-identical to Database::Run() under
/// the same session options and ExecOptions — concatenating a cursor's
/// fetched batches reproduces the exact rows, order, merged CostCounters
/// and re-optimizations at any DoP.
///
/// The service takes over the database for its lifetime: run DDL/loads
/// through Execute()/LoadRows() (serialized against queries; a cursor still
/// producing when DDL lands fails a later Fetch with FailedPrecondition
/// instead of reading replaced catalog objects). Close every cursor before
/// destroying the service.
class QueryService {
 public:
  explicit QueryService(Database* db, const QueryServiceOptions& options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Opens a session initialized with the database's current optimizer
  /// options. The session must not outlive the service. The overload picks
  /// the session's admission priority class (default kNormal).
  std::unique_ptr<Session> CreateSession();
  std::unique_ptr<Session> CreateSession(const SessionOptions& options);

  /// Graceful drain: stops admitting (new and queued submissions fail with
  /// kUnavailable, no retry hint), waits up to `grace` for in-flight
  /// queries to finish and their cursors to be closed, then cancels the
  /// stragglers' tokens and waits up to `grace` again. Returns OK once
  /// every ticket and gang slot is released (asserted); kDeadlineExceeded
  /// if open cursors remain — their clients must still Close() them.
  /// Idempotent; the service stays drained afterwards.
  Status Shutdown(
      std::chrono::milliseconds grace = std::chrono::milliseconds(5000));

  /// DDL (CREATE TABLE / CREATE VIEW), serialized against running queries;
  /// bumps the catalog epoch and thereby invalidates cached plans.
  Status Execute(const std::string& ddl);

  /// Bulk load + ANALYZE, serialized against running queries. Also bumps
  /// the epoch: fresh statistics may change plan choice.
  Status LoadRows(const std::string& table, std::vector<Tuple> rows);

  /// Opens a streaming cursor for one SELECT; Session::Open forwards here.
  /// Admission, planning, and (for dop > 1) the gang's Open phase — every
  /// pipeline breaker and peer barrier — happen before this returns; rows
  /// are then pulled with Cursor::Fetch while the lanes produce them.
  StatusOr<Cursor> Open(Session* session, const std::string& sql,
                        const ExecOptions& exec = {});

  /// Fetch-all convenience over Open(): opens a cursor, drains it, and
  /// assembles the classic QueryResult. Session::Query forwards here.
  StatusOr<QueryResult> Query(Session* session, const std::string& sql,
                              const ExecOptions& exec = {});

  /// Parse/bind validation under the DDL lock (prepared statements).
  Status ValidateSelect(const std::string& sql);

  /// Plans under the DDL lock; returns the EXPLAIN text.
  StatusOr<std::string> Explain(const std::string& sql,
                                const OptimizerOptions& options);

  Database* database() { return db_; }
  ThreadPool* pool() { return pool_.get(); }
  MetricsRegistry* metrics() { return &metrics_; }

  ServiceStats StatsSnapshot() const;
  std::string MetricsText() const;

  int pool_threads() const { return pool_->size(); }

 private:
  friend class Cursor;
  friend class StreamProducer;

  /// Load-shedding gate, evaluated before a submission queues: under the
  /// configured high-water marks a non-high-priority query is rejected
  /// with kUnavailable carrying a `retry_after_us=` hint. kHigh queries
  /// are never shed. Failpoint site: `admission.shed`.
  Status MaybeShed(SessionPriority priority);

  /// Blocking weighted-fair admission: one FIFO lane per priority class,
  /// served by smallest virtual time (vt advances by scale/weight per
  /// admission, so admission rates under saturation converge to the
  /// configured weight ratios; the head candidate blocks until ticket,
  /// gang-slot, and memory-ceiling capacity all fit — same head-of-line
  /// semantics the strict-FIFO controller had, so gangs cannot starve).
  /// `gang_slots` is 0 for sequential queries and the effective dop for
  /// parallel ones; `memory_claim` is the query's effective memory limit,
  /// claimed against the service memory ceiling until release. Returns
  /// non-OK when `token` fires while queued or the service drains; records
  /// the wait in the aggregate and per-priority admission histograms.
  Status Admit(SessionPriority priority, int gang_slots, int64_t memory_claim,
               const CancelToken* token);
  /// Gang slots are released as soon as the gang's Open phase finishes
  /// (inside Open: the lanes that stream afterwards never block a pool
  /// thread); the admission ticket and memory-ceiling claim are held until
  /// the cursor closes.
  void ReleaseGangSlots(int gang_slots);
  void ReleaseTicket(int64_t memory_claim);

  /// Total queued waiters across classes; callers hold admit_mu_.
  int64_t QueuedLocked() const;
  /// Estimated admission wait of a new arrival (microseconds), from the
  /// queue depth and the EWMA of recent query latency; admit_mu_ held.
  int64_t EstimateAdmissionWaitUsLocked() const;
  /// The non-empty lane the weighted-fair scheduler serves next (smallest
  /// virtual time, ties by smallest head ticket); -1 when all lanes are
  /// empty. Callers hold admit_mu_.
  int PickClassLocked() const;

  /// Counts one shed: bumps the total plus
  /// `magicdb_server_sheds_total{reason=...}`.
  void RecordShed(const char* reason);

  /// Live-query registry (graceful drain + stuck-query watchdog): every
  /// open cursor is registered from OpenAdmitted until CloseCursor.
  uint64_t RegisterLiveQuery(const std::shared_ptr<CursorState>& state);
  void UnregisterLiveQuery(uint64_t watch_id);

  /// Watchdog thread body: samples every live query's heartbeat each poll
  /// interval and cancels (CancelToken::CancelStalled) those that made no
  /// progress for watchdog_stall_timeout, skipping parked producers and
  /// finished streams. Failpoint site: `watchdog.fire`.
  void WatchdogLoop();

  /// Looks up or plans the query, starts it through Database::StartQuery,
  /// and hands the stream's lanes to its producer; always releases
  /// `gang_slots` before returning (the gang's Open phase, if any, has
  /// finished by then). `memory_limit` is the effective limit Open resolved
  /// and claimed (0 = ungoverned). On success the returned cursor owns the
  /// admission ticket.
  StatusOr<Cursor> OpenAdmitted(Session* session, const std::string& sql,
                                const ExecOptions& exec,
                                const CancelTokenPtr& token,
                                int effective_dop, int gang_slots,
                                int64_t memory_limit);

  // Cursor plumbing (called through the Cursor handle).
  StatusOr<std::vector<Tuple>> FetchFromCursor(CursorState* cursor,
                                               int64_t max_rows);
  Status CloseCursor(CursorState* cursor);

  /// One open -> fetch-all -> close pass; Query() retries it when DDL
  /// stales the stream mid-drain (an explicit Cursor surfaces that error
  /// to its caller instead — only the wrapper, which has delivered nothing
  /// yet, may restart transparently).
  StatusOr<QueryResult> QueryViaCursor(Session* session,
                                       const std::string& sql,
                                       const ExecOptions& exec);

  /// Counts one parallel-requested query that fell back to sequential:
  /// bumps the total plus a per-reason counter
  /// (`magicdb_server_parallel_fallbacks_total{reason=...}`).
  void RecordParallelFallback(const std::string& reason);

  /// Counts one runtime re-optimization: bumps the total plus a per-reason
  /// counter (`magicdb_server_reoptimizations_total{reason=...}`, the
  /// reason being the sanitized trigger-site prefix of the
  /// kReoptimizeRequested status message).
  void RecordReoptimization(const std::string& reason);

  /// Copies the SpillManager's atomics into the magicdb_spill_* mirror
  /// counters (no-op without a spill area).
  void SyncSpillMetrics() const;

  Database* db_;
  QueryServiceOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  PlanCache plan_cache_;

  /// Shared spill area for every governed query; null when
  /// QueryServiceOptions::spill_dir is empty (spilling disabled).
  std::shared_ptr<SpillManager> spill_manager_;

  /// DDL/loads hold this exclusive; planning and every producer quantum
  /// hold it shared (a quantum, not a query, is the read-side critical
  /// section — that is what lets DDL run while cursors are open).
  std::shared_mutex ddl_mu_;

  // Admission state. Mutable so StatsSnapshot (const) can read the live
  // ticket/gang-slot occupancy under it.
  mutable std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  /// One FIFO lane of waiter tickets per priority class plus its virtual
  /// time; the weighted-fair scheduler serves the non-empty lane with the
  /// smallest vt (ties: smallest head ticket, i.e. global FIFO).
  struct AdmissionLane {
    std::deque<uint64_t> waiters;
    int64_t virtual_time = 0;
  };
  std::array<AdmissionLane, kNumSessionPriorities> admit_lanes_;
  std::array<int, kNumSessionPriorities> admission_weights_{1, 1, 1};
  uint64_t next_ticket_ = 0;
  int active_queries_ = 0;
  int used_gang_slots_ = 0;
  /// Sum of admitted governed queries' memory limits, gated by the
  /// service-wide ceiling.
  int64_t memory_ceiling_claimed_ = 0;
  /// Set by Shutdown(): admission rejects everything (queued waiters
  /// included) with kUnavailable.
  bool draining_ = false;
  /// EWMA of completed-query latency (microseconds), feeding the estimated
  /// admission wait behind shed_wait_estimate_us and the retry-after hint.
  std::atomic<int64_t> ewma_query_latency_us_{0};

  /// Live-query registry: graceful drain cancels through it; the watchdog
  /// samples it. Entries carry their own sampling state.
  struct LiveQueryEntry {
    std::shared_ptr<CursorState> state;
    int64_t last_heartbeat = 0;
    std::chrono::steady_clock::time_point last_advance;
    bool cancelled_by_watchdog = false;
  };
  mutable std::mutex live_mu_;
  std::map<uint64_t, LiveQueryEntry> live_queries_;
  uint64_t next_watch_id_ = 1;

  // Watchdog thread (started only with a non-zero stall timeout).
  std::thread watchdog_thread_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;

  std::atomic<int64_t> next_session_id_{1};

  MetricsRegistry metrics_;
  // Hot-path metric pointers (stable; registry owns them).
  Counter* queries_submitted_;
  Counter* queries_admitted_;
  Counter* queries_completed_;
  Counter* queries_failed_;
  Counter* queries_cancelled_;
  Counter* deadlines_exceeded_;
  Counter* queries_resource_exhausted_;
  Counter* query_ddl_retries_;
  Counter* plan_cache_hits_;
  Counter* plan_cache_misses_;
  Counter* plan_instance_reuses_;
  Counter* sched_quanta_;
  Counter* morsels_stolen_;
  Counter* parallel_fallbacks_;
  Counter* reoptimizations_;
  Counter* cursors_opened_;
  Counter* open_cursors_;  // gauge: +1 at Open, -1 at Close
  Counter* rows_streamed_;
  Counter* cursor_parks_;
  Counter* cursors_stale_;
  // Spill series: mirrors of the SpillManager atomics (set, not
  // incremented, in StatsSnapshot/MetricsText) plus the spilled-query
  // count the service tracks itself at cursor close.
  Counter* spill_bytes_written_;
  Counter* spill_bytes_read_;
  Counter* spill_files_created_;
  Counter* spill_partitions_opened_;
  Counter* spill_recursion_depth_max_;
  Counter* spilled_queries_;
  // Overload-resilience series: sheds, shed retries, watchdog kills, spill
  // disk budget gauges (mirrored from the SpillManager like the other
  // spill counters), and the memory-ceiling claim gauge.
  Counter* queries_shed_;
  Counter* query_shed_retries_;
  Counter* watchdog_cancels_;
  Counter* spill_disk_budget_bytes_;
  Counter* spill_disk_used_bytes_;
  Counter* spill_disk_rejections_;
  Counter* memory_ceiling_claimed_bytes_;
  LatencyHistogram* admission_wait_us_;
  /// Per-priority admission-wait histograms, indexed by SessionPriority.
  std::array<LatencyHistogram*, kNumSessionPriorities>
      admission_wait_us_by_priority_{};
  /// Per-priority admission counters
  /// (`magicdb_server_queries_admitted_total{priority=...}`).
  std::array<Counter*, kNumSessionPriorities> admitted_by_priority_{};
  LatencyHistogram* query_latency_us_;
  LatencyHistogram* cursor_batch_wait_us_;
  /// Peak tracked bytes per governed query, observed at cursor close.
  LatencyHistogram* query_memory_bytes_;
};

}  // namespace magicdb

#endif  // MAGICDB_SERVER_QUERY_SERVICE_H_
