#include "src/server/query_service.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "src/common/backoff.h"
#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/exec/exec_context.h"
#include "src/spill/spill_manager.h"

namespace magicdb {

namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedUs(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               start)
      .count();
}

/// Fallback reasons become metric label values: the plan-specific suffix
/// after ':' is dropped (e.g. "unsupported operator in pipeline: Sort(...)")
/// so cardinality stays bounded, then lowercased with non-alphanumerics
/// collapsed to '_'.
std::string SanitizeReasonLabel(const std::string& reason) {
  std::string label = reason.substr(0, reason.find(':'));
  for (char& c : label) {
    c = std::isalnum(static_cast<unsigned char>(c))
            ? static_cast<char>(
                  std::tolower(static_cast<unsigned char>(c)))
            : '_';
  }
  return label;
}

const char kFallbackMetricPrefix[] =
    "magicdb_server_parallel_fallbacks_total{reason=";
const char kReoptMetricPrefix[] =
    "magicdb_server_reoptimizations_total{reason=";
const char kCacheHitBackendPrefix[] =
    "magicdb_server_plan_cache_hits_total{backend=";
const char kCacheMissBackendPrefix[] =
    "magicdb_server_plan_cache_misses_total{backend=";
const char kShedReasonPrefix[] = "magicdb_server_sheds_total{reason=";
const char kWatchdogReasonPrefix[] =
    "magicdb_server_watchdog_cancels_total{reason=";
const char kAdmittedPriorityPrefix[] =
    "magicdb_server_queries_admitted_total{priority=";

/// Virtual-time advance per admission is kVirtualTimeScale / weight, so a
/// lane with twice the weight is served twice as often under saturation.
/// The scale only needs to dwarf the largest weight; 2^20 over int64 lanes
/// cannot overflow within any realistic admission count.
constexpr int64_t kVirtualTimeScale = 1 << 20;

int PriorityIndex(SessionPriority priority) {
  return static_cast<int>(priority);
}

}  // namespace

/// The producer of one cursor: a StreamPump over the query's lanes, on the
/// service's shared pool. The pump keeps the cursor state, and with it the
/// sink, alive until its last task returns.
class StreamProducer final : public StreamPump {
 public:
  StreamProducer(QueryService* service, std::shared_ptr<CursorState> cursor,
                 std::vector<StreamLane> lanes)
      : StreamPump(std::move(lanes),
                   std::shared_ptr<ResultSink>(cursor, &cursor->sink),
                   service->pool(), service->options_.scheduler_quantum_rows),
        cursor_(std::move(cursor)),
        service_(service) {}

  /// Return the tree to the plan cache on clean end of stream.
  bool check_in = false;
  /// Fold the query's exact cardinality observations into the database's
  /// FeedbackStore on clean end of stream (ExecOptions::persist_feedback).
  bool persist_feedback = false;

 private:
  // A quantum — not the whole query — is the DDL read-side critical
  // section; that is what lets DDL run while cursors sit open. The epoch
  // check turns a catalog change under a live stream, sequential or
  // parallel, into a clean stale-plan error instead of reads from replaced
  // objects.
  Status Quantum(int lane, std::vector<Tuple>* rows,
                 std::vector<RowRank>* ranks, bool* eof) override {
    service_->sched_quanta_->Increment();
    std::shared_lock<std::shared_mutex> lock(service_->ddl_mu_);
    if (service_->db_->catalog()->ddl_epoch() != cursor_->plan_epoch) {
      // Every lane of a gang sees the change; the cursor counts once.
      if (!stale_.exchange(true)) service_->cursors_stale_->Increment();
      return Status::FailedPrecondition(
          "plan invalidated by DDL: catalog changed while cursor was open");
    }
    return Pull(lane, rows, ranks, eof);
  }

  void Parked() override { service_->cursor_parks_->Increment(); }

  void Finished(bool ok) override {
    cursor_->final_counters = counters();
    cursor_->filter_join_measured = filter_join_measured();
    if (ok && check_in && !cursor_->cache_key.empty()) {
      // The tree fully re-initializes in Open(), so it can serve the next
      // execution of the same statement. CheckIn refuses stale epochs.
      service_->plan_cache_.CheckIn(cursor_->cache_key, cursor_->plan_epoch,
                                    std::move(lanes()[0].root));
    }
    if (ok && persist_feedback) {
      // Cross-query learning: fold this query's exact observations into the
      // store so later plans (cache-keyed by the store's version) use them.
      service_->db_->feedback_store()->Fold(
          cursor_->cardinality_feedback->Snapshot());
    }
  }

  const std::shared_ptr<CursorState> cursor_;
  QueryService* const service_;
  std::atomic<bool> stale_{false};
};

std::string ServiceStats::ToString() const {
  std::ostringstream os;
  os << "pool_threads=" << pool_threads << " submitted=" << queries_submitted
     << " admitted=" << queries_admitted << " completed=" << queries_completed
     << " failed=" << queries_failed << " cancelled=" << queries_cancelled
     << " deadline_exceeded=" << deadlines_exceeded
     << " resource_exhausted=" << queries_resource_exhausted
     << " ddl_retries=" << query_ddl_retries
     << " active_queries=" << active_queries
     << " used_gang_slots=" << used_gang_slots
     << " plan_cache_hits=" << plan_cache_hits
     << " plan_cache_misses=" << plan_cache_misses
     << " instance_reuses=" << plan_instance_reuses
     << " sched_quanta=" << sched_quanta
     << " morsels_stolen=" << morsels_stolen << " ddl_epoch=" << ddl_epoch
     << " cursors_opened=" << cursors_opened
     << " open_cursors=" << open_cursors << " rows_streamed=" << rows_streamed
     << " producer_parks=" << cursor_producer_parks
     << " cursors_stale=" << cursors_stale
     << " parallel_fallbacks=" << parallel_fallbacks;
  for (const auto& [reason, count] : parallel_fallback_reasons) {
    os << " fallback[" << reason << "]=" << count;
  }
  os << " reoptimizations=" << reoptimizations;
  for (const auto& [reason, count] : reoptimization_reasons) {
    os << " reopt[" << reason << "]=" << count;
  }
  for (const auto& [backend, count] : plan_cache_hits_by_backend) {
    os << " cache_hits[" << backend << "]=" << count;
  }
  for (const auto& [backend, count] : plan_cache_misses_by_backend) {
    os << " cache_misses[" << backend << "]=" << count;
  }
  os << " spill_written=" << spill_bytes_written
     << " spill_read=" << spill_bytes_read
     << " spill_files=" << spill_files_created
     << " spill_partitions=" << spill_partitions_opened
     << " spill_depth_max=" << spill_recursion_depth_max
     << " spilled_queries=" << spilled_queries;
  os << " queued_queries=" << queued_queries << " sheds=" << queries_shed;
  for (const auto& [reason, count] : shed_reasons) {
    os << " shed[" << reason << "]=" << count;
  }
  os << " shed_retries=" << query_shed_retries
     << " watchdog_cancels=" << watchdog_cancels;
  for (const auto& [reason, count] : watchdog_cancel_reasons) {
    os << " watchdog[" << reason << "]=" << count;
  }
  for (const auto& [priority, count] : admitted_by_priority) {
    os << " admitted[" << priority << "]=" << count;
  }
  os << " memory_ceiling_claimed=" << memory_ceiling_claimed_bytes
     << " spill_disk_budget=" << spill_disk_budget_bytes
     << " spill_disk_used=" << spill_disk_used_bytes
     << " spill_disk_rejections=" << spill_disk_rejections
     << " draining=" << (draining ? 1 : 0);
  return os.str();
}

QueryService::QueryService(Database* db, const QueryServiceOptions& options)
    : db_(db),
      options_(options),
      plan_cache_(options.plan_cache_entries,
                  options.plan_cache_instances_per_entry) {
  int threads = options_.pool_threads;
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  pool_ = std::make_unique<ThreadPool>(threads);
  if (options_.max_concurrent_queries <= 0) {
    options_.max_concurrent_queries = 2 * threads;
  }
  if (options_.scheduler_quantum_rows <= 0) {
    options_.scheduler_quantum_rows = kDefaultQuantumRows;
  }
  if (options_.stream_queue_rows <= 0) {
    options_.stream_queue_rows = kDefaultStreamQueueRows;
  }
  // Test hooks: a build-script sweep can impose a low default memory limit
  // and a spill area on every service in the process without touching call
  // sites. Honored only where the construction options left the default.
  if (options_.query_memory_limit_bytes == 0) {
    if (const char* env = std::getenv("MAGICDB_TEST_QUERY_MEMORY_LIMIT")) {
      options_.query_memory_limit_bytes = std::strtoll(env, nullptr, 10);
    }
  }
  if (options_.spill_dir.empty()) {
    if (const char* env = std::getenv("MAGICDB_TEST_SPILL_DIR")) {
      options_.spill_dir = env;
    }
  }
  if (options_.default_batch_size <= 0) {
    options_.default_batch_size = DefaultExecBatchSize();
  }
  // Same env-hook convention as the limits above: the shed high-water mark
  // applies only where construction left the default, and a negative value
  // explicitly opts a service out of the sweep.
  if (options_.shed_queue_depth == 0) {
    if (const char* env = std::getenv("MAGICDB_TEST_SHED_QUEUE_DEPTH")) {
      options_.shed_queue_depth = static_cast<int>(std::strtol(env, nullptr, 10));
    }
  }
  if (options_.shed_queue_depth < 0) options_.shed_queue_depth = 0;
  if (options_.shed_wait_estimate_us < 0) options_.shed_wait_estimate_us = 0;
  admission_weights_[PriorityIndex(SessionPriority::kHigh)] =
      std::max(1, options_.admission_weight_high);
  admission_weights_[PriorityIndex(SessionPriority::kNormal)] =
      std::max(1, options_.admission_weight_normal);
  admission_weights_[PriorityIndex(SessionPriority::kBackground)] =
      std::max(1, options_.admission_weight_background);
  if (!options_.spill_dir.empty()) {
    SpillConfig spill_config;
    spill_config.dir = options_.spill_dir;
    if (options_.spill_batch_bytes > 0) {
      spill_config.batch_bytes = options_.spill_batch_bytes;
    }
    if (options_.spill_disk_budget_bytes > 0) {
      spill_config.disk_budget_bytes = options_.spill_disk_budget_bytes;
    }
    spill_manager_ = std::make_shared<SpillManager>(spill_config);
  }

  queries_submitted_ =
      metrics_.counter("magicdb_server_queries_submitted_total");
  queries_admitted_ = metrics_.counter("magicdb_server_queries_admitted_total");
  queries_completed_ =
      metrics_.counter("magicdb_server_queries_completed_total");
  queries_failed_ = metrics_.counter("magicdb_server_queries_failed_total");
  queries_cancelled_ =
      metrics_.counter("magicdb_server_queries_cancelled_total");
  deadlines_exceeded_ =
      metrics_.counter("magicdb_server_deadline_exceeded_total");
  queries_resource_exhausted_ =
      metrics_.counter("magicdb_server_queries_resource_exhausted_total");
  query_ddl_retries_ =
      metrics_.counter("magicdb_server_query_ddl_retries_total");
  plan_cache_hits_ = metrics_.counter("magicdb_server_plan_cache_hits_total");
  plan_cache_misses_ =
      metrics_.counter("magicdb_server_plan_cache_misses_total");
  plan_instance_reuses_ =
      metrics_.counter("magicdb_server_plan_instance_reuses_total");
  sched_quanta_ = metrics_.counter("magicdb_server_sched_quanta_total");
  morsels_stolen_ = metrics_.counter("magicdb_server_morsels_stolen_total");
  parallel_fallbacks_ =
      metrics_.counter("magicdb_server_parallel_fallbacks_total");
  reoptimizations_ = metrics_.counter("magicdb_server_reoptimizations_total");
  cursors_opened_ = metrics_.counter("magicdb_server_cursors_opened_total");
  open_cursors_ = metrics_.counter("magicdb_server_open_cursors");
  rows_streamed_ = metrics_.counter("magicdb_server_rows_streamed_total");
  cursor_parks_ =
      metrics_.counter("magicdb_server_cursor_producer_parks_total");
  cursors_stale_ = metrics_.counter("magicdb_server_cursors_stale_total");
  spill_bytes_written_ = metrics_.counter("magicdb_spill_bytes_written_total");
  spill_bytes_read_ = metrics_.counter("magicdb_spill_bytes_read_total");
  spill_files_created_ = metrics_.counter("magicdb_spill_files_created_total");
  spill_partitions_opened_ =
      metrics_.counter("magicdb_spill_partitions_opened_total");
  spill_recursion_depth_max_ =
      metrics_.counter("magicdb_spill_recursion_depth_max");
  spilled_queries_ = metrics_.counter("magicdb_spill_queries_total");
  queries_shed_ = metrics_.counter("magicdb_server_sheds_total");
  query_shed_retries_ =
      metrics_.counter("magicdb_server_query_shed_retries_total");
  watchdog_cancels_ =
      metrics_.counter("magicdb_server_watchdog_cancels_total");
  spill_disk_budget_bytes_ =
      metrics_.counter("magicdb_spill_disk_budget_bytes");
  spill_disk_used_bytes_ = metrics_.counter("magicdb_spill_disk_used_bytes");
  spill_disk_rejections_ =
      metrics_.counter("magicdb_spill_disk_rejections_total");
  memory_ceiling_claimed_bytes_ =
      metrics_.counter("magicdb_server_memory_ceiling_claimed_bytes");
  admission_wait_us_ = metrics_.histogram("magicdb_server_admission_wait_us");
  for (int p = 0; p < kNumSessionPriorities; ++p) {
    const std::string label =
        SessionPriorityName(static_cast<SessionPriority>(p));
    admission_wait_us_by_priority_[p] = metrics_.histogram(
        "magicdb_server_admission_wait_us{priority=" + label + "}");
    admitted_by_priority_[p] =
        metrics_.counter(kAdmittedPriorityPrefix + label + "}");
  }
  query_latency_us_ = metrics_.histogram("magicdb_server_query_latency_us");
  cursor_batch_wait_us_ =
      metrics_.histogram("magicdb_server_cursor_batch_wait_us");
  query_memory_bytes_ = metrics_.histogram("magicdb_server_query_memory_bytes");

  if (options_.watchdog_stall_timeout.count() > 0) {
    if (options_.watchdog_poll_interval.count() <= 0) {
      options_.watchdog_poll_interval = std::max(
          std::chrono::milliseconds(1), options_.watchdog_stall_timeout / 4);
    }
    watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
  }
}

QueryService::~QueryService() {
  // Stop the watchdog before tearing anything down; it walks live_queries_.
  if (watchdog_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_thread_.join();
  }
  // Stop admitting, cancel whatever is still producing, then drain in-flight
  // work before members (pool first in reverse order of declaration would
  // destroy metrics while tasks still run).
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    draining_ = true;
  }
  admit_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    for (auto& [id, entry] : live_queries_) {
      entry.state->token->Cancel();
    }
  }
  pool_->WaitIdle();
}

std::unique_ptr<Session> QueryService::CreateSession() {
  return CreateSession(SessionOptions{});
}

std::unique_ptr<Session> QueryService::CreateSession(
    const SessionOptions& session_options) {
  const int64_t id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<Session>(new Session(
      this, id, *db_->mutable_optimizer_options(), session_options));
}

Status QueryService::Execute(const std::string& ddl) {
  std::unique_lock<std::shared_mutex> lock(ddl_mu_);
  // Injected fault models DDL failing after it serialized against queries
  // but before any catalog mutation; cached plans must stay valid.
  MAGICDB_FAILPOINT("server.ddl.execute");
  return db_->Execute(ddl);
}

Status QueryService::LoadRows(const std::string& table,
                              std::vector<Tuple> rows) {
  std::unique_lock<std::shared_mutex> lock(ddl_mu_);
  return db_->LoadRows(table, std::move(rows));
}

Status QueryService::ValidateSelect(const std::string& sql) {
  std::shared_lock<std::shared_mutex> lock(ddl_mu_);
  return db_->BindSelect(sql).status();
}

StatusOr<std::string> QueryService::Explain(const std::string& sql,
                                            const OptimizerOptions& options) {
  std::shared_lock<std::shared_mutex> lock(ddl_mu_);
  MAGICDB_ASSIGN_OR_RETURN(PlannedSelect planned,
                           db_->PlanSelect(sql, options));
  return planned.explain;
}

int64_t QueryService::QueuedLocked() const {
  int64_t queued = 0;
  for (const AdmissionLane& lane : admit_lanes_) {
    queued += static_cast<int64_t>(lane.waiters.size());
  }
  return queued;
}

int64_t QueryService::EstimateAdmissionWaitUsLocked() const {
  const int64_t ewma =
      ewma_query_latency_us_.load(std::memory_order_relaxed);
  if (ewma <= 0) return 0;
  // Everyone queued ahead plus this query, divided across the admission
  // slots. Crude, but monotone in queue depth — exactly what a shed
  // threshold needs.
  const int64_t depth = QueuedLocked() + 1;
  return depth * ewma / std::max(1, options_.max_concurrent_queries);
}

void QueryService::RecordShed(const char* reason) {
  queries_shed_->Increment();
  metrics_.counter(kShedReasonPrefix + std::string(reason) + "}")->Increment();
}

Status QueryService::MaybeShed(SessionPriority priority) {
  // High priority is never shed: latency-critical clients queue instead,
  // and weighted-fair admission keeps their wait short.
  if (priority == SessionPriority::kHigh) return Status::OK();
#ifdef MAGICDB_FAILPOINTS
  {
    Status injected = MAGICDB_FAILPOINT_EVAL("admission.shed");
    if (!injected.ok()) {
      RecordShed("failpoint");
      return injected;
    }
  }
#endif
  const char* reason = nullptr;
  int64_t est_wait_us = 0;
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    const int64_t depth = QueuedLocked();
    est_wait_us = EstimateAdmissionWaitUsLocked();
    if (options_.shed_queue_depth > 0 && depth >= options_.shed_queue_depth) {
      reason = "queue_depth";
    } else if (options_.shed_wait_estimate_us > 0 &&
               est_wait_us >= options_.shed_wait_estimate_us) {
      reason = "est_wait";
    }
  }
  if (reason == nullptr) return Status::OK();
  RecordShed(reason);
  // The hint tells the client when retrying is plausible: the estimated
  // drain time, clamped so a cold estimator still produces a usable delay
  // and a pathological one cannot park clients for minutes.
  const int64_t hint_us = std::clamp<int64_t>(est_wait_us, 100, 1000000);
  return Status::Unavailable(
      std::string("server overloaded (") + reason +
      "): admission queue is saturated; " + FormatRetryAfterHint(hint_us));
}

int QueryService::PickClassLocked() const {
  int best = -1;
  for (int p = 0; p < kNumSessionPriorities; ++p) {
    if (admit_lanes_[p].waiters.empty()) continue;
    if (best < 0 ||
        admit_lanes_[p].virtual_time < admit_lanes_[best].virtual_time ||
        (admit_lanes_[p].virtual_time == admit_lanes_[best].virtual_time &&
         admit_lanes_[p].waiters.front() <
             admit_lanes_[best].waiters.front())) {
      best = p;
    }
  }
  return best;
}

Status QueryService::Admit(SessionPriority priority, int gang_slots,
                           int64_t memory_claim, const CancelToken* token) {
  const Clock::time_point start = Clock::now();
  const int pri = PriorityIndex(priority);
  std::unique_lock<std::mutex> lock(admit_mu_);
  if (draining_) {
    // No retry hint: a draining service will not come back, so Query()'s
    // shed-retry loop must surface this instead of spinning on it.
    return Status::Unavailable("service is draining; not accepting queries");
  }
  const uint64_t ticket = next_ticket_++;
  AdmissionLane& lane = admit_lanes_[pri];
  if (lane.waiters.empty()) {
    // (Re)joining lanes inherit the busiest competitor's progress so a lane
    // that idled cannot burn banked credit starving everyone else; when the
    // whole system idles, restart all clocks from zero.
    int64_t min_busy = -1;
    for (int p = 0; p < kNumSessionPriorities; ++p) {
      if (p == pri || admit_lanes_[p].waiters.empty()) continue;
      if (min_busy < 0 || admit_lanes_[p].virtual_time < min_busy) {
        min_busy = admit_lanes_[p].virtual_time;
      }
    }
    if (min_busy < 0) {
      for (AdmissionLane& l : admit_lanes_) l.virtual_time = 0;
    } else {
      lane.virtual_time = std::max(lane.virtual_time, min_busy);
    }
  }
  lane.waiters.push_back(ticket);
  const int gang_capacity = pool_->size();
  // Weighted-fair head-of-line semantics: only the candidate lane's head
  // may admit, and it blocks everyone until its ticket, gang slots, and
  // memory claim all fit — so a wide gang or fat query is delayed, never
  // starved by smaller queries slipping past it.
  auto can_run = [&] {
    return lane.waiters.front() == ticket && PickClassLocked() == pri &&
           active_queries_ < options_.max_concurrent_queries &&
           used_gang_slots_ + gang_slots <= gang_capacity &&
           (options_.service_memory_ceiling_bytes <= 0 || memory_claim <= 0 ||
            memory_ceiling_claimed_ + memory_claim <=
                options_.service_memory_ceiling_bytes);
  };
  while (!can_run()) {
    Status s;
    if (draining_) {
      s = Status::Unavailable("service is draining; not accepting queries");
    } else if (token != nullptr) {
      s = token->Check();
    }
    if (!s.ok()) {
      // Abandon the ticket; whoever is behind us may now be at the head.
      lane.waiters.erase(
          std::find(lane.waiters.begin(), lane.waiters.end(), ticket));
      admit_cv_.notify_all();
      return s;
    }
    // Bounded wait so a queued query notices its deadline firing even when
    // nothing releases capacity.
    admit_cv_.wait_for(lock, std::chrono::milliseconds(2));
  }
  lane.waiters.pop_front();
  lane.virtual_time += kVirtualTimeScale / admission_weights_[pri];
  active_queries_ += 1;
  used_gang_slots_ += gang_slots;
  if (memory_claim > 0) memory_ceiling_claimed_ += memory_claim;
  // The next waiter may need no gang slots and still fit.
  admit_cv_.notify_all();
  const int64_t waited_us = ElapsedUs(start);
  admission_wait_us_->Observe(waited_us);
  admission_wait_us_by_priority_[pri]->Observe(waited_us);
  admitted_by_priority_[pri]->Increment();
  return Status::OK();
}

void QueryService::ReleaseGangSlots(int gang_slots) {
  if (gang_slots == 0) return;
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    used_gang_slots_ -= gang_slots;
  }
  admit_cv_.notify_all();
}

void QueryService::ReleaseTicket(int64_t memory_claim) {
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    active_queries_ -= 1;
    if (memory_claim > 0) memory_ceiling_claimed_ -= memory_claim;
  }
  admit_cv_.notify_all();
}

uint64_t QueryService::RegisterLiveQuery(
    const std::shared_ptr<CursorState>& state) {
  std::lock_guard<std::mutex> lock(live_mu_);
  const uint64_t id = next_watch_id_++;
  LiveQueryEntry& entry = live_queries_[id];
  entry.state = state;
  entry.last_advance = Clock::now();
  return id;
}

void QueryService::UnregisterLiveQuery(uint64_t watch_id) {
  std::lock_guard<std::mutex> lock(live_mu_);
  live_queries_.erase(watch_id);
}

void QueryService::WatchdogLoop() {
  const auto stall = options_.watchdog_stall_timeout;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(watchdog_mu_);
      watchdog_cv_.wait_for(lock, options_.watchdog_poll_interval,
                            [this] { return watchdog_stop_; });
      if (watchdog_stop_) return;
    }
    std::lock_guard<std::mutex> lock(live_mu_);
    const Clock::time_point now = Clock::now();
    for (auto& [id, entry] : live_queries_) {
      CursorState* state = entry.state.get();
      // A finished stream is waiting on its consumer, and a stream whose
      // unfinished lanes are all parked is waiting on backpressure — neither
      // is stalled execution. Reset the stall clock so time spent there
      // never counts.
      if (state->sink.awaiting_consumer()) {
        entry.last_advance = now;
        continue;
      }
      const int64_t beat =
          state->progress_heartbeat != nullptr
              ? state->progress_heartbeat->load(std::memory_order_relaxed)
              : 0;
      if (beat != entry.last_heartbeat) {
        entry.last_heartbeat = beat;
        entry.last_advance = now;
        continue;
      }
      if (entry.cancelled_by_watchdog || now - entry.last_advance < stall) {
        continue;
      }
      // No progress for a full stall timeout: kill the query. CancelStalled
      // only transitions a live token, so an already-cancelled or
      // deadline-expired query keeps its own classification.
      MAGICDB_FAILPOINT_HIT("watchdog.fire");
      state->token->CancelStalled();
      entry.cancelled_by_watchdog = true;
      watchdog_cancels_->Increment();
      const char* reason = state->sink.total_rows_pushed() == 0
                               ? "before_first_row"
                               : "mid_stream";
      metrics_.counter(kWatchdogReasonPrefix + std::string(reason) + "}")
          ->Increment();
    }
  }
}

Status QueryService::Shutdown(std::chrono::milliseconds grace) {
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    draining_ = true;
  }
  admit_cv_.notify_all();

  // Phase 1: let in-flight queries finish naturally (clients are expected
  // to drain and close their cursors).
  auto wait_for_idle = [&](Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(admit_mu_);
    while (active_queries_ > 0 && Clock::now() < deadline) {
      admit_cv_.wait_for(lock, std::chrono::milliseconds(2));
    }
    return active_queries_ == 0;
  };
  bool idle = wait_for_idle(Clock::now() + grace);

  // Phase 2: cancel the stragglers' tokens and give their clients one more
  // grace period to observe the cancellation and close.
  if (!idle) {
    {
      std::lock_guard<std::mutex> lock(live_mu_);
      for (auto& [id, entry] : live_queries_) {
        entry.state->token->Cancel();
      }
    }
    idle = wait_for_idle(Clock::now() + grace);
  }
  pool_->WaitIdle();

  std::lock_guard<std::mutex> lock(admit_mu_);
  if (active_queries_ != 0) {
    return Status::DeadlineExceeded(
        "drain incomplete: " + std::to_string(active_queries_) +
        " cursors still open after cancellation; their clients must Close()");
  }
  // A drained service must hold no residual capacity — the same invariant
  // the chaos suite asserts after every injected fault.
  MAGICDB_CHECK(used_gang_slots_ == 0);
  MAGICDB_CHECK(memory_ceiling_claimed_ == 0);
  return Status::OK();
}

StatusOr<Cursor> QueryService::Open(Session* session, const std::string& sql,
                                    const ExecOptions& exec) {
  // Shedding happens before the query counts as submitted: a shed is a
  // refusal at the door, visible in sheds_total (and the per-reason
  // family) but never in the submitted/completed/failed ledger — retried
  // sheds must not inflate the exact-count accounting invariants.
  Status shed = MaybeShed(session->priority());
  if (!shed.ok()) return shed;

  queries_submitted_->Increment();
  const Clock::time_point start = Clock::now();

  // A cursor always carries a token: Close() cancels it to unwind any
  // remaining production. Zero timeout = no deadline; negative expires
  // immediately (SetTimeout semantics).
  CancelTokenPtr token = exec.cancel_token;
  if (token == nullptr) token = std::make_shared<CancelToken>();
  if (exec.timeout.count() != 0) {
    token->SetTimeout(
        std::chrono::duration_cast<std::chrono::nanoseconds>(exec.timeout));
  }

  const int effective_dop = std::clamp(exec.dop, 1, pool_->size());
  const int gang_slots = effective_dop > 1 ? effective_dop : 0;

  auto classify_failure = [&](const Status& s) {
    if (s.code() == StatusCode::kCancelled) {
      queries_cancelled_->Increment();
    } else if (s.code() == StatusCode::kDeadlineExceeded) {
      deadlines_exceeded_->Increment();
    } else if (s.code() == StatusCode::kResourceExhausted) {
      queries_resource_exhausted_->Increment();
    }
    queries_failed_->Increment();
    query_latency_us_->Observe(ElapsedUs(start));
  };

  // The effective memory limit, resolved once: 0 defers to the service
  // default, and a non-positive result leaves the query ungoverned (0
  // here). It is also the query's claim against the service memory
  // ceiling, the most it can retain, so ungoverned queries claim nothing.
  const int64_t memory_claim = std::max<int64_t>(
      exec.memory_limit_bytes != 0 ? exec.memory_limit_bytes
                                   : options_.query_memory_limit_bytes,
      0);
  if (options_.service_memory_ceiling_bytes > 0 &&
      memory_claim > options_.service_memory_ceiling_bytes) {
    Status too_big = Status::ResourceExhausted(
        "query memory limit " + std::to_string(memory_claim) +
        " exceeds the service memory ceiling " +
        std::to_string(options_.service_memory_ceiling_bytes) +
        " bytes; it could never be admitted");
    classify_failure(too_big);
    return too_big;
  }

  Status admitted =
      Admit(session->priority(), gang_slots, memory_claim, token.get());
  if (!admitted.ok()) {
    classify_failure(admitted);
    return admitted;
  }
  queries_admitted_->Increment();

  StatusOr<Cursor> cursor = OpenAdmitted(session, sql, exec, token,
                                         effective_dop, gang_slots,
                                         memory_claim);
  if (!cursor.ok()) {
    ReleaseTicket(memory_claim);
    classify_failure(cursor.status());
    return cursor;
  }
  cursor->state_->start_time = start;
  cursors_opened_->Increment();
  open_cursors_->Add(1);
  return cursor;
}

StatusOr<Cursor> QueryService::OpenAdmitted(Session* session,
                                            const std::string& sql,
                                            const ExecOptions& exec,
                                            const CancelTokenPtr& token,
                                            int effective_dop,
                                            int gang_slots,
                                            int64_t memory_limit) {
  uint64_t watch_id = 0;
  StatusOr<Cursor> result = [&]() -> StatusOr<Cursor> {
    // Planning, a gang's Open phase and an armed eager Open run under the
    // shared DDL lock; once rows stream, every lane re-validates the epoch
    // each quantum.
    std::shared_lock<std::shared_mutex> lock(ddl_mu_);

    const OptimizerOptions& opts = session->options();
    const int64_t epoch = db_->catalog()->ddl_epoch();
    // The effective batch size keys the cache alongside the optimizer
    // options: a pooled instance must never resume with mid-stream batch
    // state sized for a different batch size.
    const int64_t effective_batch = exec.batch_size > 0
                                        ? exec.batch_size
                                        : options_.default_batch_size;
    // Cross-query cardinality feedback: plans are built against a snapshot
    // of the database's feedback store, and the store's version keys the
    // cache — a persisting query bumping it invalidates every plan built
    // from the older statistics.
    QueryStart start;
    start.overlay = db_->feedback_store()->Snapshot();
    const std::string key =
        OptimizerOptionsFingerprint(opts) + "\n" + sql +
        "\nbatch=" + std::to_string(effective_batch) +
        "\nfeedback=" + std::to_string(db_->feedback_store()->version());
    const std::string backend_label = SanitizeReasonLabel(
        opts.join_order_backend.empty() ? "dp" : opts.join_order_backend);

    // Parallel queries never reuse pooled instances (they need fresh
    // replicas for shared-state wiring), so leave the pool untouched for
    // them.
    const bool want_instance = effective_dop == 1;
    const bool hit = plan_cache_.Lookup(
        key, epoch, &start.first, want_instance ? &start.first.root : nullptr);
    if (hit) {
      plan_cache_hits_->Increment();
      metrics_.counter(kCacheHitBackendPrefix + backend_label + "}")
          ->Increment();
      if (start.first.root != nullptr) plan_instance_reuses_->Increment();
    } else {
      plan_cache_misses_->Increment();
      metrics_.counter(kCacheMissBackendPrefix + backend_label + "}")
          ->Increment();
      MAGICDB_ASSIGN_OR_RETURN(BoundSelect bound, db_->BindSelect(sql));
      MAGICDB_ASSIGN_OR_RETURN(
          start.first,
          db_->PlanBound(bound, opts,
                         start.overlay.empty() ? nullptr : &start.overlay));
      // Injected insert failure models a cache under memory pressure: the
      // query must fail cleanly at Open (ticket released by the caller)
      // rather than stream from a half-registered plan.
      MAGICDB_FAILPOINT("server.plan_cache.insert");
      plan_cache_.Insert(key, epoch, start.first);
    }

    const int64_t high_water = exec.stream_queue_rows > 0
                                   ? exec.stream_queue_rows
                                   : options_.stream_queue_rows;
    auto state = std::make_shared<CursorState>(this, high_water);
    state->token = token;
    state->plan_epoch = epoch;
    state->cache_key = key;
    state->memory_claim = memory_limit;
    // Liveness plumbing: one shared heartbeat per query, inherited by every
    // worker context; the registry entry lets the watchdog sample it and
    // graceful drain cancel through it until CloseCursor unregisters.
    state->progress_heartbeat = std::make_shared<std::atomic<int64_t>>(0);
    watch_id = RegisterLiveQuery(state);
    state->watch_id = watch_id;

    ExecContext& proto = start.proto;
    proto.set_memory_budget_bytes(opts.memory_budget_bytes);
    proto.set_cancel_token(token);
    proto.set_batch_size(effective_batch);
    proto.set_progress_heartbeat(state->progress_heartbeat);
    proto.set_shared_pool(pool_.get());
    if (memory_limit > 0) {
      // Per-query memory governor: one tracker shared by every worker
      // context and the result sink.
      proto.set_memory_tracker(std::make_shared<MemoryTracker>(memory_limit));
      // Out-of-core degradation is offered only to governed queries that
      // did not opt out, and only when the service has a spill area. An
      // ungoverned query never breaches, so the manager would be inert.
      if (spill_manager_ != nullptr && exec.allow_spill) {
        proto.set_spill_manager(spill_manager_);
      }
    }
    start.dop = effective_dop;
    start.reoptimize_qerror_threshold =
        ResolveReoptQErrorThreshold(exec.reoptimize_qerror_threshold);
    start.max_reoptimizations = exec.max_reoptimizations;
    MAGICDB_ASSIGN_OR_RETURN(QueryStream stream,
                             db_->StartQuery(std::move(start), opts));

    for (const std::string& reason : stream.reoptimizations) {
      RecordReoptimization(reason);
    }
    if (stream.used_dop < effective_dop) {
      RecordParallelFallback(stream.fallback_reason);
    }
    state->plan = std::move(stream.plan);
    state->used_dop = stream.used_dop;
    state->parallel_fallback_reason = std::move(stream.fallback_reason);
    state->reoptimizations = static_cast<int>(stream.reoptimizations.size());
    const ExecContext& ctx = *stream.lanes[0].ctx;
    state->cardinality_feedback = ctx.cardinality_feedback();
    state->memory_tracker = ctx.memory_tracker();
    state->sink.set_lanes(static_cast<int>(stream.lanes.size()));
    state->sink.set_memory_tracker(state->memory_tracker);

    auto producer =
        std::make_shared<StreamProducer>(this, state, std::move(stream.lanes));
    // Only a sequential dop-1 run of the cached plan may return its tree to
    // the pool; a re-planned tree is attempt-specific.
    producer->check_in = effective_dop == 1 && stream.reoptimizations.empty();
    producer->persist_feedback = exec.persist_feedback;
    if (!stream.open_status.ok()) {
      // Surface an eager Open's failure through the stream, exactly as the
      // lazy Open does: the first Fetch reports it and Close runs the
      // normal terminal accounting (memory histogram included).
      producer->Fail(std::move(stream.open_status));
    } else {
      producer->Start();
    }
    return Cursor(state);
  }();
  // A failed Open never hands out a cursor, so nothing would ever
  // unregister it — drop the registry entry here.
  if (!result.ok() && watch_id != 0) UnregisterLiveQuery(watch_id);
  // The gang's Open phase (if any) has finished by now either way, and its
  // lanes never wait on each other; only the admission ticket stays held
  // for the cursor's lifetime.
  ReleaseGangSlots(gang_slots);
  return result;
}

StatusOr<std::vector<Tuple>> QueryService::FetchFromCursor(
    CursorState* cursor, int64_t max_rows) {
  if (cursor->closed) {
    return Status::InvalidArgument("Fetch on a closed cursor");
  }
  if (max_rows <= 0) {
    return Status::InvalidArgument("Fetch max_rows must be positive");
  }
  if (cursor->saw_eof) {
    return std::vector<Tuple>{};  // idempotent end-of-stream marker
  }
  MAGICDB_FAILPOINT("server.cursor.fetch");
  const Clock::time_point start = Clock::now();
  StatusOr<std::vector<Tuple>> batch =
      cursor->sink.Fetch(max_rows, cursor->token.get());
  cursor_batch_wait_us_->Observe(ElapsedUs(start));
  if (!batch.ok()) return batch;
  rows_streamed_->Add(static_cast<int64_t>(batch->size()));
  if (batch->empty()) cursor->saw_eof = true;
  return batch;
}

Status QueryService::CloseCursor(CursorState* cursor) {
  if (cursor->closed) return cursor->terminal_status;
  cursor->closed = true;
  if (cursor->watch_id != 0) UnregisterLiveQuery(cursor->watch_id);

  // Read the token before (possibly) cancelling it ourselves, so a
  // deadline that fired mid-stream is classified as such.
  const Status token_state = cursor->token->Check();
  if (!cursor->saw_eof) {
    // Closed before end of stream: unwind remaining production. A fully
    // consumed cursor leaves the token alone — it may be externally owned
    // and shared with a follow-up query.
    cursor->token->Cancel();
  }
  cursor->sink.Drain();

  // Terminal classification, exactly once per cursor.
  const Status final = cursor->sink.final_status();
  Status terminal;
  if (cursor->saw_eof && final.ok()) {
    queries_completed_->Increment();
    terminal = Status::OK();
  } else if (!final.ok()) {
    if (final.code() == StatusCode::kCancelled) {
      queries_cancelled_->Increment();
    } else if (final.code() == StatusCode::kDeadlineExceeded) {
      deadlines_exceeded_->Increment();
    } else if (final.code() == StatusCode::kResourceExhausted) {
      queries_resource_exhausted_->Increment();
    }
    queries_failed_->Increment();
    terminal = final;
  } else {
    // Producer ended cleanly but the consumer walked away early.
    if (token_state.code() == StatusCode::kDeadlineExceeded) {
      deadlines_exceeded_->Increment();
    } else {
      queries_cancelled_->Increment();
    }
    queries_failed_->Increment();
    terminal = token_state.ok()
                   ? Status::Cancelled("cursor closed before end of stream")
                   : token_state;
  }
  cursor->terminal_status = terminal;
  if (cursor->memory_tracker != nullptr) {
    query_memory_bytes_->Observe(cursor->memory_tracker->peak_bytes());
  }
  if (spill_manager_ != nullptr &&
      cursor->final_counters.spill_bytes_written > 0) {
    spill_manager_->NoteQuerySpilled();
  }
  const int64_t latency_us = ElapsedUs(cursor->start_time);
  query_latency_us_->Observe(latency_us);
  // Feed the shed estimator. Lossy read-modify-write is fine: any recent
  // latency is a usable signal, and the estimate only gates shedding.
  const int64_t ewma = ewma_query_latency_us_.load(std::memory_order_relaxed);
  ewma_query_latency_us_.store(
      ewma == 0 ? latency_us : (ewma * 4 + latency_us) / 5,
      std::memory_order_relaxed);
  open_cursors_->Add(-1);
  ReleaseTicket(cursor->memory_claim);
  return terminal;
}

StatusOr<QueryResult> QueryService::Query(Session* session,
                                          const std::string& sql,
                                          const ExecOptions& exec) {
  StatusOr<QueryResult> result = QueryViaCursor(session, sql, exec);
  // Two transparent retry families, both with capped exponential backoff
  // plus jitter from the session's deterministic PRNG (racing sessions
  // de-synchronize; tests replay exact timings):
  //
  //   - DDL staleness (kFailedPrecondition): concurrent DDL between
  //     production quanta stales a sequential stream. An explicit cursor
  //     hands that error to its consumer, but the fetch-all wrapper has
  //     delivered nothing yet, so it keeps Query's pre-streaming contract —
  //     unrelated DDL never fails a query — by replanning at the fresh
  //     epoch. Each retry requires another DDL to land inside the retried
  //     execution, so a small bound suffices.
  //   - Load shedding (kUnavailable with a `retry_after_us=` hint): the
  //     admission controller rejected the submission under overload. The
  //     wrapper honors the server's hint as a floor under its own backoff,
  //     so retry pressure decays as the queue drains. A kUnavailable
  //     without the hint (service draining) is not retried.
  Backoff ddl_backoff(50, 5000, session->retry_rng());
  Backoff shed_backoff(200, 20000, session->retry_rng());
  int ddl_retries = 0;
  int shed_retries = 0;
  constexpr int kMaxDdlRetries = 10;
  constexpr int kMaxShedRetries = 16;
  constexpr int64_t kMaxShedSleepUs = 50000;
  while (!result.ok()) {
    int64_t sleep_us = 0;
    if (result.status().code() == StatusCode::kFailedPrecondition &&
        ddl_retries < kMaxDdlRetries) {
      ++ddl_retries;
      query_ddl_retries_->Increment();
      sleep_us = ddl_backoff.NextDelayUs();
    } else if (result.status().code() == StatusCode::kUnavailable &&
               shed_retries < kMaxShedRetries) {
      const int64_t hint_us = ParseRetryAfterUs(result.status().message());
      if (hint_us < 0) break;  // no hint: permanent (draining), surface it
      ++shed_retries;
      query_shed_retries_->Increment();
      sleep_us = std::min(std::max(hint_us, shed_backoff.NextDelayUs()),
                          kMaxShedSleepUs);
    } else {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    result = QueryViaCursor(session, sql, exec);
  }
  return result;
}

StatusOr<QueryResult> QueryService::QueryViaCursor(Session* session,
                                                   const std::string& sql,
                                                   const ExecOptions& exec) {
  MAGICDB_ASSIGN_OR_RETURN(Cursor cursor, Open(session, sql, exec));

  QueryResult result;
  result.schema = cursor.schema();
  result.explain = cursor.explain();
  result.est_cost = cursor.est_cost();
  result.est_rows = cursor.est_rows();
  result.filter_joins = cursor.filter_joins();
  result.optimizer_stats = cursor.optimizer_stats();

  // Fetch-all loop: one high-water mark's worth per call keeps the
  // producer's park/resume cycle amortized.
  const int64_t batch_rows =
      exec.stream_queue_rows > 0 ? exec.stream_queue_rows
                                 : options_.stream_queue_rows;
  while (true) {
    StatusOr<std::vector<Tuple>> batch = cursor.Fetch(batch_rows);
    if (!batch.ok()) {
      cursor.Close();  // classifies the failure; Close status is the same
      return batch.status();
    }
    if (batch->empty()) break;
    if (result.rows.empty()) {
      result.rows = std::move(*batch);
    } else {
      result.rows.insert(result.rows.end(),
                         std::make_move_iterator(batch->begin()),
                         std::make_move_iterator(batch->end()));
    }
  }

  // End of stream: the producer has published its terminal state.
  result.counters = cursor.counters();
  result.used_dop = cursor.used_dop();
  result.parallel_fallback_reason = cursor.parallel_fallback_reason();
  result.filter_join_measured = cursor.filter_join_measured();
  result.reoptimizations = cursor.reoptimizations();
  result.feedback = cursor.feedback();
  MAGICDB_RETURN_IF_ERROR(cursor.Close());
  return result;
}

void QueryService::RecordParallelFallback(const std::string& reason) {
  parallel_fallbacks_->Increment();
  metrics_
      .counter(kFallbackMetricPrefix + SanitizeReasonLabel(reason) + "}")
      ->Increment();
}

void QueryService::RecordReoptimization(const std::string& reason) {
  reoptimizations_->Increment();
  metrics_.counter(kReoptMetricPrefix + SanitizeReasonLabel(reason) + "}")
      ->Increment();
}

void QueryService::SyncSpillMetrics() const {
  if (spill_manager_ == nullptr) return;
  // The spill atomics live on the SpillManager (operators bump them off the
  // metrics hot path); mirror them into the registry on read, like the
  // pool's steal count.
  spill_bytes_written_->Set(spill_manager_->bytes_written());
  spill_bytes_read_->Set(spill_manager_->bytes_read());
  spill_files_created_->Set(spill_manager_->files_created());
  spill_partitions_opened_->Set(spill_manager_->partitions_opened());
  spill_recursion_depth_max_->Set(spill_manager_->max_recursion_depth_seen());
  spilled_queries_->Set(spill_manager_->spilled_queries());
  spill_disk_budget_bytes_->Set(spill_manager_->disk_budget_bytes());
  spill_disk_used_bytes_->Set(spill_manager_->disk_used_bytes());
  spill_disk_rejections_->Set(spill_manager_->disk_budget_rejections());
}

ServiceStats QueryService::StatsSnapshot() const {
  morsels_stolen_->Set(pool_->steal_count());
  SyncSpillMetrics();
  ServiceStats s;
  s.pool_threads = pool_->size();
  s.queries_submitted = queries_submitted_->Value();
  s.queries_admitted = queries_admitted_->Value();
  s.queries_completed = queries_completed_->Value();
  s.queries_failed = queries_failed_->Value();
  s.queries_cancelled = queries_cancelled_->Value();
  s.deadlines_exceeded = deadlines_exceeded_->Value();
  s.queries_resource_exhausted = queries_resource_exhausted_->Value();
  s.query_ddl_retries = query_ddl_retries_->Value();
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    s.active_queries = active_queries_;
    s.used_gang_slots = used_gang_slots_;
    s.queued_queries = static_cast<int>(QueuedLocked());
    s.memory_ceiling_claimed_bytes = memory_ceiling_claimed_;
    s.draining = draining_;
  }
  memory_ceiling_claimed_bytes_->Set(s.memory_ceiling_claimed_bytes);
  s.queries_shed = queries_shed_->Value();
  s.query_shed_retries = query_shed_retries_->Value();
  s.watchdog_cancels = watchdog_cancels_->Value();
  s.spill_disk_budget_bytes = spill_disk_budget_bytes_->Value();
  s.spill_disk_used_bytes = spill_disk_used_bytes_->Value();
  s.spill_disk_rejections = spill_disk_rejections_->Value();
  s.plan_cache_hits = plan_cache_hits_->Value();
  s.plan_cache_misses = plan_cache_misses_->Value();
  s.plan_instance_reuses = plan_instance_reuses_->Value();
  s.sched_quanta = sched_quanta_->Value();
  s.morsels_stolen = morsels_stolen_->Value();
  s.ddl_epoch = db_->catalog()->ddl_epoch();
  s.cursors_opened = cursors_opened_->Value();
  s.open_cursors = open_cursors_->Value();
  s.rows_streamed = rows_streamed_->Value();
  s.cursor_producer_parks = cursor_parks_->Value();
  s.cursors_stale = cursors_stale_->Value();
  s.parallel_fallbacks = parallel_fallbacks_->Value();
  s.reoptimizations = reoptimizations_->Value();
  s.spill_bytes_written = spill_bytes_written_->Value();
  s.spill_bytes_read = spill_bytes_read_->Value();
  s.spill_files_created = spill_files_created_->Value();
  s.spill_partitions_opened = spill_partitions_opened_->Value();
  s.spill_recursion_depth_max = spill_recursion_depth_max_->Value();
  s.spilled_queries = spilled_queries_->Value();
  // Labeled-counter families, recovered by prefix from the flat registry.
  const std::pair<const char*, std::map<std::string, int64_t>*> families[] = {
      {kFallbackMetricPrefix, &s.parallel_fallback_reasons},
      {kReoptMetricPrefix, &s.reoptimization_reasons},
      {kCacheHitBackendPrefix, &s.plan_cache_hits_by_backend},
      {kCacheMissBackendPrefix, &s.plan_cache_misses_by_backend},
      {kShedReasonPrefix, &s.shed_reasons},
      {kWatchdogReasonPrefix, &s.watchdog_cancel_reasons},
      {kAdmittedPriorityPrefix, &s.admitted_by_priority},
  };
  for (const auto& [name, value] : metrics_.CounterValues()) {
    for (const auto& [family_prefix, out] : families) {
      const std::string prefix = family_prefix;
      if (name.size() > prefix.size() + 1 &&
          name.compare(0, prefix.size(), prefix) == 0) {
        const std::string label =
            name.substr(prefix.size(), name.size() - prefix.size() - 1);
        (*out)[label] = value;
      }
    }
  }
  s.admission_wait_us_p50 = admission_wait_us_->Quantile(0.50);
  s.admission_wait_us_p95 = admission_wait_us_->Quantile(0.95);
  for (int p = 0; p < kNumSessionPriorities; ++p) {
    if (admitted_by_priority_[p]->Value() == 0) continue;
    const std::string label =
        SessionPriorityName(static_cast<SessionPriority>(p));
    s.admission_wait_us_p50_by_priority[label] =
        admission_wait_us_by_priority_[p]->Quantile(0.50);
    s.admission_wait_us_p95_by_priority[label] =
        admission_wait_us_by_priority_[p]->Quantile(0.95);
  }
  s.query_latency_us_p50 = query_latency_us_->Quantile(0.50);
  s.query_latency_us_p95 = query_latency_us_->Quantile(0.95);
  s.query_latency_us_p99 = query_latency_us_->Quantile(0.99);
  s.cursor_batch_wait_us_p50 = cursor_batch_wait_us_->Quantile(0.50);
  s.cursor_batch_wait_us_p95 = cursor_batch_wait_us_->Quantile(0.95);
  return s;
}

std::string QueryService::MetricsText() const {
  morsels_stolen_->Set(pool_->steal_count());
  SyncSpillMetrics();
  std::string text = metrics_.TextDump();
#ifdef MAGICDB_FAILPOINTS
  // Failpoint builds export per-site fire counts so chaos runs can assert
  // that the intended sites actually fired.
  text += FailpointRegistry::Instance().MetricsText();
#endif
  return text;
}

}  // namespace magicdb
