#ifndef MAGICDB_EXEC_EXEC_CONTEXT_H_
#define MAGICDB_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/bloom/bloom_filter.h"
#include "src/common/cancellation.h"
#include "src/common/cost_counters.h"
#include "src/common/hash_table.h"
#include "src/common/memory_tracker.h"
#include "src/common/statusor.h"
#include "src/exec/row_batch.h"
#include "src/types/schema.h"
#include "src/types/tuple.h"

namespace magicdb {

class CardinalityFeedback;
class SpillManager;
class ThreadPool;

/// A materialized magic filter set, produced by a FilterJoinOp and consumed
/// inside the rewritten inner plan (FilterSetScanOp / FilterProbeOp). The
/// exact implementation keeps the distinct key tuples in a hash table, in
/// first-seen order; the lossy implementation keeps a Bloom filter (§3.3
/// Limitation 3).
class FilterSetBinding {
 public:
  /// Exact filter set over `keys` (distinct key tuples, schema `schema`).
  static std::shared_ptr<FilterSetBinding> Exact(Schema schema,
                                                 std::vector<Tuple> keys);

  /// Bloom filter set: remembers key hashes only. `bits_per_key` controls
  /// the false-positive rate.
  static std::shared_ptr<FilterSetBinding> Bloom(Schema schema,
                                                 const std::vector<Tuple>& keys,
                                                 double bits_per_key = 10.0);

  bool is_bloom() const { return bloom_.has_value(); }
  const Schema& schema() const { return schema_; }

  /// Distinct key tuples; empty for Bloom bindings (lossy sets cannot be
  /// enumerated).
  const std::vector<Tuple>& keys() const { return exact_set_.values(); }

  int64_t NumKeys() const { return num_keys_; }

  /// Membership probe over the key columns `key_indexes` of row
  /// `row` of `batch`. Bloom bindings may return false positives.
  bool MayContain(const RowBatch& batch, int32_t row,
                  const std::vector<int>& key_indexes) const;

  /// Bytes this filter set occupies (shipping / AvailCost_F accounting).
  int64_t SizeBytes() const;

 private:
  Schema schema_;
  HashTable<Tuple> exact_set_;
  std::optional<BloomFilter> bloom_;
  int64_t num_keys_ = 0;
};

/// Per-execution state: cost counters, memory budget for sort spilling, and
/// the named filter-set bindings magic-rewritten plans reference.
class ExecContext {
 public:
  ExecContext() = default;

  CostCounters& counters() { return counters_; }
  const CostCounters& counters() const { return counters_; }

  /// Memory available to sorts before they are charged external passes.
  int64_t memory_budget_bytes() const { return memory_budget_bytes_; }
  void set_memory_budget_bytes(int64_t b) { memory_budget_bytes_ = b; }

  /// Attaches a cooperative cancellation token. Operators and drivers call
  /// CheckCancelled() at coarse-grained checkpoints (page boundaries,
  /// morsel claims, pump quanta) and unwind with the returned Status.
  void set_cancel_token(CancelTokenPtr token) {
    cancel_token_ = std::move(token);
  }
  const CancelTokenPtr& cancel_token() const { return cancel_token_; }

  /// OK when no token is attached or the token is live; otherwise the
  /// Cancelled / DeadlineExceeded status the query must unwind with.
  Status CheckCancelled() const {
    return cancel_token_ == nullptr ? Status::OK() : cancel_token_->Check();
  }

  /// Attaches the per-query memory governor. One tracker is shared by every
  /// worker context of a query; a null tracker (the default) means no
  /// governance and zero accounting overhead.
  void set_memory_tracker(std::shared_ptr<MemoryTracker> tracker) {
    memory_tracker_ = std::move(tracker);
  }
  const std::shared_ptr<MemoryTracker>& memory_tracker() const {
    return memory_tracker_;
  }

  /// Charges retained bytes (hash-table rows, spooled tuples, partial
  /// aggregates) against the query's memory limit. OK when untracked; on
  /// breach returns kResourceExhausted and the caller must not retain the
  /// allocation.
  Status ChargeMemory(int64_t bytes) {
    return memory_tracker_ == nullptr ? Status::OK()
                                      : memory_tracker_->Charge(bytes);
  }

  /// Returns bytes previously charged with ChargeMemory.
  void ReleaseMemory(int64_t bytes) {
    if (memory_tracker_ != nullptr) memory_tracker_->Release(bytes);
  }

  /// Attaches the spill area this query may degrade to under memory
  /// pressure. Null (the default) or a disabled manager means a breach
  /// stays a hard kResourceExhausted failure.
  void set_spill_manager(std::shared_ptr<SpillManager> mgr) {
    spill_manager_ = std::move(mgr);
  }
  const std::shared_ptr<SpillManager>& spill_manager() const {
    return spill_manager_;
  }

  /// True when operators may spill: a usable spill area is attached AND the
  /// query is actually governed (spilling exists to satisfy the memory
  /// governor; ungoverned queries never need it). Defined in
  /// exec_context.cc to keep SpillManager a forward declaration here.
  bool spill_enabled() const;

  void BindFilterSet(const std::string& id,
                     std::shared_ptr<FilterSetBinding> binding) {
    filter_sets_[id] = std::move(binding);
  }
  void UnbindFilterSet(const std::string& id) { filter_sets_.erase(id); }

  StatusOr<std::shared_ptr<FilterSetBinding>> GetFilterSet(
      const std::string& id) const {
    auto it = filter_sets_.find(id);
    if (it == filter_sets_.end()) {
      return Status::Internal("filter set not bound: " + id);
    }
    return it->second;
  }

  /// Rows per batch that drivers and pipeline breakers pull through
  /// Operator::NextBatch; always >= 1. Setting a value <= 0 restores the
  /// default, DefaultExecBatchSize(). Results and merged counters are
  /// byte-identical at any batch size.
  int64_t batch_size() const { return batch_size_; }
  void set_batch_size(int64_t n) {
    batch_size_ = n > 0 ? n : DefaultExecBatchSize();
  }

  /// Worker pool parallel execution should run on. Null (the default) makes
  /// ParallelExecutor spin up a dedicated pool per Run; the serving layer
  /// points every query at its one shared pool.
  ThreadPool* shared_pool() const { return shared_pool_; }
  void set_shared_pool(ThreadPool* pool) { shared_pool_ = pool; }

  /// Per-query runtime cardinality ledger, shared by every worker context
  /// and surviving re-optimization restarts. Null disables instrumentation.
  const std::shared_ptr<CardinalityFeedback>& cardinality_feedback() const {
    return cardinality_feedback_;
  }
  void set_cardinality_feedback(std::shared_ptr<CardinalityFeedback> f) {
    cardinality_feedback_ = std::move(f);
  }

  /// Shared liveness heartbeat for the stuck-query watchdog. Producers bump
  /// it at coarse checkpoints (pump quanta, spill frames); the
  /// watchdog cancels a query whose heartbeat stops advancing. Null (the
  /// default) disables publication at zero cost.
  void set_progress_heartbeat(std::shared_ptr<std::atomic<int64_t>> hb) {
    progress_heartbeat_ = std::move(hb);
  }
  const std::shared_ptr<std::atomic<int64_t>>& progress_heartbeat() const {
    return progress_heartbeat_;
  }

  /// Publishes `amount` units of forward progress (rows, batches, or spill
  /// bytes — the watchdog only cares that the value moves).
  void NoteProgress(int64_t amount) {
    if (progress_heartbeat_ != nullptr) {
      progress_heartbeat_->fetch_add(amount, std::memory_order_relaxed);
    }
  }

  /// Q-error above which an annotated pipeline breaker aborts the attempt
  /// with kReoptimizeRequested; <= 0 disables triggering (observations are
  /// still recorded).
  double reoptimize_qerror_threshold() const {
    return reoptimize_qerror_threshold_;
  }
  void set_reoptimize_qerror_threshold(double t) {
    reoptimize_qerror_threshold_ = t;
  }

  /// Records one breaker observation into the ledger (no-op without one)
  /// and decides the re-optimization trigger. The decision is value-based —
  /// (threshold, exactness, q-error, suppression) only — so every worker of
  /// a shared build computes the same answer from the same totals and the
  /// whole gang unwinds consistently. Returns kReoptimizeRequested when the
  /// attempt should restart, OK otherwise. The status message starts with
  /// "<site>: ", which the server's reason-label sanitizer truncates to the
  /// metric label.
  Status RecordCardinality(const std::string& key, const std::string& site,
                           double estimated, double actual, bool exact,
                           bool can_trigger);

  /// Copies execution *configuration* (cancellation, tracker, spill, memory
  /// budget, batch size, pool, feedback ledger, re-opt threshold) from a
  /// prototype context — everything except counters and filter-set
  /// bindings, which stay per-context. Worker contexts and fallback paths
  /// are stamped from one prototype this way.
  void InheritConfig(const ExecContext& proto) {
    cancel_token_ = proto.cancel_token_;
    memory_tracker_ = proto.memory_tracker_;
    spill_manager_ = proto.spill_manager_;
    memory_budget_bytes_ = proto.memory_budget_bytes_;
    batch_size_ = proto.batch_size_;
    shared_pool_ = proto.shared_pool_;
    cardinality_feedback_ = proto.cardinality_feedback_;
    reoptimize_qerror_threshold_ = proto.reoptimize_qerror_threshold_;
    progress_heartbeat_ = proto.progress_heartbeat_;
  }

 private:
  CostCounters counters_;
  CancelTokenPtr cancel_token_;
  std::shared_ptr<MemoryTracker> memory_tracker_;
  std::shared_ptr<SpillManager> spill_manager_;
  int64_t memory_budget_bytes_ = 4 * 1024 * 1024;
  int64_t batch_size_ = DefaultExecBatchSize();
  ThreadPool* shared_pool_ = nullptr;
  std::shared_ptr<CardinalityFeedback> cardinality_feedback_;
  double reoptimize_qerror_threshold_ = 0.0;
  std::shared_ptr<std::atomic<int64_t>> progress_heartbeat_;
  std::map<std::string, std::shared_ptr<FilterSetBinding>> filter_sets_;
};

}  // namespace magicdb

#endif  // MAGICDB_EXEC_EXEC_CONTEXT_H_
