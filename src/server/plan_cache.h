#ifndef MAGICDB_SERVER_PLAN_CACHE_H_
#define MAGICDB_SERVER_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/db/database.h"

namespace magicdb {

/// SQL-keyed plan cache with LRU eviction. An entry holds what a hit reuses
/// without re-planning: the statement's PlanMeta (its bound logical plan is
/// immutable and shared) plus a pool of idle physical instances. The key
/// must already embed the session's OptimizerOptions fingerprint (see
/// OptimizerOptionsFingerprint) so sessions with different knobs never
/// share plans.
///
/// Validity is keyed on the catalog DDL epoch: an entry created at epoch E
/// is dead the moment the catalog reports a newer epoch (DDL or ANALYZE),
/// making stale-plan reuse structurally impossible — Lookup drops the entry
/// and reports a miss, and CheckIn refuses instances from an old epoch.
///
/// Besides the metadata, an entry pools *idle physical instances*: fully
/// built operator trees checked in after a successful sequential execution.
/// Volcano operators re-initialize completely in Open(), so re-running a
/// checked-in tree is byte-identical to a freshly planned one (the
/// optimizer is deterministic). Instances that ran parallel are never
/// checked in — shared morsel/build wiring survives Close() and must not
/// leak into a later run. Only an entry that has served a Lookup hit pools:
/// an idle tree keeps every operator's batch arena (megabytes for a star
/// join), and a statement that is never repeated would pin it for nothing.
///
/// Thread-safe; every method takes one internal lock.
class PlanCache {
 public:
  explicit PlanCache(size_t max_entries = 128,
                     size_t max_idle_instances = 8)
      : max_entries_(max_entries == 0 ? 1 : max_entries),
        max_idle_instances_(max_idle_instances) {}

  /// On hit: copies the metadata, pops an idle instance into `*instance`
  /// when one is pooled (nullptr otherwise), refreshes LRU recency, and
  /// returns true. On miss (absent or stale): returns false.
  bool Lookup(const std::string& key, int64_t epoch, PlanMeta* meta,
              OpPtr* instance);

  /// Installs (or refreshes) the entry for `key` after a miss was planned.
  void Insert(const std::string& key, int64_t epoch, PlanMeta meta);

  /// Returns an executed instance to the entry's idle pool. Dropped
  /// silently when the entry vanished, the epoch moved on, the entry has
  /// never been hit, or the pool is full.
  void CheckIn(const std::string& key, int64_t epoch, OpPtr instance);

  /// Drops every entry (tests).
  void Clear();

  size_t size() const;
  int64_t evictions() const;

 private:
  struct Entry {
    int64_t epoch = 0;
    PlanMeta meta;
    int64_t hits = 0;  // Lookup hits served at this epoch
    std::vector<OpPtr> idle_instances;
    std::list<std::string>::iterator lru_pos;
  };

  void EvictIfNeeded();  // caller holds mu_

  mutable std::mutex mu_;
  const size_t max_entries_;
  const size_t max_idle_instances_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
  int64_t evictions_ = 0;
};

}  // namespace magicdb

#endif  // MAGICDB_SERVER_PLAN_CACHE_H_
