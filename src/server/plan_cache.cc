#include "src/server/plan_cache.h"

namespace magicdb {

bool PlanCache::Lookup(const std::string& key, int64_t epoch,
                       PlanMeta* meta, OpPtr* instance) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  Entry& entry = it->second;
  if (entry.epoch != epoch) {
    // Stale: the catalog changed under this plan. Drop it so the caller
    // re-plans against the current catalog.
    lru_.erase(entry.lru_pos);
    entries_.erase(it);
    return false;
  }
  *meta = entry.meta;
  entry.hits += 1;
  if (instance != nullptr) {
    if (!entry.idle_instances.empty()) {
      *instance = std::move(entry.idle_instances.back());
      entry.idle_instances.pop_back();
    } else {
      instance->reset();
    }
  }
  lru_.splice(lru_.begin(), lru_, entry.lru_pos);
  return true;
}

void PlanCache::Insert(const std::string& key, int64_t epoch,
                       PlanMeta meta) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Concurrent planners can race to insert the same key; the entries are
    // equivalent (deterministic optimizer), so keep the incumbent but
    // refresh it if its epoch is older.
    Entry& entry = it->second;
    if (entry.epoch != epoch) {
      entry.epoch = epoch;
      entry.meta = std::move(meta);
      entry.hits = 0;
      entry.idle_instances.clear();
    }
    lru_.splice(lru_.begin(), lru_, entry.lru_pos);
    return;
  }
  lru_.push_front(key);
  Entry entry;
  entry.epoch = epoch;
  entry.meta = std::move(meta);
  entry.lru_pos = lru_.begin();
  entries_.emplace(key, std::move(entry));
  EvictIfNeeded();
}

void PlanCache::CheckIn(const std::string& key, int64_t epoch,
                        OpPtr instance) {
  if (instance == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  if (entry.epoch != epoch) return;
  if (entry.hits == 0) return;  // a statement not (yet) repeated
  if (entry.idle_instances.size() >= max_idle_instances_) return;
  entry.idle_instances.push_back(std::move(instance));
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

int64_t PlanCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

void PlanCache::EvictIfNeeded() {
  while (entries_.size() > max_entries_) {
    const std::string& victim = lru_.back();
    entries_.erase(victim);
    lru_.pop_back();
    evictions_ += 1;
  }
}

}  // namespace magicdb
