#ifndef MAGICDB_COMMON_HASH_TABLE_H_
#define MAGICDB_COMMON_HASH_TABLE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace magicdb {

/// The one hash table behind every build side, distinct set, filter set and
/// group index (DESIGN.md, "One hash table"). Callers supply each entry's
/// 64-bit hash and, for lookups, the key equality.
///
/// Payloads live in one insertion-ordered arena; beside each the table keeps
/// its hash and the index of the next entry in its bucket. A bucket records
/// its first and last entry, so chains run in insertion order: entries under
/// one hash are walked in arrival order, and values() is first-seen order.
/// The bucket is the high bits of `hash * 0x9E3779B97F4A7C15`; the
/// power-of-two bucket array doubles when the entries outnumber it.
///
/// The table charges no memory and no cost counters. An insert invalidates
/// pointers to payloads; entry indexes stay valid until Clear().
template <typename T>
class HashTable {
 public:
  /// Entry index that ends a walk.
  static constexpr uint32_t kEnd = UINT32_MAX;

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Appends `value` under `hash`, after every entry already there.
  T& Append(uint64_t hash, T value) {
    MAGICDB_CHECK(values_.size() < kEnd);
    if (values_.size() >= buckets_.size()) Grow();
    const uint32_t entry = static_cast<uint32_t>(values_.size());
    values_.push_back(std::move(value));
    links_.push_back({hash, kEnd});
    Link(entry);
    return values_.back();
  }

  /// Resumable walk over the entries stored under one hash, in insertion
  /// order: `for (e = First(h); e != kEnd; e = Next(e))`.
  uint32_t First(uint64_t hash) const {
    return buckets_.empty() ? kEnd : Skip(buckets_[Bucket(hash)].head, hash);
  }
  uint32_t Next(uint32_t entry) const {
    return Skip(links_[entry].next, links_[entry].hash);
  }

  /// The first entry under `hash` that `eq` accepts, or null.
  template <typename Eq>
  T* Find(uint64_t hash, const Eq& eq) {
    const uint32_t e = FindEntry(hash, eq);
    return e == kEnd ? nullptr : &values_[e];
  }
  template <typename Eq>
  const T* Find(uint64_t hash, const Eq& eq) const {
    const uint32_t e = FindEntry(hash, eq);
    return e == kEnd ? nullptr : &values_[e];
  }

  /// The first entry under `hash` that `eq` accepts; when there is none,
  /// appends make(). `second` is true when the entry is new.
  template <typename Eq, typename Make>
  std::pair<T*, bool> FindOrInsert(uint64_t hash, const Eq& eq,
                                   const Make& make) {
    if (T* found = Find(hash, eq)) return {found, false};
    return {&Append(hash, make()), true};
  }

  /// Entry `entry` in insertion order, and the hash it was stored under.
  T& operator[](size_t entry) { return values_[entry]; }
  const T& operator[](size_t entry) const { return values_[entry]; }
  uint64_t hash(size_t entry) const { return links_[entry].hash; }

  /// Every payload, in insertion order.
  const std::vector<T>& values() const { return values_; }

  /// Moves the payloads out in insertion order and frees the table.
  std::vector<T> TakeValues() {
    std::vector<T> out = std::move(values_);
    Clear();
    return out;
  }

  /// Removes every entry and frees all storage.
  void Clear() { *this = HashTable(); }

  size_t bucket_count() const { return buckets_.size(); }

 private:
  struct EntryLink {
    uint64_t hash;
    uint32_t next;
  };
  struct BucketEnds {
    uint32_t head = kEnd;
    uint32_t tail = kEnd;
  };

  size_t Bucket(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  uint32_t Skip(uint32_t e, uint64_t hash) const {
    while (e != kEnd && links_[e].hash != hash) e = links_[e].next;
    return e;
  }

  template <typename Eq>
  uint32_t FindEntry(uint64_t hash, const Eq& eq) const {
    uint32_t e = First(hash);
    while (e != kEnd && !eq(values_[e])) e = Next(e);
    return e;
  }

  void Link(uint32_t entry) {
    BucketEnds& b = buckets_[Bucket(links_[entry].hash)];
    if (b.head == kEnd) {
      b.head = entry;
    } else {
      links_[b.tail].next = entry;
    }
    b.tail = entry;
  }

  // Doubles the bucket array and relinks the arena in insertion order.
  void Grow() {
    const size_t count = buckets_.empty() ? 8 : 2 * buckets_.size();
    shift_ = 64 - std::countr_zero(count);
    buckets_.assign(count, BucketEnds());
    for (uint32_t e = 0; e < links_.size(); ++e) {
      links_[e].next = kEnd;
      Link(e);
    }
  }

  std::vector<T> values_;
  std::vector<EntryLink> links_;
  std::vector<BucketEnds> buckets_;
  int shift_ = 64;
};

}  // namespace magicdb

#endif  // MAGICDB_COMMON_HASH_TABLE_H_
