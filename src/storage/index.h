#ifndef MAGICDB_STORAGE_INDEX_H_
#define MAGICDB_STORAGE_INDEX_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/hash_table.h"
#include "src/types/tuple.h"

namespace magicdb {

/// Equality index: key columns -> row ids. Backed by a HashTable of distinct
/// keys; collisions are resolved by comparing key values, so lookups are
/// exact.
class HashIndex {
 public:
  explicit HashIndex(std::vector<int> columns)
      : columns_(std::move(columns)) {}

  const std::vector<int>& columns() const { return columns_; }

  /// Indexes `row` (stored at `row_id` in the owning table).
  void Insert(const Tuple& row, int64_t row_id);

  /// Row ids whose key columns equal `key` (key arity == columns arity), in
  /// insertion order; an empty list when no row matches. The list is the
  /// index's own, valid until the next Insert.
  const std::vector<int64_t>& Lookup(const Tuple& key) const;

  int64_t NumEntries() const { return num_entries_; }

 private:
  struct Entry {
    Tuple key;
    std::vector<int64_t> row_ids;
  };

  std::vector<int> columns_;
  HashTable<Entry> entries_;
  int64_t num_entries_ = 0;
};

/// Ordered index: key columns -> row ids in key order. Supports equality
/// and range probes; models a B-tree for costing purposes.
class OrderedIndex {
 public:
  explicit OrderedIndex(std::vector<int> columns)
      : columns_(std::move(columns)) {}

  const std::vector<int>& columns() const { return columns_; }

  void Insert(const Tuple& row, int64_t row_id);

  std::vector<int64_t> Lookup(const Tuple& key) const;

  /// Row ids with lo <= key <= hi (either bound may be an empty tuple,
  /// meaning unbounded on that side), in key order.
  std::vector<int64_t> Range(const Tuple& lo, const Tuple& hi) const;

  int64_t NumEntries() const { return num_entries_; }

  /// Height of the modelled B-tree (levels charged per probe).
  int64_t ModelledHeight() const;

 private:
  struct KeyLess {
    bool operator()(const Tuple& a, const Tuple& b) const {
      return CompareTuples(a, b) < 0;
    }
  };

  std::vector<int> columns_;
  std::map<Tuple, std::vector<int64_t>, KeyLess> entries_;
  int64_t num_entries_ = 0;
};

}  // namespace magicdb

#endif  // MAGICDB_STORAGE_INDEX_H_
