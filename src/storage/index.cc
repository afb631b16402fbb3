#include "src/storage/index.h"

#include <cmath>

#include "src/common/logging.h"

namespace magicdb {

void HashIndex::Insert(const Tuple& row, int64_t row_id) {
  Tuple key = ProjectTuple(row, columns_);
  const uint64_t h = HashTupleColumns(row, columns_);
  Entry* entry = entries_.FindOrInsert(
      h, [&](const Entry& e) { return CompareTuples(e.key, key) == 0; },
      [&] { return Entry{std::move(key), {}}; }).first;
  entry->row_ids.push_back(row_id);
  ++num_entries_;
}

const std::vector<int64_t>& HashIndex::Lookup(const Tuple& key) const {
  static const std::vector<int64_t> kNoRows;
  MAGICDB_CHECK(key.size() == columns_.size());
  const Entry* entry = entries_.Find(
      HashTuple(key),
      [&](const Entry& e) { return CompareTuples(e.key, key) == 0; });
  return entry == nullptr ? kNoRows : entry->row_ids;
}

void OrderedIndex::Insert(const Tuple& row, int64_t row_id) {
  Tuple key = ProjectTuple(row, columns_);
  entries_[std::move(key)].push_back(row_id);
  ++num_entries_;
}

std::vector<int64_t> OrderedIndex::Lookup(const Tuple& key) const {
  MAGICDB_CHECK(key.size() == columns_.size());
  auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  return it->second;
}

std::vector<int64_t> OrderedIndex::Range(const Tuple& lo,
                                         const Tuple& hi) const {
  std::vector<int64_t> out;
  auto begin = lo.empty() ? entries_.begin() : entries_.lower_bound(lo);
  auto end = hi.empty() ? entries_.end() : entries_.upper_bound(hi);
  for (auto it = begin; it != end; ++it) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

int64_t OrderedIndex::ModelledHeight() const {
  // Model a B-tree with fanout 256; height >= 1.
  int64_t height = 1;
  int64_t n = num_entries_;
  while (n > 256) {
    n /= 256;
    ++height;
  }
  return height;
}

}  // namespace magicdb
