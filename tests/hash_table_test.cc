// Tests for HashTable, the table behind every build side, distinct set,
// filter set and group index: insertion order under one hash, first-seen
// find-or-insert, keys told apart under colliding hashes, chains kept
// across growth, and Clear() releasing the storage.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/hash.h"
#include "src/common/hash_table.h"

namespace magicdb {
namespace {

using Entry = std::pair<int64_t, int64_t>;  // (key, arrival)

// All entries stored under `hash`, walked in table order.
std::vector<Entry> Walk(const HashTable<Entry>& table, uint64_t hash) {
  std::vector<Entry> out;
  for (uint32_t e = table.First(hash); e != HashTable<Entry>::kEnd;
       e = table.Next(e)) {
    out.push_back(table[e]);
  }
  return out;
}

TEST(HashTableTest, EqualKeysComeBackInInsertionOrder) {
  HashTable<Entry> table;
  for (int64_t i = 0; i < 30; ++i) {
    const int64_t key = i % 3;
    table.Append(HashUint64(static_cast<uint64_t>(key)), {key, i});
  }
  ASSERT_EQ(table.size(), 30u);
  for (int64_t key = 0; key < 3; ++key) {
    const std::vector<Entry> chain =
        Walk(table, HashUint64(static_cast<uint64_t>(key)));
    ASSERT_EQ(chain.size(), 10u);
    for (size_t j = 0; j < chain.size(); ++j) {
      EXPECT_EQ(chain[j], Entry(key, key + 3 * static_cast<int64_t>(j)));
    }
  }
  // values() lists every entry in insertion order.
  for (size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table.values()[i].second, static_cast<int64_t>(i));
  }
  EXPECT_EQ(table.First(HashUint64(99)), HashTable<Entry>::kEnd);
}

TEST(HashTableTest, FindOrInsertReturnsTheFirstSeenEntry) {
  HashTable<Entry> table;
  for (int64_t i = 0; i < 12; ++i) {
    const int64_t key = i % 4;
    auto [entry, fresh] = table.FindOrInsert(
        HashUint64(static_cast<uint64_t>(key)),
        [&](const Entry& e) { return e.first == key; },
        [&] { return Entry(key, i); });
    EXPECT_EQ(fresh, i < 4);
    EXPECT_EQ(*entry, Entry(key, key));  // the first arrival wins
  }
  ASSERT_EQ(table.size(), 4u);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(table[static_cast<size_t>(i)], Entry(i, i));
  }
  const Entry* missing = table.Find(
      HashUint64(7), [](const Entry& e) { return e.first == 7; });
  EXPECT_EQ(missing, nullptr);
}

TEST(HashTableTest, EqualHashesWithDifferentKeysAreToldApart) {
  constexpr uint64_t kSameHash = 42;
  HashTable<Entry> table;
  for (int64_t i = 0; i < 20; ++i) {
    table.FindOrInsert(
        kSameHash, [&](const Entry& e) { return e.first == i % 5; },
        [&] { return Entry(i % 5, i); });
  }
  ASSERT_EQ(table.size(), 5u);
  for (int64_t key = 0; key < 5; ++key) {
    const Entry* found = table.Find(
        kSameHash, [&](const Entry& e) { return e.first == key; });
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, Entry(key, key));
  }
  // The walk visits every colliding entry, in insertion order, and no
  // entry stored under another hash.
  table.Append(kSameHash + 1, {100, 100});
  const std::vector<Entry> chain = Walk(table, kSameHash);
  ASSERT_EQ(chain.size(), 5u);
  for (int64_t key = 0; key < 5; ++key) {
    EXPECT_EQ(chain[static_cast<size_t>(key)], Entry(key, key));
  }
}

TEST(HashTableTest, ChainsSurviveManyGrowthSteps) {
  HashTable<Entry> table;
  constexpr int64_t kKeys = 5000;
  constexpr int64_t kRounds = 4;
  for (int64_t round = 0; round < kRounds; ++round) {
    for (int64_t key = 0; key < kKeys; ++key) {
      table.Append(HashUint64(static_cast<uint64_t>(key)),
                   {key, round * kKeys + key});
    }
  }
  EXPECT_GE(table.bucket_count(), static_cast<size_t>(kKeys * kRounds));
  for (int64_t key = 0; key < kKeys; ++key) {
    const std::vector<Entry> chain =
        Walk(table, HashUint64(static_cast<uint64_t>(key)));
    ASSERT_EQ(chain.size(), static_cast<size_t>(kRounds)) << "key " << key;
    for (int64_t round = 0; round < kRounds; ++round) {
      EXPECT_EQ(chain[static_cast<size_t>(round)],
                Entry(key, round * kKeys + key));
    }
  }
}

TEST(HashTableTest, ClearLeavesNoCapacity) {
  HashTable<std::string> table;
  for (int i = 0; i < 1000; ++i) {
    table.Append(HashUint64(static_cast<uint64_t>(i)), std::to_string(i));
  }
  ASSERT_GT(table.values().capacity(), 0u);
  ASSERT_GT(table.bucket_count(), 0u);
  table.Clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.values().capacity(), 0u);
  EXPECT_EQ(table.bucket_count(), 0u);
  EXPECT_EQ(table.First(HashUint64(1)), HashTable<std::string>::kEnd);

  // TakeValues hands the entries over in insertion order and frees the
  // table too.
  table.Append(7, "a");
  table.Append(7, "b");
  const std::vector<std::string> values = table.TakeValues();
  EXPECT_EQ(values, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(table.values().capacity(), 0u);
  EXPECT_EQ(table.bucket_count(), 0u);
}

}  // namespace
}  // namespace magicdb
