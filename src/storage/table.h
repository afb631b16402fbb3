#ifndef MAGICDB_STORAGE_TABLE_H_
#define MAGICDB_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/cost_counters.h"
#include "src/common/status.h"
#include "src/storage/index.h"
#include "src/types/schema.h"
#include "src/types/tuple.h"

namespace magicdb {

/// Zone of one INT or DOUBLE column on one page: a small materialized
/// aggregate (Moerkotte, VLDB 1998) from which a scan can prove that no row
/// of the page satisfies a range or equality bound on the column.
struct ZoneEntry {
  /// Least and greatest non-NULL, non-NaN value under Value::Compare; both
  /// NULL while the page holds no such value.
  Value min;
  Value max;
  /// Some value on the page is non-NULL (a NaN counts).
  bool has_value = false;
  /// Some value on the page is NaN, which Value::Compare does not order.
  bool has_nan = false;
};

/// Heap table: an in-memory row store with page-granular cost accounting.
/// Rows live in insertion order; NumPages() is the size the page-cost model
/// charges for a full scan. Indexes built on the table are maintained on
/// insert, and so is the zone map: one ZoneEntry per page for every INT and
/// DOUBLE column.
class Table {
 public:
  Table(std::string name, Schema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  int64_t NumRows() const { return static_cast<int64_t>(rows_.size()); }

  /// Pages this table occupies: ceil(rows * tuple_width / page_size),
  /// minimum 1 for a non-empty table.
  int64_t NumPages() const;

  /// Rows per page: page p holds rows [p * rows_per_page(),
  /// (p + 1) * rows_per_page()), the grid pages_read charges and
  /// MorselSource aligns to.
  int64_t rows_per_page() const { return rows_per_page_; }

  /// The zone map of column `c`: one entry per page, extended by Insert.
  /// Empty unless the column is INT or DOUBLE.
  const std::vector<ZoneEntry>& zones(int c) const {
    return zones_[static_cast<size_t>(c)];
  }

  /// Appends a row. The row must match the schema arity; each value must be
  /// NULL or of the column type (int64 accepted for double columns).
  Status Insert(Tuple row);

  /// Bulk append; stops at the first bad row.
  Status InsertAll(std::vector<Tuple> rows);

  const Tuple& row(int64_t i) const { return rows_[i]; }
  const std::vector<Tuple>& rows() const { return rows_; }

  /// Creates (or returns the existing) hash index on `columns` (indexes into
  /// the schema). Existing rows are indexed immediately.
  HashIndex* CreateHashIndex(const std::vector<int>& columns);

  /// Creates (or returns the existing) ordered index on `columns`.
  OrderedIndex* CreateOrderedIndex(const std::vector<int>& columns);

  /// Returns the hash index exactly on `columns`, or nullptr.
  const HashIndex* FindHashIndex(const std::vector<int>& columns) const;

  /// Returns the ordered index exactly on `columns`, or nullptr.
  const OrderedIndex* FindOrderedIndex(const std::vector<int>& columns) const;

 private:
  std::string name_;
  Schema schema_;
  int64_t rows_per_page_;
  std::vector<Tuple> rows_;
  std::vector<std::vector<ZoneEntry>> zones_;  // per column, per page
  std::vector<std::unique_ptr<HashIndex>> hash_indexes_;
  std::vector<std::unique_ptr<OrderedIndex>> ordered_indexes_;
};

}  // namespace magicdb

#endif  // MAGICDB_STORAGE_TABLE_H_
