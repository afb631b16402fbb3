#include "src/storage/table.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/storage/index.h"

namespace magicdb {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      rows_per_page_(RowsPerPage(schema_.TupleWidthBytes())),
      zones_(static_cast<size_t>(schema_.num_columns())) {}

int64_t Table::NumPages() const {
  return PagesForRows(NumRows(), schema_.TupleWidthBytes());
}

namespace {
bool ValueMatchesColumn(const Value& v, DataType column_type) {
  if (v.is_null()) return true;
  if (v.type() == column_type) return true;
  // Integer literals are accepted into double columns.
  return column_type == DataType::kDouble && v.type() == DataType::kInt64;
}

void ExtendZone(ZoneEntry* zone, const Value& v) {
  if (v.is_null()) return;
  zone->has_value = true;
  if (v.type() == DataType::kDouble && std::isnan(v.AsDouble())) {
    zone->has_nan = true;
  } else if (zone->min.is_null()) {
    zone->min = v;
    zone->max = v;
  } else if (v.Compare(zone->min) < 0) {
    zone->min = v;
  } else if (v.Compare(zone->max) > 0) {
    zone->max = v;
  }
}
}  // namespace

Status Table::Insert(Tuple row) {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()) + " for table " + name_);
  }
  for (int i = 0; i < schema_.num_columns(); ++i) {
    if (!ValueMatchesColumn(row[i], schema_.column(i).type)) {
      return Status::TypeError("column " + schema_.column(i).QualifiedName() +
                               " expects " +
                               DataTypeName(schema_.column(i).type) +
                               ", got " + row[i].ToString());
    }
    // Normalize int64 into double columns so stored data is uniformly typed.
    if (schema_.column(i).type == DataType::kDouble && !row[i].is_null() &&
        row[i].type() == DataType::kInt64) {
      row[i] = Value::Double(static_cast<double>(row[i].AsInt64()));
    }
  }
  const int64_t row_id = NumRows();
  const auto page = static_cast<size_t>(row_id / rows_per_page_);
  for (int i = 0; i < schema_.num_columns(); ++i) {
    const DataType type = schema_.column(i).type;
    if (type != DataType::kInt64 && type != DataType::kDouble) continue;
    std::vector<ZoneEntry>& zones = zones_[static_cast<size_t>(i)];
    if (zones.size() == page) zones.emplace_back();
    ExtendZone(&zones.back(), row[i]);
  }
  for (auto& idx : hash_indexes_) idx->Insert(row, row_id);
  for (auto& idx : ordered_indexes_) idx->Insert(row, row_id);
  rows_.push_back(std::move(row));
  return Status::OK();
}

Status Table::InsertAll(std::vector<Tuple> rows) {
  for (Tuple& r : rows) {
    MAGICDB_RETURN_IF_ERROR(Insert(std::move(r)));
  }
  return Status::OK();
}

HashIndex* Table::CreateHashIndex(const std::vector<int>& columns) {
  for (auto& idx : hash_indexes_) {
    if (idx->columns() == columns) return idx.get();
  }
  auto idx = std::make_unique<HashIndex>(columns);
  for (int64_t i = 0; i < NumRows(); ++i) idx->Insert(rows_[i], i);
  hash_indexes_.push_back(std::move(idx));
  return hash_indexes_.back().get();
}

OrderedIndex* Table::CreateOrderedIndex(const std::vector<int>& columns) {
  for (auto& idx : ordered_indexes_) {
    if (idx->columns() == columns) return idx.get();
  }
  auto idx = std::make_unique<OrderedIndex>(columns);
  for (int64_t i = 0; i < NumRows(); ++i) idx->Insert(rows_[i], i);
  ordered_indexes_.push_back(std::move(idx));
  return ordered_indexes_.back().get();
}

const HashIndex* Table::FindHashIndex(const std::vector<int>& columns) const {
  for (const auto& idx : hash_indexes_) {
    if (idx->columns() == columns) return idx.get();
  }
  return nullptr;
}

const OrderedIndex* Table::FindOrderedIndex(
    const std::vector<int>& columns) const {
  for (const auto& idx : ordered_indexes_) {
    if (idx->columns() == columns) return idx.get();
  }
  return nullptr;
}

}  // namespace magicdb
