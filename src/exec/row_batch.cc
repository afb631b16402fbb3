#include "src/exec/row_batch.h"

#include <cstdlib>

#include "src/common/hash.h"

namespace magicdb {

void RowBatch::MoveRowToTuple(int32_t r, Tuple* t) {
  t->resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    (*t)[c] = std::move(columns_[c][static_cast<size_t>(r)]);
  }
}

void RowBatch::MoveActiveToTuples(std::vector<Tuple>* out) {
  for (int32_t r = 0; r < num_rows_; ++r) {
    Tuple t;
    MoveRowToTuple(r, &t);
    out->push_back(std::move(t));
  }
}

void RowBatch::KeepRows(const std::vector<uint8_t>& keep) {
  size_t n = 0;
  for (size_t r = 0; r < static_cast<size_t>(num_rows_); ++r) {
    if (keep[r] == 0) continue;
    if (r != n) {  // the dense prefix stays put; avoid self-moves
      for (auto& col : columns_) col[n] = std::move(col[r]);
      if (has_ranks_) {
        pos_[n] = pos_[r];
        sub_[n] = sub_[r];
      }
    }
    ++n;
  }
  for (auto& col : columns_) col.resize(n);
  if (has_ranks_) {
    pos_.resize(n);
    sub_.resize(n);
  }
  num_rows_ = static_cast<int32_t>(n);
}

int64_t BatchRowByteWidth(const RowBatch& batch, int32_t row) {
  int64_t w = 0;
  for (int c = 0; c < batch.num_cols(); ++c) {
    w += batch.column(c)[static_cast<size_t>(row)].ByteWidth();
  }
  return w;
}

bool BatchRowHasNullAt(const RowBatch& batch, int32_t row,
                       const std::vector<int>& indexes) {
  for (int i : indexes) {
    if (batch.column(i)[static_cast<size_t>(row)].is_null()) return true;
  }
  return false;
}

uint64_t HashBatchRowColumns(const RowBatch& batch, int32_t row,
                             const std::vector<int>& indexes) {
  // Same fold as HashTupleColumns, walking batch columns instead of a
  // materialized tuple.
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int i : indexes) {
    h = HashCombine(h, batch.column(i)[static_cast<size_t>(row)].Hash());
  }
  return h;
}

int64_t DefaultExecBatchSize() {
  static const int64_t size = [] {
    if (const char* env = std::getenv("MAGICDB_TEST_BATCH_SIZE")) {
      const int64_t v = std::strtoll(env, nullptr, 10);
      if (v >= 1) return v;
    }
    return int64_t{RowBatch::kDefaultCapacity};
  }();
  return size;
}

}  // namespace magicdb
