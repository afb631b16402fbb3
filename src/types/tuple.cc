#include "src/types/tuple.h"

#include <sstream>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace magicdb {

Tuple ConcatTuples(const Tuple& left, const Tuple& right) {
  Tuple out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

Tuple ProjectTuple(const Tuple& tuple, const std::vector<int>& indexes) {
  Tuple out;
  out.reserve(indexes.size());
  for (int i : indexes) {
    MAGICDB_CHECK(i >= 0 && i < static_cast<int>(tuple.size()));
    out.push_back(tuple[i]);
  }
  return out;
}

uint64_t HashTupleColumns(const Tuple& tuple,
                          const std::vector<int>& indexes) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int i : indexes) {
    MAGICDB_CHECK(i >= 0 && i < static_cast<int>(tuple.size()));
    h = HashCombine(h, tuple[i].Hash());
  }
  return h;
}

uint64_t HashTuple(const Tuple& tuple) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const Value& v : tuple) h = HashCombine(h, v.Hash());
  return h;
}

int CompareTupleColumns(const Tuple& a, const Tuple& b,
                        const std::vector<int>& a_indexes,
                        const std::vector<int>& b_indexes) {
  MAGICDB_CHECK(a_indexes.size() == b_indexes.size());
  for (size_t k = 0; k < a_indexes.size(); ++k) {
    const int c = a[a_indexes[k]].Compare(b[b_indexes[k]]);
    if (c != 0) return c;
  }
  return 0;
}

int CompareTuples(const Tuple& a, const Tuple& b) {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

bool TupleHasNullAt(const Tuple& tuple, const std::vector<int>& indexes) {
  for (int i : indexes) {
    MAGICDB_CHECK(i >= 0 && i < static_cast<int>(tuple.size()));
    if (tuple[i].is_null()) return true;
  }
  return false;
}

int64_t TupleByteWidth(const Tuple& tuple) {
  int64_t w = 0;
  for (const Value& v : tuple) w += v.ByteWidth();
  return w;
}

std::string TupleToString(const Tuple& tuple) {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) os << ", ";
    os << tuple[i].ToString();
  }
  os << ")";
  return os.str();
}

}  // namespace magicdb
