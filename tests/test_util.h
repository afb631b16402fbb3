#ifndef MAGICDB_TESTS_TEST_UTIL_H_
#define MAGICDB_TESTS_TEST_UTIL_H_

#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "src/common/logging.h"
#include "src/common/statusor.h"
#include "src/exec/basic_ops.h"
#include "src/exec/row_batch.h"
#include "src/exec/scan_ops.h"
#include "src/expr/expr.h"
#include "src/types/tuple.h"

namespace magicdb::testutil {

/// A fresh directory /tmp/magicdb-<tag>-test-XXXXXX, removed with anything
/// left inside it when the object goes out of scope, whether the test
/// passed or not. Declare it before the service or spill manager that
/// writes into it, so it outlives them.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag)
      : path_("/tmp/magicdb-" + tag + "-test-XXXXXX") {
    MAGICDB_CHECK(mkdtemp(path_.data()) != nullptr);
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }
  /// True when nothing is left inside: every spill file was unlinked.
  bool empty() const { return std::filesystem::is_empty(path_); }

 private:
  std::string path_;
};

/// Sorts a result multiset into canonical order for order-insensitive
/// comparison.
inline std::vector<Tuple> Canonicalize(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    return CompareTuples(a, b) < 0;
  });
  return rows;
}

/// True iff `a` and `b` contain the same tuples with the same
/// multiplicities.
inline bool SameMultiset(std::vector<Tuple> a, std::vector<Tuple> b) {
  a = Canonicalize(std::move(a));
  b = Canonicalize(std::move(b));
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (CompareTuples(a[i], b[i]) != 0) return false;
  }
  return true;
}

/// A one-row batch holding a copy of `row`.
inline RowBatch OneRowBatch(const Tuple& row) {
  RowBatch batch(1);
  batch.ResetForWrite(static_cast<int>(row.size()));
  batch.AppendTuple(Tuple(row));
  return batch;
}

/// Evaluates `expr` over `row` through a one-row batch, the way operators
/// evaluate expressions (Expr::BatchEval): the value, or the row's error.
inline StatusOr<Value> EvalRow(const Expr& expr, const Tuple& row) {
  std::vector<Value> vals;
  std::vector<uint8_t> errs;
  Status first_error;
  expr.BatchEval(OneRowBatch(row), &vals, &errs, &first_error);
  if (errs[0] != 0) return first_error;
  return vals[0];
}

/// `expr` as a predicate over `row` (BatchEvalPredicate): NULL and errors
/// count as false.
inline bool RowPredicate(const Expr& expr, const Tuple& row) {
  std::vector<Value> vals;
  std::vector<uint8_t> keep;
  BatchEvalPredicate(expr, OneRowBatch(row), &vals, &keep);
  return keep[0] != 0;
}

/// Describes the first FilterOp in the tree under `root` whose child is a
/// SeqScanOp, or returns "" when there is none. The optimizer moves a base
/// table's conjuncts into the scan, so no plan it builds has one.
inline std::string FilterOverSeqScan(const Operator& root) {
  const std::vector<const Operator*> children = root.Children();
  if (dynamic_cast<const FilterOp*>(&root) != nullptr &&
      dynamic_cast<const SeqScanOp*>(children[0]) != nullptr) {
    return root.Describe() + " over " + children[0]->Describe();
  }
  for (const Operator* child : children) {
    std::string found = FilterOverSeqScan(*child);
    if (!found.empty()) return found;
  }
  return "";
}

}  // namespace magicdb::testutil

#endif  // MAGICDB_TESTS_TEST_UTIL_H_
