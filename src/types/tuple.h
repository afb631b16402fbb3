#ifndef MAGICDB_TYPES_TUPLE_H_
#define MAGICDB_TYPES_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/types/value.h"

namespace magicdb {

/// A row of values. Layout is positional; the matching Schema names the
/// positions.
using Tuple = std::vector<Value>;

/// Concatenates two tuples (join output).
Tuple ConcatTuples(const Tuple& left, const Tuple& right);

/// Projects `tuple` onto the given column indexes.
Tuple ProjectTuple(const Tuple& tuple, const std::vector<int>& indexes);

/// Hash of selected columns; consistent with column-wise Value equality.
uint64_t HashTupleColumns(const Tuple& tuple, const std::vector<int>& indexes);

/// Hash of every column: HashTupleColumns over all of `tuple`'s indexes.
uint64_t HashTuple(const Tuple& tuple);

/// Lexicographic comparison on selected columns. Returns <0, 0, >0.
int CompareTupleColumns(const Tuple& a, const Tuple& b,
                        const std::vector<int>& a_indexes,
                        const std::vector<int>& b_indexes);

/// Whole-tuple lexicographic comparison.
int CompareTuples(const Tuple& a, const Tuple& b);

/// True if any of the selected columns is NULL. Equi-join operators use
/// this to reject NULL keys (SQL: NULL = NULL is not true).
bool TupleHasNullAt(const Tuple& tuple, const std::vector<int>& indexes);

/// Bytes this tuple occupies in the page-cost model.
int64_t TupleByteWidth(const Tuple& tuple);

/// "(1, 'abc', NULL)".
std::string TupleToString(const Tuple& tuple);

}  // namespace magicdb

#endif  // MAGICDB_TYPES_TUPLE_H_
