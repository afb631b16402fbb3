#ifndef MAGICDB_SPILL_ROW_SERDE_H_
#define MAGICDB_SPILL_ROW_SERDE_H_

/// Binary row serialization for the spill subsystem.
///
/// Spilled state crosses an operator's lifetime but never a process or
/// machine boundary, so the format optimizes for fidelity and simplicity
/// over portability: fixed-width little-endian scalars, a one-byte type tag
/// per value, length-prefixed strings. Deserializing a record reproduces
/// the exact Value variants that went in — including the NULL/bool/int64/
/// double distinctions the engine's comparison and hashing semantics depend
/// on — which is what makes spilled execution byte-identical to in-memory
/// execution.
///
/// Every Read* function validates lengths against the buffer end and
/// returns kInternal on truncation or a bad tag, so a corrupt or
/// fault-injected spill file surfaces as a Status instead of undefined
/// behavior.

#include <cstdint>
#include <string>

#include "src/common/statusor.h"
#include "src/exec/agg_state.h"
#include "src/parallel/partitioned_aggregate.h"
#include "src/types/tuple.h"
#include "src/types/value.h"

namespace magicdb {
namespace spill {

void AppendU8(std::string* out, uint8_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
void AppendI64(std::string* out, int64_t v);
void AppendF64(std::string* out, double v);
void AppendValue(std::string* out, const Value& v);
void AppendTuple(std::string* out, const Tuple& t);
void AppendAggState(std::string* out, const AggState& st);

/// Serializes a partial-aggregate group: key hash (first, like every
/// partitioned spill record), first-seen rank, key tuple, and one AggState
/// per aggregate.
void AppendStagedGroup(std::string* out, const StagedGroup& g);

/// Sequential reader over one serialized record (a contiguous byte range).
/// The range must outlive the reader.
class RecordReader {
 public:
  RecordReader(const char* data, size_t size)
      : p_(data), end_(data + size) {}

  bool done() const { return p_ == end_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  Status ReadU8(uint8_t* v);
  Status ReadU32(uint32_t* v);
  Status ReadU64(uint64_t* v);
  Status ReadI64(int64_t* v);
  Status ReadF64(double* v);
  Status ReadValue(Value* v);
  Status ReadTuple(Tuple* t);
  Status ReadAggState(AggState* st);
  Status ReadStagedGroup(StagedGroup* g);

 private:
  Status Need(size_t n);

  const char* p_;
  const char* end_;
};

}  // namespace spill
}  // namespace magicdb

#endif  // MAGICDB_SPILL_ROW_SERDE_H_
