#include "src/spill/row_serde.h"

#include <cstring>

namespace magicdb {
namespace spill {

namespace {

// Value type tags. Stable across the lifetime of one spill file only, so
// renumbering is safe as long as writer and reader agree within a build.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagBool = 1;
constexpr uint8_t kTagInt64 = 2;
constexpr uint8_t kTagDouble = 3;
constexpr uint8_t kTagString = 4;

template <typename T>
void AppendRaw(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

}  // namespace

void AppendU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }
void AppendU32(std::string* out, uint32_t v) { AppendRaw(out, v); }
void AppendU64(std::string* out, uint64_t v) { AppendRaw(out, v); }
void AppendI64(std::string* out, int64_t v) { AppendRaw(out, v); }
void AppendF64(std::string* out, double v) { AppendRaw(out, v); }

void AppendValue(std::string* out, const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      AppendU8(out, kTagNull);
      return;
    case DataType::kBool:
      AppendU8(out, kTagBool);
      AppendU8(out, v.AsBool() ? 1 : 0);
      return;
    case DataType::kInt64:
      AppendU8(out, kTagInt64);
      AppendI64(out, v.AsInt64());
      return;
    case DataType::kDouble:
      AppendU8(out, kTagDouble);
      AppendF64(out, v.AsDouble());
      return;
    case DataType::kString: {
      const std::string& s = v.AsString();
      AppendU8(out, kTagString);
      AppendU32(out, static_cast<uint32_t>(s.size()));
      out->append(s);
      return;
    }
  }
}

void AppendTuple(std::string* out, const Tuple& t) {
  AppendU32(out, static_cast<uint32_t>(t.size()));
  for (const Value& v : t) AppendValue(out, v);
}

void AppendAggState(std::string* out, const AggState& st) {
  AppendI64(out, st.count);
  AppendF64(out, st.sum);
  AppendI64(out, st.isum);
  AppendU8(out, st.int_sum ? 1 : 0);
  AppendValue(out, st.min);
  AppendValue(out, st.max);
}

void AppendStagedGroup(std::string* out, const StagedGroup& g) {
  AppendU64(out, g.hash);
  AppendI64(out, g.pos);
  AppendI64(out, g.sub);
  AppendTuple(out, g.key);
  AppendU32(out, static_cast<uint32_t>(g.states.size()));
  for (const AggState& st : g.states) AppendAggState(out, st);
}

Status RecordReader::Need(size_t n) {
  if (remaining() < n) {
    return Status::Internal("spill record truncated: need " +
                            std::to_string(n) + " bytes, have " +
                            std::to_string(remaining()));
  }
  return Status::OK();
}

Status RecordReader::ReadU8(uint8_t* v) {
  MAGICDB_RETURN_IF_ERROR(Need(1));
  *v = static_cast<uint8_t>(*p_++);
  return Status::OK();
}

Status RecordReader::ReadU32(uint32_t* v) {
  MAGICDB_RETURN_IF_ERROR(Need(sizeof(*v)));
  std::memcpy(v, p_, sizeof(*v));
  p_ += sizeof(*v);
  return Status::OK();
}

Status RecordReader::ReadU64(uint64_t* v) {
  MAGICDB_RETURN_IF_ERROR(Need(sizeof(*v)));
  std::memcpy(v, p_, sizeof(*v));
  p_ += sizeof(*v);
  return Status::OK();
}

Status RecordReader::ReadI64(int64_t* v) {
  MAGICDB_RETURN_IF_ERROR(Need(sizeof(*v)));
  std::memcpy(v, p_, sizeof(*v));
  p_ += sizeof(*v);
  return Status::OK();
}

Status RecordReader::ReadF64(double* v) {
  MAGICDB_RETURN_IF_ERROR(Need(sizeof(*v)));
  std::memcpy(v, p_, sizeof(*v));
  p_ += sizeof(*v);
  return Status::OK();
}

Status RecordReader::ReadValue(Value* v) {
  uint8_t tag = 0;
  MAGICDB_RETURN_IF_ERROR(ReadU8(&tag));
  switch (tag) {
    case kTagNull:
      *v = Value::Null();
      return Status::OK();
    case kTagBool: {
      uint8_t b = 0;
      MAGICDB_RETURN_IF_ERROR(ReadU8(&b));
      *v = Value::Bool(b != 0);
      return Status::OK();
    }
    case kTagInt64: {
      int64_t i = 0;
      MAGICDB_RETURN_IF_ERROR(ReadI64(&i));
      *v = Value::Int64(i);
      return Status::OK();
    }
    case kTagDouble: {
      double d = 0;
      MAGICDB_RETURN_IF_ERROR(ReadF64(&d));
      *v = Value::Double(d);
      return Status::OK();
    }
    case kTagString: {
      uint32_t len = 0;
      MAGICDB_RETURN_IF_ERROR(ReadU32(&len));
      MAGICDB_RETURN_IF_ERROR(Need(len));
      *v = Value::String(std::string(p_, len));
      p_ += len;
      return Status::OK();
    }
    default:
      return Status::Internal("spill record has bad value tag " +
                              std::to_string(tag));
  }
}

Status RecordReader::ReadTuple(Tuple* t) {
  uint32_t n = 0;
  MAGICDB_RETURN_IF_ERROR(ReadU32(&n));
  t->clear();
  t->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    MAGICDB_RETURN_IF_ERROR(ReadValue(&v));
    t->push_back(std::move(v));
  }
  return Status::OK();
}

Status RecordReader::ReadAggState(AggState* st) {
  uint8_t int_sum = 0;
  MAGICDB_RETURN_IF_ERROR(ReadI64(&st->count));
  MAGICDB_RETURN_IF_ERROR(ReadF64(&st->sum));
  MAGICDB_RETURN_IF_ERROR(ReadI64(&st->isum));
  MAGICDB_RETURN_IF_ERROR(ReadU8(&int_sum));
  st->int_sum = int_sum != 0;
  MAGICDB_RETURN_IF_ERROR(ReadValue(&st->min));
  MAGICDB_RETURN_IF_ERROR(ReadValue(&st->max));
  return Status::OK();
}

Status RecordReader::ReadStagedGroup(StagedGroup* g) {
  MAGICDB_RETURN_IF_ERROR(ReadU64(&g->hash));
  MAGICDB_RETURN_IF_ERROR(ReadI64(&g->pos));
  MAGICDB_RETURN_IF_ERROR(ReadI64(&g->sub));
  MAGICDB_RETURN_IF_ERROR(ReadTuple(&g->key));
  uint32_t n = 0;
  MAGICDB_RETURN_IF_ERROR(ReadU32(&n));
  g->states.clear();
  g->states.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    MAGICDB_RETURN_IF_ERROR(ReadAggState(&g->states[i]));
  }
  return Status::OK();
}

}  // namespace spill
}  // namespace magicdb
