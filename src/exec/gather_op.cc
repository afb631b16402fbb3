#include "src/exec/gather_op.h"

#include <utility>

#include "src/common/logging.h"
#include "src/spill/row_serde.h"

namespace magicdb {

void GatherCodec::Encode(const GatherRow& r, std::string* out) const {
  spill::AppendI64(out, r.pos);
  spill::AppendI64(out, r.sub);
  spill::AppendTuple(out, r.row);
}

Status GatherCodec::Decode(std::string_view record, GatherRow* r) const {
  spill::RecordReader reader(record.data(), record.size());
  MAGICDB_RETURN_IF_ERROR(reader.ReadI64(&r->pos));
  MAGICDB_RETURN_IF_ERROR(reader.ReadI64(&r->sub));
  return reader.ReadTuple(&r->row);
}

GatherOp::GatherOp(Schema schema, std::vector<SortedRun<GatherRow>> runs)
    : RowOperator(std::move(schema)) {
  for (SortedRun<GatherRow>& run : runs) {
    for (size_t i = 1; i < run.rows.size(); ++i) {
      MAGICDB_CHECK(!GatherCodec().Less(run.rows[i], run.rows[i - 1]));
    }
    merge_.Add(std::move(run));
  }
}

// No charges: the merge reads the spilled runs with a null context.
Status GatherOp::Open(ExecContext* /*ctx*/) { return merge_.Open(nullptr); }

Status GatherOp::NextRow(Tuple* out, bool* eof) {
  GatherRow next;
  bool has = false;
  MAGICDB_RETURN_IF_ERROR(merge_.Next(&next, &has));
  *eof = !has;
  if (has) *out = std::move(next.row);
  return Status::OK();
}

Status GatherOp::Close() {
  merge_.Clear();  // destroys any spilled files, removing them from disk
  return Status::OK();
}

std::string GatherOp::Describe() const {
  return "Gather(runs=" + std::to_string(merge_.num_runs()) + ")";
}

}  // namespace magicdb
