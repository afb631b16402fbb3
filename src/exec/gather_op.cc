#include "src/exec/gather_op.h"

#include <utility>

#include "src/common/logging.h"
#include "src/spill/row_serde.h"

namespace magicdb {

GatherOp::GatherOp(Schema schema, std::vector<GatherRun> runs)
    : RowOperator(std::move(schema)), runs_(std::move(runs)) {
  for (const auto& run : runs_) {
    for (size_t i = 1; i < run.rows.size(); ++i) {
      MAGICDB_CHECK(run.rows[i - 1].pos < run.rows[i].pos ||
                    (run.rows[i - 1].pos == run.rows[i].pos &&
                     run.rows[i - 1].sub <= run.rows[i].sub));
    }
  }
}

GatherOp::GatherOp(Schema schema, std::vector<std::vector<GatherRow>> runs)
    : GatherOp(std::move(schema), [&] {
        std::vector<GatherRun> wrapped(runs.size());
        for (size_t r = 0; r < runs.size(); ++r) {
          wrapped[r].rows = std::move(runs[r]);
        }
        return wrapped;
      }()) {}

Status GatherOp::AdvanceFile(size_t r) {
  Cursor& c = cursor_[r];
  std::string_view record;
  bool has = false;
  MAGICDB_RETURN_IF_ERROR(
      runs_[r].spilled->NextRecord(&record, &has, /*ctx=*/nullptr));
  if (!has) {
    c.file_has = false;
    return Status::OK();
  }
  spill::RecordReader reader(record.data(), record.size());
  MAGICDB_RETURN_IF_ERROR(reader.ReadI64(&c.pos));
  MAGICDB_RETURN_IF_ERROR(reader.ReadI64(&c.sub));
  MAGICDB_RETURN_IF_ERROR(reader.ReadTuple(&c.row));
  c.file_has = true;
  return Status::OK();
}

bool GatherOp::Head(size_t r, int64_t* pos, int64_t* sub) const {
  const Cursor& c = cursor_[r];
  if (c.file_has) {
    *pos = c.pos;
    *sub = c.sub;
    return true;
  }
  if (c.mem >= runs_[r].rows.size()) return false;
  *pos = runs_[r].rows[c.mem].pos;
  *sub = runs_[r].rows[c.mem].sub;
  return true;
}

Status GatherOp::Open(ExecContext* /*ctx*/) {
  cursor_.assign(runs_.size(), Cursor{});
  for (size_t r = 0; r < runs_.size(); ++r) {
    if (runs_[r].spilled == nullptr) continue;
    MAGICDB_RETURN_IF_ERROR(runs_[r].spilled->Rewind());
    MAGICDB_RETURN_IF_ERROR(AdvanceFile(r));
  }
  return Status::OK();
}

Status GatherOp::NextRow(Tuple* out, bool* eof) {
  // Pick the run whose head has the smallest (pos, sub) rank; full ties
  // (possible only when several output rows share one rank, all within one
  // worker's run) resolve to the lowest run index, and within a run FIFO
  // order is preserved — both match sequential emission order.
  int best = -1;
  int64_t best_pos = 0, best_sub = 0;
  for (size_t r = 0; r < runs_.size(); ++r) {
    int64_t pos = 0, sub = 0;
    if (!Head(r, &pos, &sub)) continue;
    if (best < 0 || pos < best_pos || (pos == best_pos && sub < best_sub)) {
      best = static_cast<int>(r);
      best_pos = pos;
      best_sub = sub;
    }
  }
  if (best < 0) {
    *eof = true;
    return Status::OK();
  }
  Cursor& c = cursor_[best];
  if (c.file_has) {
    *out = std::move(c.row);
    *eof = false;
    return AdvanceFile(static_cast<size_t>(best));
  }
  *out = std::move(runs_[best].rows[c.mem++].row);
  *eof = false;
  return Status::OK();
}

Status GatherOp::Close() {
  runs_.clear();  // destroys any spilled files, removing them from disk
  cursor_.clear();
  return Status::OK();
}

std::string GatherOp::Describe() const {
  return "Gather(runs=" + std::to_string(runs_.size()) + ")";
}

}  // namespace magicdb
