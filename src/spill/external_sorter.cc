#include "src/spill/external_sorter.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/exec/exec_context.h"
#include "src/spill/row_serde.h"

namespace magicdb {

void ExternalSorter::Codec::Encode(const SortRow& r, std::string* out) const {
  spill::AppendI64(out, r.seq);
  spill::AppendTuple(out, r.key);
  spill::AppendTuple(out, r.row);
}

Status ExternalSorter::Codec::Decode(std::string_view record,
                                     SortRow* r) const {
  spill::RecordReader reader(record.data(), record.size());
  MAGICDB_RETURN_IF_ERROR(reader.ReadI64(&r->seq));
  MAGICDB_RETURN_IF_ERROR(reader.ReadTuple(&r->key));
  return reader.ReadTuple(&r->row);
}

int ExternalSorter::Codec::CompareKeys(const Tuple& a, const Tuple& b) const {
  for (size_t k = 0; k < ascending.size(); ++k) {
    const int c = a[k].Compare(b[k]);
    if (c != 0) return ascending[k] ? c : -c;
  }
  return 0;
}

ExternalSorter::ExternalSorter(std::shared_ptr<SpillManager> mgr,
                               std::vector<bool> ascending)
    : mgr_(std::move(mgr)),
      codec_{std::move(ascending)},
      merge_(codec_) {}

Status ExternalSorter::SpillRun(std::vector<Tuple>* rows,
                                std::vector<Tuple>* keys, int64_t base_seq,
                                int64_t* charged_bytes, ExecContext* ctx) {
  MAGICDB_CHECK(rows->size() == keys->size());
  // Release the buffered rows' charge before reserving the write buffer:
  // the breach that triggered this flush left the tracker full, and the
  // rows stream out of memory as the run is written.
  ctx->ReleaseMemory(*charged_bytes);
  *charged_bytes = 0;
  // One write buffer lives while the run streams out.
  SpillReservation run_reservation;
  MAGICDB_RETURN_IF_ERROR(
      run_reservation.Acquire(ctx, mgr_->config().batch_bytes));
  std::vector<int64_t> order(keys->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const int c = codec_.CompareKeys((*keys)[a], (*keys)[b]);
    if (c != 0) return c < 0;
    return a < b;  // stable tiebreak: input order
  });
  RunWriter<Codec> writer(mgr_.get(), "sort-run", codec_);
  for (int64_t i : order) {
    MAGICDB_RETURN_IF_ERROR(writer.Append(
        {base_seq + i, std::move((*keys)[i]), std::move((*rows)[i])}, ctx));
  }
  MAGICDB_ASSIGN_OR_RETURN(std::unique_ptr<SpillFile> file,
                           writer.FinishWrite(ctx));
  merge_.Add(std::move(file));
  rows->clear();
  keys->clear();
  return Status::OK();
}

Status ExternalSorter::FinishInput(ExecContext* ctx) {
  return merge_.Open(ctx);
}

Status ExternalSorter::Next(Tuple* out, bool* eof) {
  SortRow row;
  bool has = false;
  MAGICDB_RETURN_IF_ERROR(merge_.Next(&row, &has));
  *eof = !has;
  if (has) *out = std::move(row.row);
  return Status::OK();
}

}  // namespace magicdb
