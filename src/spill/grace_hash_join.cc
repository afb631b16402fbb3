#include "src/spill/grace_hash_join.h"

#include "src/common/logging.h"
#include "src/exec/exec_context.h"
#include "src/spill/row_serde.h"

namespace magicdb {

void GraceHashJoin::OutCodec::Encode(const OutRow& r, std::string* out) const {
  spill::AppendI64(out, r.seq);
  spill::AppendTuple(out, r.row);
}

Status GraceHashJoin::OutCodec::Decode(std::string_view record,
                                       OutRow* r) const {
  spill::RecordReader reader(record.data(), record.size());
  MAGICDB_RETURN_IF_ERROR(reader.ReadI64(&r->seq));
  return reader.ReadTuple(&r->row);
}

GraceHashJoin::GraceHashJoin(std::shared_ptr<SpillManager> mgr,
                             std::vector<int> outer_keys,
                             std::vector<int> inner_keys, ExprPtr residual)
    : mgr_(std::move(mgr)),
      outer_keys_(std::move(outer_keys)),
      inner_keys_(std::move(inner_keys)),
      residual_(std::move(residual)),
      partitions_(mgr_.get(), {"join-build", "join-probe"}) {}

Status GraceHashJoin::BeginBuildSpill(ExecContext* ctx,
                                      HashTable<Tuple>* table,
                                      int64_t* charged_bytes) {
  // The tracker is full at the instant the build breaches, so hand the
  // table's charge back before reserving the partition write buffers: the
  // rows are leaving memory as the dump below proceeds, and the buffers
  // can only fit in the room they give back.
  ctx->ReleaseMemory(*charged_bytes);
  *charged_bytes = 0;
  MAGICDB_RETURN_IF_ERROR(partitions_.input(0).Reserve(ctx));
  // Arrival-order dump: rows of one hash stay in arrival order, which is
  // what makes each rebuilt bucket identical to its in-memory counterpart.
  for (size_t e = 0; e < table->size(); ++e) {
    MAGICDB_RETURN_IF_ERROR(AddBuildRow(table->hash(e), (*table)[e], ctx));
  }
  table->Clear();
  return Status::OK();
}

Status GraceHashJoin::AddBuildRow(uint64_t hash, const Tuple& row,
                                  ExecContext* ctx) {
  scratch_.clear();
  spill::AppendU64(&scratch_, hash);
  spill::AppendTuple(&scratch_, row);
  return partitions_.Add(0, hash, scratch_, ctx);
}

Status GraceHashJoin::FinishBuild(ExecContext* ctx) {
  return partitions_.input(0).FinishWrites(ctx);
}

Status GraceHashJoin::AddProbeRow(uint64_t hash, const Tuple& row,
                                  ExecContext* ctx) {
  if (probe_seq_ == 0) {
    MAGICDB_RETURN_IF_ERROR(partitions_.input(1).Reserve(ctx));
  }
  scratch_.clear();
  spill::AppendU64(&scratch_, hash);
  spill::AppendI64(&scratch_, probe_seq_++);
  spill::AppendTuple(&scratch_, row);
  return partitions_.Add(1, hash, scratch_, ctx);
}

Status GraceHashJoin::FinishProbe(ExecContext* ctx) {
  MAGICDB_RETURN_IF_ERROR(partitions_.Run(
      ctx, [&](const SpillPartitioner::Leaf& leaf, bool* split) {
        return JoinLeaf(leaf, split, ctx);
      }));
  return merge_.Open(ctx);
}

Status GraceHashJoin::JoinLeaf(const SpillPartitioner::Leaf& leaf,
                               bool* split, ExecContext* ctx) {
  // Transient buffers of this partition pair: build + probe read frames and
  // the output run's write buffer.
  SpillReservation frames;
  MAGICDB_RETURN_IF_ERROR(frames.Acquire(ctx, 3 * mgr_->config().batch_bytes));

  // Load the build partition into a charged in-memory table.
  HashTable<Tuple> table;
  int64_t charged = 0;
  Status status = ForEachRecord(
      leaf.files[0].get(), ctx, [&](std::string_view record) -> Status {
        spill::RecordReader reader(record.data(), record.size());
        uint64_t hash = 0;
        Tuple row;
        MAGICDB_RETURN_IF_ERROR(reader.ReadU64(&hash));
        MAGICDB_RETURN_IF_ERROR(reader.ReadTuple(&row));
        const int64_t row_bytes = TupleByteWidth(row);
        Status charge = ctx->ChargeMemory(row_bytes);
        if (!charge.ok()) {
          *split = charge.code() == StatusCode::kResourceExhausted;
          return charge;
        }
        charged += row_bytes;
        table.Append(hash, std::move(row));
        return Status::OK();
      });

  // Stream the probe partition against the loaded table. Matches collect
  // in a batch, rank-tagged with their probe sequence so the final merge
  // can restore order; the residual keeps its survivors one batch at a
  // time, and only those are appended to the output run.
  RunWriter<OutCodec> out(mgr_.get(), "join-out");
  RowBatch matches(static_cast<int32_t>(ctx->batch_size()));
  const auto flush = [&]() -> Status {
    residual_.Keep(ctx, &matches);
    OutRow match;
    for (int32_t r = 0; r < matches.num_rows(); ++r) {
      match.seq = matches.pos()[static_cast<size_t>(r)];
      matches.MoveRowToTuple(r, &match.row);
      MAGICDB_RETURN_IF_ERROR(out.Append(match, ctx));
    }
    matches.ResetForWrite(matches.num_cols());
    return Status::OK();
  };
  if (status.ok()) {
    status = ForEachRecord(
        leaf.files[1].get(), ctx, [&](std::string_view record) -> Status {
          spill::RecordReader reader(record.data(), record.size());
          uint64_t hash = 0;
          int64_t seq = 0;
          Tuple row;
          MAGICDB_RETURN_IF_ERROR(reader.ReadU64(&hash));
          MAGICDB_RETURN_IF_ERROR(reader.ReadI64(&seq));
          MAGICDB_RETURN_IF_ERROR(reader.ReadTuple(&row));
          for (uint32_t e = table.First(hash); e != HashTable<Tuple>::kEnd;
               e = table.Next(e)) {
            const Tuple& build_row = table[e];
            if (CompareTupleColumns(row, build_row, outer_keys_,
                                    inner_keys_) != 0) {
              continue;  // hash collision
            }
            ctx->counters().tuples_processed += 1;
            Tuple joined = ConcatTuples(row, build_row);
            if (matches.num_rows() == 0) {  // a fresh batch: shape it
              matches.ResetForWrite(static_cast<int>(joined.size()));
              matches.EnableRanks();
            }
            matches.AppendTuple(std::move(joined));
            matches.pos().push_back(seq);
            matches.sub().push_back(0);
            if (matches.full()) MAGICDB_RETURN_IF_ERROR(flush());
          }
          return Status::OK();
        });
  }
  if (status.ok()) status = flush();
  ctx->ReleaseMemory(charged);
  if (*split) return Status::OK();
  MAGICDB_RETURN_IF_ERROR(status);
  MAGICDB_ASSIGN_OR_RETURN(std::unique_ptr<SpillFile> run,
                           out.FinishWrite(ctx));
  merge_.Add(std::move(run));
  return Status::OK();
}

Status GraceHashJoin::NextOutput(Tuple* out, bool* eof) {
  OutRow row;
  bool has = false;
  MAGICDB_RETURN_IF_ERROR(merge_.Next(&row, &has));
  *eof = !has;
  if (has) *out = std::move(row.row);
  return Status::OK();
}

}  // namespace magicdb
