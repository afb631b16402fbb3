#include "src/exec/aggregate_op.h"

#include <limits>

#include "src/common/failpoint.h"
#include "src/common/hash.h"
#include "src/common/logging.h"

namespace magicdb {

/// DispatchRow's group key for row `r`, read straight from the
/// resolved operand views, so the hot path (the group already exists) never
/// materializes a key Tuple: Equals compares in place, and Materialize is
/// called at most once per dispatched row — only for a fresh group or a
/// spill partial.
struct OperandKeySource {
  const std::vector<BatchOperand>* ops;
  size_t r;
  bool Equals(const Tuple& other) const {
    if (other.size() != ops->size()) return false;
    for (size_t i = 0; i < ops->size(); ++i) {
      if (other[i].Compare((*ops)[i].at(r)) != 0) return false;
    }
    return true;
  }
  Tuple Materialize() const {
    Tuple key;
    key.reserve(ops->size());
    for (const BatchOperand& op : *ops) key.push_back(op.at(r));
    return key;
  }
  int64_t ByteWidth() const {
    int64_t w = 0;
    for (const BatchOperand& op : *ops) w += op.at(r).ByteWidth();
    return w;
  }
  /// Same fold as HashTuple over the materialized key.
  uint64_t Hash() const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const BatchOperand& op : *ops) h = HashCombine(h, op.at(r).Hash());
    return h;
  }
};

HashAggregateOp::HashAggregateOp(OpPtr child, std::vector<ExprPtr> group_by,
                                 std::vector<AggSpec> aggs, Schema schema)
    : Operator(std::move(schema)),
      child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {}

Status HashAggregateOp::FoldValue(const AggSpec& spec, const Value& v,
                                  AggState* st) {
  if (v.is_null()) return Status::OK();  // SQL aggregates skip NULLs
  ++st->count;
  switch (spec.func) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      MAGICDB_ASSIGN_OR_RETURN(double d, v.AsNumeric());
      st->sum += d;
      if (v.type() == DataType::kInt64 && st->int_sum) {
        st->isum += v.AsInt64();
      } else {
        st->int_sum = false;
      }
      break;
    }
    case AggFunc::kMin:
      if (st->min.is_null() || v.Compare(st->min) < 0) st->min = v;
      break;
    case AggFunc::kMax:
      if (st->max.is_null() || v.Compare(st->max) > 0) st->max = v;
      break;
    case AggFunc::kCountStar:
      break;
  }
  return Status::OK();
}

Status HashAggregateOp::FoldPreEvaluated(
    const std::vector<BatchOperand>& agg_ops, int32_t r, StagedGroup* group) {
  for (size_t a = 0; a < aggs_.size(); ++a) {
    const AggSpec& spec = aggs_[a];
    AggState& st = group->states[a];
    if (spec.func == AggFunc::kCountStar) {
      ++st.count;
      continue;
    }
    MAGICDB_RETURN_IF_ERROR(
        FoldValue(spec, agg_ops[a].at(static_cast<size_t>(r)), &st));
  }
  return Status::OK();
}

StatusOr<Value> HashAggregateOp::Finalize(const AggSpec& spec,
                                          const AggState& st) const {
  switch (spec.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int64(st.count);
    case AggFunc::kSum:
      if (st.count == 0) return Value::Null();
      if (st.int_sum) return Value::Int64(st.isum);
      return Value::Double(st.sum);
    case AggFunc::kAvg:
      if (st.count == 0) return Value::Null();
      return Value::Double(st.sum / static_cast<double>(st.count));
    case AggFunc::kMin:
      return st.min;
    case AggFunc::kMax:
      return st.max;
  }
  return Status::Internal("bad aggregate function");
}

template <typename Fold>
Status HashAggregateOp::DispatchRow(ExecContext* ctx,
                                    const OperandKeySource& key_src,
                                    uint64_t h, int64_t input_pos,
                                    int64_t input_sub, bool parallel,
                                    const Fold& fold) {
  StagedGroup* group = nullptr;
  while (true) {
    if (agg_spill_ != nullptr && agg_spill_->IsSpilled(h)) {
      // This hash partition has been evicted: fold the row into a one-row
      // partial state and append it to the partition file; it is combined
      // during re-aggregation at end of input.
      StagedGroup partial{.pos = input_pos,
                          .sub = input_sub,
                          .hash = h,
                          .key = key_src.Materialize(),
                          .states = std::vector<AggState>(aggs_.size())};
      MAGICDB_RETURN_IF_ERROR(fold(&partial));
      return agg_spill_->AddPartial(partial, ctx);
    }
    group = groups_.Find(
        h, [&](const StagedGroup& g) { return key_src.Equals(g.key); });
    if (group != nullptr) break;
    // New group: governed memory — the key tuple plus one AggState per
    // aggregate, retained until the groups are finalized.
    const int64_t group_bytes =
        key_src.ByteWidth() +
        static_cast<int64_t>(aggs_.size() * sizeof(AggState));
    Status charge = ctx->ChargeMemory(group_bytes);
    if (charge.ok()) {
      charged_bytes_ += group_bytes;
      group = &groups_.Append(
          h, StagedGroup{.pos = input_pos,
                         .sub = input_sub,
                         .hash = h,
                         .key = key_src.Materialize(),
                         .states = std::vector<AggState>(aggs_.size())});
      break;
    }
    // A governed breach turns into victim-partition eviction when a spill
    // area is attached (sequential mode only; parallel replicas fail the
    // gang and the service retries sequentially with spilling).
    if (charge.code() != StatusCode::kResourceExhausted ||
        !ctx->spill_enabled() || parallel) {
      return charge;
    }
    if (agg_spill_ == nullptr) {
      agg_spill_ =
          std::make_unique<AggSpill>(ctx->spill_manager(), aggs_.size());
    }
    // Every partition already evicted and one group still does not fit:
    // eviction cannot help any further.
    if (agg_spill_->AllSpilled()) return charge;
    // Evicting rebuilds groups_, so retry the lookup (the victim may or
    // may not be this row's partition).
    MAGICDB_RETURN_IF_ERROR(
        agg_spill_->EvictNextPartition(&groups_, &charged_bytes_, ctx));
  }
  return fold(group);
}

Status HashAggregateOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  groups_.Clear();
  next_group_ = 0;
  aggregated_ = false;
  charged_bytes_ = 0;
  agg_spill_.reset();
  const bool parallel = shared_ != nullptr;

  MAGICDB_RETURN_IF_ERROR(child_->Open(ctx));
  int64_t input_bytes = 0;
  int64_t rows_seen = 0;
  int64_t input_pos = -1;
  int64_t input_sub = 0;
  // Input drain: group keys and aggregate arguments evaluate vectorized,
  // and in parallel mode the rank tags ride in the batches. Operand views
  // resolve plain-column keys and arguments to zero-copy pointers into the
  // input batch; the scratch vectors fill in only for computed expressions.
  // Views alias the batch, so the row loop below copies key values out
  // rather than moving them (two keys may reference the same column, and
  // BatchRowByteWidth also reads the input row).
  std::vector<std::vector<Value>> key_vals(group_by_.size());
  std::vector<std::vector<uint8_t>> key_errs(group_by_.size());
  std::vector<std::vector<Value>> agg_vals(aggs_.size());
  std::vector<std::vector<uint8_t>> agg_errs(aggs_.size());
  std::vector<BatchOperand> key_ops(group_by_.size());
  std::vector<BatchOperand> agg_ops(aggs_.size());
  MAGICDB_RETURN_IF_ERROR(DrainBatches(child_.get(), ctx, [&](RowBatch* in) {
    const int32_t n = in->num_rows();
    if (n == 0) return Status::OK();
    if (parallel && !in->has_ranks()) {
      return Status::Internal(
          "parallel aggregation requires rank-tagged batches");
    }
    for (size_t i = 0; i < group_by_.size(); ++i) {
      ctx->counters().exprs_evaluated += n;
      Status first_error;
      ResolveBatchOperand(*group_by_[i], *in, &key_vals[i], &key_errs[i],
                          &first_error, &key_ops[i]);
      MAGICDB_RETURN_IF_ERROR(first_error);
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (aggs_[a].func == AggFunc::kCountStar) continue;
      ctx->counters().exprs_evaluated += n;
      Status first_error;
      ResolveBatchOperand(*aggs_[a].arg, *in, &agg_vals[a], &agg_errs[a],
                          &first_error, &agg_ops[a]);
      MAGICDB_RETURN_IF_ERROR(first_error);
    }
    for (int32_t r = 0; r < n; ++r) {
      ++rows_seen;
      MAGICDB_FAILPOINT("exec.aggregate.build");
      if (parallel) {
        // Rank by the driving position; rows sharing one (a Filter Join
        // re-emits its production set, a hash join fans out) take
        // consecutive emission indexes.
        const int64_t p = in->pos()[static_cast<size_t>(r)];
        if (p == input_pos) {
          ++input_sub;
        } else {
          input_pos = p;
          input_sub = 0;
        }
      } else {
        // Sequential rank: the input row index. Monotone, so groups_ in
        // first-seen order is already sorted by (pos, sub) — the order the
        // spill merge (if engaged) reproduces.
        input_pos = rows_seen - 1;
        input_sub = 0;
      }
      input_bytes += BatchRowByteWidth(*in, r);
      const OperandKeySource key_src{&key_ops, static_cast<size_t>(r)};
      ctx->counters().hash_operations += 1;
      const uint64_t h = key_src.Hash();
      MAGICDB_RETURN_IF_ERROR(DispatchRow(
          ctx, key_src, h, input_pos, input_sub, parallel,
          [&](StagedGroup* g) { return FoldPreEvaluated(agg_ops, r, g); }));
    }
    return Status::OK();
  }));
  MAGICDB_RETURN_IF_ERROR(child_->Close());

  if (!parallel) {
    if (agg_spill_ != nullptr) {
      // Out of core: evict the remaining resident partitions too, so the
      // re-aggregation passes start from an (almost) empty tracker — the
      // resident set can sit just under the limit, and keeping it charged
      // while a partition's groups are rebuilt would double-count nearly
      // the whole budget. Rank metadata rides along in the records, so the
      // merge still emits global first-seen order. Real page I/O was
      // charged by the spill files, so the heuristic below is skipped.
      while (!agg_spill_->AllSpilled()) {
        MAGICDB_RETURN_IF_ERROR(
            agg_spill_->EvictNextPartition(&groups_, &charged_bytes_, ctx));
      }
      MAGICDB_RETURN_IF_ERROR(agg_spill_->BuildOutput(ctx));
      aggregated_ = true;
      return Status::OK();
    }
    // Input over the memory budget: charge the predicted Grace partitioning
    // passes, mirroring the hash-join spill model.
    ChargeSpillPasses(input_bytes, ctx->memory_budget_bytes(),
                      &ctx->counters());
    // Scalar aggregate over empty input still yields one row.
    if (group_by_.empty() && groups_.empty()) {
      groups_.Append(0, StagedGroup{.key = {},
                                    .states = std::vector<AggState>(
                                        aggs_.size())});
    }
    if (!feedback_key_.empty()) {
      MAGICDB_RETURN_IF_ERROR(ctx->RecordCardinality(
          feedback_key_, "aggregate_build", feedback_est_groups_,
          static_cast<double>(groups_.size()), /*exact=*/true,
          /*can_trigger=*/false));
    }
    aggregated_ = true;
    return Status::OK();
  }

  // Parallel: every worker contributes the scalar group even over an empty
  // input slice, so the merged result has exactly one row (zero states
  // combine as the identity). The INT64_MAX rank sorts it after any real
  // first-seen rank, so a worker that did see input decides the group's
  // position — and with no input anywhere, the single row still emerges.
  if (group_by_.empty() && groups_.empty()) {
    const uint64_t h = HashTuple(Tuple{});
    groups_.Append(h, StagedGroup{.pos = std::numeric_limits<int64_t>::max(),
                                  .hash = h,
                                  .key = {},
                                  .states = std::vector<AggState>(
                                      aggs_.size())});
  }
  shared_->AddInputBytes(input_bytes);
  for (StagedGroup& g : groups_.TakeValues()) {
    shared_->Stage(worker_, std::move(g));
  }
  // Barrier with the other replicas, then merge the one partition this
  // worker owns; the merged groups (sorted by first-seen rank) are what
  // NextBatch() emits. The Grace spill charge is settled inside, exactly
  // once.
  MAGICDB_RETURN_IF_ERROR(shared_->MergeOwnPartition(worker_, ctx, &groups_));
  aggregated_ = true;
  return Status::OK();
}

Status HashAggregateOp::NextBatch(RowBatch* out, bool* eof) {
  MAGICDB_CHECK(aggregated_);
  out->ResetForWrite(schema_.num_columns());
  if (shared_ != nullptr) out->EnableRanks();
  *eof = false;
  StagedGroup spilled;
  while (!out->full()) {
    // Out of core, the merged groups stream from the spill partitions.
    const StagedGroup* g = nullptr;
    if (agg_spill_ != nullptr) {
      bool has_group = false;
      MAGICDB_RETURN_IF_ERROR(agg_spill_->NextGroup(&spilled, &has_group));
      if (has_group) g = &spilled;
    } else if (next_group_ < groups_.size()) {
      g = &groups_[next_group_++];
    }
    if (g == nullptr) {
      *eof = true;
      break;
    }
    Tuple result = g->key;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      MAGICDB_ASSIGN_OR_RETURN(Value v, Finalize(aggs_[a], g->states[a]));
      result.push_back(std::move(v));
    }
    ctx_->counters().tuples_processed += 1;
    out->AppendTuple(std::move(result));
    if (out->has_ranks()) {
      out->pos().push_back(g->pos);
      out->sub().push_back(g->sub);
    }
  }
  if (agg_spill_ == nullptr && next_group_ >= groups_.size()) *eof = true;
  return Status::OK();
}

Status HashAggregateOp::Close() {
  groups_.Clear();
  agg_spill_.reset();
  if (ctx_ != nullptr) {
    ctx_->ReleaseMemory(charged_bytes_);
    charged_bytes_ = 0;
  }
  return Status::OK();
}

std::string HashAggregateOp::Describe() const {
  std::string s = "HashAggregate(groups=" + std::to_string(group_by_.size()) +
                  ", aggs=[";
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (i > 0) s += ", ";
    s += AggFuncName(aggs_[i].func);
  }
  return s + "])";
}

}  // namespace magicdb
