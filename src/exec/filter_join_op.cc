#include "src/exec/filter_join_op.h"

#include "src/common/failpoint.h"
#include "src/common/logging.h"

namespace magicdb {

const char* FilterSetImplName(FilterSetImpl impl) {
  switch (impl) {
    case FilterSetImpl::kExact:
      return "exact";
    case FilterSetImpl::kBloom:
      return "bloom";
  }
  return "?";
}

// ----- FilterProbeOp -----

FilterProbeOp::FilterProbeOp(OpPtr child, std::string binding_id,
                             std::vector<int> key_indexes)
    : Operator(child->schema()),
      child_(std::move(child)),
      binding_id_(std::move(binding_id)),
      key_indexes_(std::move(key_indexes)) {}

Status FilterProbeOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  MAGICDB_ASSIGN_OR_RETURN(binding_, ctx->GetFilterSet(binding_id_));
  return child_->Open(ctx);
}

Status FilterProbeOp::NextBatch(RowBatch* out, bool* eof) {
  while (true) {
    MAGICDB_RETURN_IF_ERROR(child_->NextBatch(out, eof));
    const int32_t n = out->num_rows();
    ctx_->counters().hash_operations += n;
    std::vector<uint8_t> keep;
    keep.reserve(static_cast<size_t>(n));
    for (int32_t r = 0; r < n; ++r) {
      keep.push_back(binding_->MayContain(*out, r, key_indexes_));
    }
    out->KeepRows(keep);
    // Never hand an empty non-final batch upward; keep pulling instead.
    if (out->num_rows() > 0 || *eof) return Status::OK();
  }
}

Status FilterProbeOp::Close() { return child_->Close(); }

std::string FilterProbeOp::Describe() const {
  return "FilterProbe(" + binding_id_ + ")";
}

// ----- FilterJoinOp -----

FilterJoinOp::FilterJoinOp(OpPtr outer, OpPtr inner, std::string binding_id,
                           std::vector<int> outer_key_indexes,
                           std::vector<int> inner_key_indexes,
                           ExprPtr residual, FilterSetImpl impl,
                           int ship_filter_to_site, double bloom_bits_per_key,
                           std::vector<int> filter_key_positions)
    : Operator(outer->schema().Concat(inner->schema())),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      binding_id_(std::move(binding_id)),
      outer_keys_(std::move(outer_key_indexes)),
      inner_keys_(std::move(inner_key_indexes)),
      residual_(std::move(residual)),
      impl_(impl),
      ship_filter_to_site_(ship_filter_to_site),
      bloom_bits_per_key_(bloom_bits_per_key) {
  MAGICDB_CHECK(outer_keys_.size() == inner_keys_.size());
  MAGICDB_CHECK(!outer_keys_.empty());
  if (filter_key_positions.empty()) {
    filter_outer_keys_ = outer_keys_;
  } else {
    for (int pos : filter_key_positions) {
      MAGICDB_CHECK(pos >= 0 && pos < static_cast<int>(outer_keys_.size()));
      filter_outer_keys_.push_back(outer_keys_[pos]);
    }
  }
}

Status FilterJoinOp::Open(ExecContext* ctx) {
  if (shared_fj_ != nullptr) return OpenParallel(ctx);
  ctx_ = ctx;
  production_.clear();
  build_.Clear();
  outer_pos_ = 0;
  probe_entry_ = HashTable<Tuple>::kEnd;
  measured_ = FilterJoinMeasured();
  charged_bytes_ = 0;
  double phase_start = ctx->counters().TotalCost();

  // Phase 1: materialize the production set P (= the outer, Limitation 2).
  MAGICDB_RETURN_IF_ERROR(outer_->Open(ctx));
  MAGICDB_RETURN_IF_ERROR(DrainRows(outer_.get(), ctx, [&](Tuple t, int64_t) {
    const int64_t row_bytes = TupleByteWidth(t);
    MAGICDB_RETURN_IF_ERROR(ctx->ChargeMemory(row_bytes));
    charged_bytes_ += row_bytes;
    production_.push_back(std::move(t));
    return Status::OK();
  }));
  MAGICDB_RETURN_IF_ERROR(outer_->Close());
  const int64_t prod_width = outer_->schema().TupleWidthBytes();
  production_rows_per_page_ = RowsPerPage(prod_width);
  // ProductionCost_P: write the spool.
  ctx->counters().pages_written +=
      PagesForRows(static_cast<int64_t>(production_.size()), prod_width);

  measured_.production = ctx->counters().TotalCost() - phase_start;
  phase_start = ctx->counters().TotalCost();

  // Phase 2: ProjCost_F — distinct-project the filter key columns into F
  // (a subset of the join keys when a partial SIPS was chosen). The
  // table's rows are F's keys in first-seen order.
  HashTable<Tuple> distinct;
  for (const Tuple& row : production_) {
    if (TupleHasNullAt(row, filter_outer_keys_)) continue;
    ctx->counters().hash_operations += 1;
    Tuple key = ProjectTuple(row, filter_outer_keys_);
    distinct.FindOrInsert(
        HashTuple(key),
        [&](const Tuple& k) { return CompareTuples(k, key) == 0; },
        [&] { return std::move(key); });
  }
  last_filter_set_size_ = static_cast<int64_t>(distinct.size());
  measured_.projection = ctx->counters().TotalCost() - phase_start;
  phase_start = ctx->counters().TotalCost();

  PublishFilterSet(ctx, distinct.TakeValues());
  measured_.avail_filter = ctx->counters().TotalCost() - phase_start;
  phase_start = ctx->counters().TotalCost();

  MAGICDB_RETURN_IF_ERROR(BuildInner(ctx, &build_));
  measured_.filter_inner = ctx->counters().TotalCost() - phase_start;
  return Status::OK();
}

void FilterJoinOp::PublishFilterSet(ExecContext* ctx, std::vector<Tuple> keys) {
  Schema key_schema;
  for (int i : filter_outer_keys_) {
    key_schema.AddColumn(outer_->schema().column(i));
  }
  std::shared_ptr<FilterSetBinding> binding;
  if (impl_ == FilterSetImpl::kBloom) {
    binding = FilterSetBinding::Bloom(key_schema, keys, bloom_bits_per_key_);
  } else {
    binding = FilterSetBinding::Exact(key_schema, std::move(keys));
  }
  // AvailCost_F: materialize F; ship it if the inner computes remotely.
  ctx->counters().pages_written += PagesForRows(
      binding->NumKeys() > 0
          ? (impl_ == FilterSetImpl::kBloom ? 1 : binding->NumKeys())
          : 0,
      impl_ == FilterSetImpl::kBloom ? CostConstants::kPageSizeBytes
                                     : key_schema.TupleWidthBytes());
  if (ship_filter_to_site_ > 0) {
    ctx->counters().messages_sent += 1;
    ctx->counters().bytes_shipped += binding->SizeBytes();
  }
  ctx->BindFilterSet(binding_id_, std::move(binding));
}

Status FilterJoinOp::BuildInner(ExecContext* ctx, HashTable<Tuple>* table) {
  // FilterCost_{R_k}: evaluate the restricted inner and build the
  // final-join hash table on it (AvailCost_{R_k'} is pipelined => only hash
  // work here).
  MAGICDB_RETURN_IF_ERROR(inner_->Open(ctx));
  int64_t build_bytes = 0;
  int64_t inner_rows = 0;
  MAGICDB_RETURN_IF_ERROR(DrainRows(inner_.get(), ctx, [&](Tuple t, int64_t) {
    ++inner_rows;
    if (TupleHasNullAt(t, inner_keys_)) return Status::OK();
    MAGICDB_FAILPOINT("exec.filter_join.build");
    const int64_t row_bytes = TupleByteWidth(t);
    MAGICDB_RETURN_IF_ERROR(ctx->ChargeMemory(row_bytes));
    charged_bytes_ += row_bytes;
    ctx->counters().hash_operations += 1;
    build_bytes += row_bytes;
    const uint64_t hash = HashTupleColumns(t, inner_keys_);
    table->Append(hash, std::move(t));
    return Status::OK();
  }));
  MAGICDB_RETURN_IF_ERROR(inner_->Close());
  if (!feedback_key_.empty()) {
    MAGICDB_RETURN_IF_ERROR(ctx->RecordCardinality(
        feedback_key_, "filter_join_build", feedback_est_rows_,
        static_cast<double>(inner_rows), /*exact=*/false,
        /*can_trigger=*/false));
  }
  // R_k' over budget: Grace partitioning pass over R_k' and (via the spool
  // that already exists) the production set.
  if (build_bytes > ctx->memory_budget_bytes()) {
    const int64_t build_pages =
        (build_bytes + CostConstants::kPageSizeBytes - 1) /
        CostConstants::kPageSizeBytes;
    ctx->counters().pages_written += build_pages;
    ctx->counters().pages_read += build_pages;
  }
  return Status::OK();
}

// Parallel Filter Join, one call per plan replica. Counter discipline: the
// morsel-driven production drain and the final-join probe charge per row on
// whichever worker handled the row (every row handled exactly once);
// whole-relation charges (spool pages, AvailCost_F, the restricted inner)
// are the coordinator's, charged once. Merged worker counters therefore
// equal a single-threaded execution's counters exactly.
Status FilterJoinOp::OpenParallel(ExecContext* ctx) {
  ctx_ = ctx;
  production_.clear();
  production_pos_.clear();
  build_.Clear();
  outer_pos_ = 0;
  probe_entry_ = HashTable<Tuple>::kEnd;
  measured_ = FilterJoinMeasured();
  last_filter_set_size_ = 0;
  charged_bytes_ = 0;
  double phase_start = ctx->counters().TotalCost();

  // Phase 1: drain this worker's slice of the outer into P_w, staging the
  // filter keys into the hash-routed partitions as they stream by (the
  // ProjCost_F hash op is charged here, once per non-null row globally).
  // Each row keeps the driving position its batch carries.
  MAGICDB_RETURN_IF_ERROR(outer_->Open(ctx));
  MAGICDB_RETURN_IF_ERROR(DrainRows(outer_.get(), ctx, [&](Tuple t,
                                                           int64_t pos) {
    if (pos < 0) {
      return Status::Internal(
          "parallel Filter Join requires rank-tagged batches");
    }
    const int64_t row_bytes = TupleByteWidth(t);
    MAGICDB_RETURN_IF_ERROR(ctx->ChargeMemory(row_bytes));
    charged_bytes_ += row_bytes;
    if (!TupleHasNullAt(t, filter_outer_keys_)) {
      ctx->counters().hash_operations += 1;
      Tuple key = ProjectTuple(t, filter_outer_keys_);
      // Hash before the call: argument evaluation order is unspecified, and
      // the by-value parameter would otherwise race the move against the
      // hash.
      const uint64_t key_hash = HashTuple(key);
      shared_fj_->StageKey(worker_, pos, key_hash, std::move(key));
    }
    production_pos_.push_back(pos);
    production_.push_back(std::move(t));
    return Status::OK();
  }));
  MAGICDB_RETURN_IF_ERROR(outer_->Close());
  const int64_t prod_width = outer_->schema().TupleWidthBytes();
  production_rows_per_page_ = RowsPerPage(prod_width);
  shared_fj_->AddProductionRows(static_cast<int64_t>(production_.size()),
                                static_cast<int64_t>(production_.size()) *
                                    prod_width);
  MAGICDB_RETURN_IF_ERROR(shared_fj_->StagingDone());
  measured_.production = ctx->counters().TotalCost() - phase_start;
  phase_start = ctx->counters().TotalCost();

  // Phase 2: each worker dedups the one key partition it owns.
  MAGICDB_RETURN_IF_ERROR(shared_fj_->DedupPartition(worker_));
  measured_.projection = ctx->counters().TotalCost() - phase_start;
  phase_start = ctx->counters().TotalCost();

  if (worker_ == 0) {
    // Coordinator: whole-relation charges and the restricted inner.
    const int64_t total_rows = shared_fj_->total_production_rows();
    // ProductionCost_P: spool write of the full production set.
    ctx->counters().pages_written += PagesForRows(total_rows, prod_width);
    measured_.production += ctx->counters().TotalCost() - phase_start;
    phase_start = ctx->counters().TotalCost();

    std::vector<Tuple> keys = shared_fj_->TakeOrderedKeys();
    last_filter_set_size_ = static_cast<int64_t>(keys.size());
    PublishFilterSet(ctx, std::move(keys));
    measured_.avail_filter = ctx->counters().TotalCost() - phase_start;
    phase_start = ctx->counters().TotalCost();

    // Phase 3: restricted inner, built into the shared final-join table.
    Status inner_status = BuildInner(ctx, shared_fj_->mutable_inner_build());
    if (!inner_status.ok()) {
      shared_fj_->Abort(inner_status);
      return inner_status;
    }
    measured_.filter_inner = ctx->counters().TotalCost() - phase_start;
    phase_start = ctx->counters().TotalCost();
    // Spool rescan of P for the final join, charged centrally (the probes
    // below walk worker-local slices whose per-worker page rounding would
    // otherwise overcharge).
    ctx->counters().pages_read += PagesForRows(total_rows, prod_width);
    measured_.final_join += ctx->counters().TotalCost() - phase_start;
  }
  return shared_fj_->InnerBarrier();
}

Status FilterJoinOp::NextBatch(RowBatch* out, bool* eof) {
  // Each call's charges, the residual's included, are attributed to the
  // final-join phase.
  const double start = ctx_->counters().TotalCost();
  *eof = false;
  MAGICDB_RETURN_IF_ERROR(
      residual_.FillAndKeep(ctx_, out, eof, [&] { return Probe(out, eof); }));
  measured_.final_join += ctx_->counters().TotalCost() - start;
  return Status::OK();
}

Status FilterJoinOp::Probe(RowBatch* out, bool* eof) {
  out->ResetForWrite(schema_.num_columns());
  if (shared_fj_ != nullptr) out->EnableRanks();
  const auto& table =
      shared_fj_ != nullptr ? shared_fj_->inner_build() : build_;
  while (!out->full()) {
    if (probe_entry_ == HashTable<Tuple>::kEnd) {
      if (outer_pos_ >= production_.size()) {
        *eof = true;
        break;
      }
      if (shared_fj_ == nullptr &&
          static_cast<int64_t>(outer_pos_) % production_rows_per_page_ == 0) {
        // Rescan of the spooled P. In parallel mode the coordinator charges
        // these pages centrally from the global row count (per-worker slice
        // rounding would overcharge), so workers skip the per-row charge.
        ctx_->counters().pages_read += 1;
      }
      const Tuple& outer_row = production_[outer_pos_++];
      ctx_->counters().tuples_processed += 1;
      if (!TupleHasNullAt(outer_row, outer_keys_)) {
        ctx_->counters().hash_operations += 1;
        probe_entry_ = table.First(HashTupleColumns(outer_row, outer_keys_));
      }
    }
    // The production row being probed; its matches copy it in place.
    const Tuple& outer_row = production_[outer_pos_ - 1];
    while (probe_entry_ != HashTable<Tuple>::kEnd && !out->full()) {
      const Tuple& inner_row = table[probe_entry_];
      probe_entry_ = table.Next(probe_entry_);
      if (CompareTupleColumns(outer_row, inner_row, outer_keys_,
                              inner_keys_) != 0) {
        continue;
      }
      out->AppendJoined(outer_row, inner_row);
      if (out->has_ranks()) {
        out->pos().push_back(production_pos_[outer_pos_ - 1]);
        out->sub().push_back(0);
      }
    }
  }
  return Status::OK();
}

Status FilterJoinOp::Close() {
  if (ctx_ != nullptr) {
    ctx_->UnbindFilterSet(binding_id_);
    ctx_->ReleaseMemory(charged_bytes_);
    charged_bytes_ = 0;
  }
  production_.clear();
  production_pos_.clear();
  build_.Clear();
  return Status::OK();
}

void CollectFilterJoinMeasured(const Operator& root,
                               std::vector<FilterJoinMeasured>* out) {
  if (const auto* fj = dynamic_cast<const FilterJoinOp*>(&root)) {
    out->push_back(fj->measured());
  }
  for (const Operator* child : root.Children()) {
    CollectFilterJoinMeasured(*child, out);
  }
}

std::string FilterJoinOp::Describe() const {
  std::string s = "FilterJoin(impl=" + std::string(FilterSetImplName(impl_));
  if (ship_filter_to_site_ > 0) {
    s += ", ship_to_site=" + std::to_string(ship_filter_to_site_);
  }
  return s + ")";
}

}  // namespace magicdb
