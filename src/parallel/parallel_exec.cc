#include "src/parallel/parallel_exec.h"

#include <memory>
#include <utility>

#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/exec/aggregate_op.h"
#include "src/exec/basic_ops.h"
#include "src/exec/gather_op.h"
#include "src/exec/join_ops.h"
#include "src/exec/scan_ops.h"
#include "src/parallel/morsel.h"
#include "src/parallel/partitioned_aggregate.h"
#include "src/parallel/partitioned_build.h"
#include "src/parallel/thread_pool.h"
#include "src/spill/sorted_runs.h"

namespace magicdb {

namespace {

// The executor owns the replica trees, so shedding the const that
// Children() adds for printing purposes is sound.
Operator* Child(const Operator* op, size_t i) {
  return const_cast<Operator*>(op->Children()[i]);
}

/// The parallel-relevant sites of one plan replica, in the fixed shape
/// ParallelExecutor documents. hash_joins/hash_inner_scans are parallel
/// arrays in top-down (probe-order) encounter order.
struct ReplicaShape {
  SeqScanOp* driving_scan = nullptr;
  HashAggregateOp* aggregate = nullptr;
  FilterJoinOp* filter_join = nullptr;
  std::vector<HashJoinOp*> hash_joins;
  std::vector<SeqScanOp*> hash_inner_scans;
};

/// Walks a hash join's build side: [Project|Filter]* -> SeqScan.
SeqScanOp* FindInnerScan(Operator* node) {
  while (true) {
    if (auto* scan = dynamic_cast<SeqScanOp*>(node)) return scan;
    if (dynamic_cast<FilterOp*>(node) != nullptr ||
        dynamic_cast<ProjectOp*>(node) != nullptr) {
      node = Child(node, 0);
      continue;
    }
    return nullptr;
  }
}

/// Classifies `root` against the parallel-safe shape. Returns the empty
/// string and fills `shape` on success, else the reason the plan must run
/// sequentially.
std::string Analyze(Operator* root, ReplicaShape* shape) {
  Operator* node = root;
  while (true) {
    if (dynamic_cast<FilterOp*>(node) != nullptr ||
        dynamic_cast<ProjectOp*>(node) != nullptr) {
      node = Child(node, 0);
      continue;
    }
    if (auto* agg = dynamic_cast<HashAggregateOp*>(node)) {
      // One aggregation, and it must sit above any joins: the aggregate
      // consumes the whole driving pipeline and re-ranks output by group
      // first-seen order, so a join probing *aggregated* rows would have no
      // morsel positions to rank by.
      if (shape->aggregate != nullptr) {
        return "more than one aggregation in the pipeline";
      }
      if (shape->filter_join != nullptr || !shape->hash_joins.empty()) {
        return "aggregation below a join in the driving chain";
      }
      shape->aggregate = agg;
      node = Child(node, 0);
      continue;
    }
    if (auto* fj = dynamic_cast<FilterJoinOp*>(node)) {
      // One Filter Join anywhere along the driving chain. Its probe phase
      // rescans the materialized production set, which makes it the chain's
      // position provider; a second one would fight over that role.
      if (shape->filter_join != nullptr) {
        return "more than one FilterJoin in the driving chain";
      }
      shape->filter_join = fj;
      node = Child(node, 0);  // descend the outer / production side
      continue;
    }
    if (auto* hj = dynamic_cast<HashJoinOp*>(node)) {
      SeqScanOp* inner_scan = FindInnerScan(Child(node, 1));
      if (inner_scan == nullptr) {
        return "hash-join build side is not a base-table scan chain";
      }
      shape->hash_joins.push_back(hj);
      shape->hash_inner_scans.push_back(inner_scan);
      node = Child(node, 0);
      continue;
    }
    if (auto* scan = dynamic_cast<SeqScanOp*>(node)) {
      shape->driving_scan = scan;
      return "";
    }
    return "unsupported operator in pipeline: " + node->Describe();
  }
}

std::shared_ptr<MorselSource> MakeSourceFor(const SeqScanOp* scan) {
  const Table* t = scan->table();
  return std::make_shared<MorselSource>(
      t->NumRows(), RowsPerPage(t->schema().TupleWidthBytes()));
}

/// Opens, drains, and closes one replica, staging every output row under
/// the rank tag its batch carries: the aggregate's group first-seen
/// (pos, sub) when the pipeline aggregates, else the global driving-scan
/// position of the row's production row.
Status RunPipeline(Operator* root, ExecContext* ctx,
                   SortedRun<GatherRow>* run) {
  MAGICDB_RETURN_IF_ERROR(root->Open(ctx));
  int64_t staged_charged = 0;
  // The worker's gather spill file, created on the first flush with charging
  // disabled: gather staging is bookkeeping, not query work.
  RunWriter<GatherCodec> spill(ctx->spill_manager().get(), "gather",
                               GatherCodec(), /*charge_cost=*/false);
  // Moves the staged rows to the spill file. Arrival order is rank order,
  // so the file stays sorted.
  auto flush = [&]() -> Status {
    for (const GatherRow& r : run->rows) {
      MAGICDB_RETURN_IF_ERROR(spill.Append(r, ctx));
    }
    run->rows.clear();
    return Status::OK();
  };
  // Releases the staged-row charges on an error unwind; a successful drain
  // keeps them charged until the gather stream is consumed.
  auto fail = [&](Status st) {
    ctx->ReleaseMemory(staged_charged);
    return st;
  };
  // Admits one output row into the gather run under the query's memory
  // governor, flushing the staged tail to the gather spill file on a breach.
  auto stage = [&](Tuple t, int64_t pos, int64_t sub) -> Status {
    if (ctx->memory_tracker() != nullptr) {
      // Staged gather rows live until the merged stream is drained, so
      // they count against the query's limit like any retained state.
      const int64_t row_bytes = TupleByteWidth(t);
      Status charge = ctx->ChargeMemory(row_bytes);
      if (!charge.ok()) {
        if (charge.code() != StatusCode::kResourceExhausted ||
            !ctx->spill_enabled()) {
          return charge;
        }
        // Flush the staged rows to this worker's gather spill file and
        // release their memory; the tail restarts empty.
        MAGICDB_RETURN_IF_ERROR(flush());
        ctx->ReleaseMemory(staged_charged);
        staged_charged = 0;
        MAGICDB_RETURN_IF_ERROR(ctx->ChargeMemory(row_bytes));
      }
      staged_charged += row_bytes;
    }
    run->rows.push_back({pos, sub, std::move(t)});
    return Status::OK();
  };
  Status st = DrainBatches(root, ctx, [&](RowBatch* batch) {
    const int32_t n = batch->num_rows();
    if (n > 0 && !batch->has_ranks()) {
      return Status::Internal("parallel pipeline batch lacks rank tags");
    }
    Tuple t;
    for (int32_t r = 0; r < n; ++r) {
      batch->MoveRowToTuple(r, &t);
      MAGICDB_RETURN_IF_ERROR(stage(std::move(t),
                                    batch->pos()[static_cast<size_t>(r)],
                                    batch->sub()[static_cast<size_t>(r)]));
    }
    ctx->NoteProgress(n + 1);
    return Status::OK();
  });
  if (!st.ok()) return fail(std::move(st));
  if (spill.started()) {
    // Once a run has spilled, flush its in-memory tail too and drop the
    // staged charges: a spilled run must not pin staged rows against the
    // tracker while the gather stream drains, because the result sink
    // charges its queued batches against the same limit during streaming.
    Status fs = flush();
    if (!fs.ok()) return fail(std::move(fs));
    ctx->ReleaseMemory(staged_charged);
    staged_charged = 0;
    StatusOr<std::unique_ptr<SpillFile>> file = spill.FinishWrite(ctx);
    if (!file.ok()) return fail(file.status());
    run->file = std::move(*file);
    // Informational: lets the service see that this query spilled (page
    // I/O is deliberately not charged — see `spill` above).
    ctx->counters().spill_bytes_written += run->file->bytes();
  }
  Status cs = root->Close();
  if (!cs.ok()) return fail(std::move(cs));
  return Status::OK();
}

/// Fallback outcome: nothing has executed; the caller pumps replicas[0].
StagedStream MakeFallback(std::vector<OpPtr>* replicas,
                          std::string fallback_reason) {
  StagedStream staged;
  staged.stream_root = std::move((*replicas)[0]);
  staged.staged = false;
  staged.used_dop = 1;
  staged.fallback_reason = std::move(fallback_reason);
  return staged;
}

}  // namespace

ParallelExecutor::ParallelExecutor(int dop) : dop_(dop < 1 ? 1 : dop) {}

std::string ParallelExecutor::UnsafeReason(const Operator& root) {
  ReplicaShape shape;
  return Analyze(const_cast<Operator*>(&root), &shape);
}

StatusOr<ParallelRunResult> ParallelExecutor::Run(
    std::vector<OpPtr> replicas, const ExecContext& proto) {
  MAGICDB_ASSIGN_OR_RETURN(StagedStream staged,
                           RunStaged(std::move(replicas), proto));
  ParallelRunResult result;
  result.used_dop = staged.used_dop;
  result.fallback_reason = std::move(staged.fallback_reason);
  ExecContext ctx;
  if (!staged.staged) {
    // Fallback: this drain IS the execution.
    ctx.InheritConfig(proto);
  }
  MAGICDB_ASSIGN_OR_RETURN(result.rows,
                           ExecuteToVector(staged.stream_root.get(), &ctx));
  if (staged.staged) {
    MAGICDB_CHECK(ctx.counters().TotalCost() == 0.0);  // GatherOp is free
    result.counters = staged.counters;
    result.has_filter_join = staged.has_filter_join;
    result.filter_join_measured = staged.filter_join_measured;
  } else {
    result.counters = ctx.counters();
    if (const FilterJoinOp* fj = FindFilterJoin(*staged.stream_root)) {
      result.has_filter_join = true;
      result.filter_join_measured = fj->measured();
    }
  }
  return result;
}

StatusOr<StagedStream> ParallelExecutor::RunStaged(
    std::vector<OpPtr> replicas, const ExecContext& proto) {
  const int64_t memory_budget_bytes = proto.memory_budget_bytes();
  if (replicas.empty()) {
    return Status::InvalidArgument("ParallelExecutor::Run: no plan replicas");
  }
  if (proto.cancel_token() != nullptr) {
    // A query whose deadline expired while queued for admission must not
    // start executing at all.
    MAGICDB_RETURN_IF_ERROR(proto.cancel_token()->Check());
  }
  if (dop_ == 1) {
    return MakeFallback(&replicas, "dop=1");
  }

  // Analyze every replica; verify the trees really are isomorphic (the
  // optimizer is deterministic, so a mismatch is a bug upstream — but a
  // wrong answer would be worse than a sequential one, so verify).
  std::vector<ReplicaShape> shapes(replicas.size());
  std::string reason = Analyze(replicas[0].get(), &shapes[0]);
  if (!reason.empty()) {
    return MakeFallback(&replicas, reason);
  }
  if (static_cast<int>(replicas.size()) != dop_) {
    return MakeFallback(&replicas, "replica count does not match dop");
  }
  const std::string tree0 = replicas[0]->TreeString();
  for (size_t w = 1; w < replicas.size(); ++w) {
    reason = Analyze(replicas[w].get(), &shapes[w]);
    bool same = reason.empty() && replicas[w]->TreeString() == tree0 &&
                shapes[w].hash_joins.size() == shapes[0].hash_joins.size() &&
                (shapes[w].filter_join != nullptr) ==
                    (shapes[0].filter_join != nullptr) &&
                (shapes[w].aggregate != nullptr) ==
                    (shapes[0].aggregate != nullptr) &&
                shapes[w].driving_scan->table() ==
                    shapes[0].driving_scan->table();
    for (size_t j = 0; same && j < shapes[0].hash_inner_scans.size(); ++j) {
      same = shapes[w].hash_inner_scans[j]->table() ==
             shapes[0].hash_inner_scans[j]->table();
    }
    if (!same) {
      return MakeFallback(&replicas, "plan replicas are not isomorphic");
    }
  }

  // Shared state, one object per parallel site, wired into every replica.
  auto driving_source = MakeSourceFor(shapes[0].driving_scan);
  std::vector<std::shared_ptr<MorselSource>> inner_sources;
  std::vector<std::shared_ptr<SharedHashBuild>> shared_builds;
  for (const SeqScanOp* scan : shapes[0].hash_inner_scans) {
    inner_sources.push_back(MakeSourceFor(scan));
    shared_builds.push_back(
        std::make_shared<SharedHashBuild>(dop_, memory_budget_bytes));
  }
  std::shared_ptr<SharedFilterJoin> shared_fj;
  if (shapes[0].filter_join != nullptr) {
    shared_fj = std::make_shared<SharedFilterJoin>(dop_);
  }
  std::shared_ptr<SharedAggregate> shared_agg;
  if (shapes[0].aggregate != nullptr) {
    shared_agg = std::make_shared<SharedAggregate>(dop_, memory_budget_bytes);
  }
  for (int w = 0; w < dop_; ++w) {
    shapes[w].driving_scan->AttachMorselSource(driving_source);
    for (size_t j = 0; j < shapes[w].hash_joins.size(); ++j) {
      shapes[w].hash_inner_scans[j]->AttachMorselSource(inner_sources[j]);
      shapes[w].hash_joins[j]->EnableSharedBuild(shared_builds[j], w);
    }
    if (shared_fj != nullptr) {
      shapes[w].filter_join->EnableParallel(shared_fj, w);
    }
    if (shared_agg != nullptr) {
      shapes[w].aggregate->EnableParallel(shared_agg, w);
    }
  }

  // A failing worker must release every peer blocked on a phase barrier,
  // or RunOnAllWorkers (and the query) would hang.
  auto abort_all = [&](const Status& st) {
    for (auto& b : shared_builds) b->Abort(st);
    if (shared_fj != nullptr) shared_fj->Abort(st);
    if (shared_agg != nullptr) shared_agg->Abort(st);
  };

  std::vector<ExecContext> contexts(dop_);
  std::vector<SortedRun<GatherRow>> runs(dop_);
  const auto worker_fn = [&](int w) -> Status {
    // Gang-startup fault site. It lives here rather than in
    // ThreadPool::RunGang so a fired injection still runs the abort path:
    // peers that already entered a phase barrier must be released.
    Status fp = MAGICDB_FAILPOINT_EVAL("parallel.gang.start");
    if (!fp.ok()) {
      abort_all(fp);
      return fp;
    }
    contexts[w].InheritConfig(proto);
    Status st = RunPipeline(replicas[w].get(), &contexts[w], &runs[w]);
    if (!st.ok()) abort_all(st);
    return st;
  };
  std::vector<Status> statuses;
  if (proto.shared_pool() != nullptr) {
    // Multiplexed mode: the gang shares the service-wide pool with other
    // queries' tasks. Admission guarantees the gang fits (see
    // ExecContext::shared_pool).
    statuses = proto.shared_pool()->RunGang(dop_, worker_fn);
  } else {
    ThreadPool pool(dop_);
    statuses = pool.RunOnAllWorkers(worker_fn);
  }
  for (const Status& st : statuses) {
    // Prefer a non-abort status if one exists; all failures here share the
    // same root cause anyway (abort propagates the first error).
    if (!st.ok()) return st;
  }

  StagedStream staged;
  staged.staged = true;
  staged.used_dop = dop_;
  for (int w = 0; w < dop_; ++w) {
    contexts[w].counters().AssertNonNegative();
    staged.counters += contexts[w].counters();
    if (shapes[w].filter_join != nullptr) {
      staged.has_filter_join = true;
      const FilterJoinMeasured& m = shapes[w].filter_join->measured();
      staged.filter_join_measured.production += m.production;
      staged.filter_join_measured.projection += m.projection;
      staged.filter_join_measured.avail_filter += m.avail_filter;
      staged.filter_join_measured.filter_inner += m.filter_inner;
      staged.filter_join_measured.final_join += m.final_join;
    }
  }

  // Observation-only ledger entry for the staged gather: the exact output
  // row count of the parallel pipeline (all workers, spilled prefixes
  // included). It never triggers a re-optimization — the pipeline has
  // already run to completion — but it rides along in the query's feedback
  // for diagnostics.
  if (proto.cardinality_feedback() != nullptr) {
    int64_t staged_rows = 0;
    for (const SortedRun<GatherRow>& r : runs) staged_rows += r.size();
    (void)contexts[0].RecordCardinality(
        "gather:" + shapes[0].driving_scan->Describe(), "staged_gather",
        /*estimated=*/0.0, static_cast<double>(staged_rows), /*exact=*/true,
        /*can_trigger=*/false);
  }

  // The GatherRows own their tuples outright, so the merge outlives the
  // replica trees it was produced by (destroyed when `replicas` goes out of
  // scope here).
  staged.stream_root =
      std::make_unique<GatherOp>(replicas[0]->schema(), std::move(runs));
  return staged;
}

}  // namespace magicdb
