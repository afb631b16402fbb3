#include "src/parallel/parallel_exec.h"

#include <memory>
#include <utility>

#include "src/common/failpoint.h"
#include "src/exec/aggregate_op.h"
#include "src/exec/basic_ops.h"
#include "src/exec/join_ops.h"
#include "src/exec/scan_ops.h"
#include "src/parallel/morsel.h"
#include "src/parallel/partitioned_aggregate.h"
#include "src/parallel/partitioned_build.h"

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

/// Fallback outcome: nothing has executed; the caller runs replicas[0].
ParallelGang MakeFallback(std::vector<OpPtr>* replicas,
                          const ExecContext& proto,
                          std::string fallback_reason) {
  ParallelGang gang;
  gang.lanes.resize(1);
  gang.lanes[0].ctx = std::make_unique<ExecContext>();
  gang.lanes[0].ctx->InheritConfig(proto);
  gang.lanes[0].root = std::move((*replicas)[0]);
  gang.fallback_reason = std::move(fallback_reason);
  return gang;
}

}  // namespace

ParallelExecutor::ParallelExecutor(int dop) : dop_(dop < 1 ? 1 : dop) {}

std::string ParallelExecutor::UnsafeReason(const Operator& root) {
  ReplicaShape shape;
  return Analyze(const_cast<Operator*>(&root), &shape);
}

StatusOr<ParallelRunResult> ParallelExecutor::Run(
    std::vector<OpPtr> replicas, const ExecContext& proto) {
  MAGICDB_ASSIGN_OR_RETURN(ParallelGang gang,
                           Open(std::move(replicas), proto));
  ParallelRunResult result;
  result.used_dop = gang.used_dop;
  result.fallback_reason = std::move(gang.fallback_reason);
  ThreadPool* pool =
      gang.pool != nullptr ? gang.pool.get() : proto.shared_pool();
  std::vector<FilterJoinMeasured> measured;
  MAGICDB_ASSIGN_OR_RETURN(
      result.rows,
      DrainLanes(std::move(gang.lanes), pool, &result.counters, &measured));
  result.has_filter_join = !measured.empty();
  if (result.has_filter_join) result.filter_join_measured = measured[0];
  return result;
}

StatusOr<ParallelGang> ParallelExecutor::Open(std::vector<OpPtr> replicas,
                                              const ExecContext& proto) {
  const int64_t memory_budget_bytes = proto.memory_budget_bytes();
  if (replicas.empty()) {
    return Status::InvalidArgument("ParallelExecutor::Open: no plan replicas");
  }
  if (proto.cancel_token() != nullptr) {
    // A query whose deadline expired while queued for admission must not
    // start executing at all.
    MAGICDB_RETURN_IF_ERROR(proto.cancel_token()->Check());
  }
  if (dop_ == 1) {
    return MakeFallback(&replicas, proto, "dop=1");
  }

  // Analyze every replica; verify the trees really are isomorphic (the
  // optimizer is deterministic, so a mismatch is a bug upstream — but a
  // wrong answer would be worse than a sequential one, so verify).
  std::vector<ReplicaShape> shapes(replicas.size());
  std::string reason = Analyze(replicas[0].get(), &shapes[0]);
  if (!reason.empty()) {
    return MakeFallback(&replicas, proto, reason);
  }
  if (static_cast<int>(replicas.size()) != dop_) {
    return MakeFallback(&replicas, proto, "replica count does not match dop");
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
      return MakeFallback(&replicas, proto,
                          "plan replicas are not isomorphic");
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
  // or the gang (and the query) would hang.
  auto abort_all = [&](const Status& st) {
    for (auto& b : shared_builds) b->Abort(st);
    if (shared_fj != nullptr) shared_fj->Abort(st);
    if (shared_agg != nullptr) shared_agg->Abort(st);
  };

  ParallelGang gang;
  gang.used_dop = dop_;
  gang.lanes.resize(static_cast<size_t>(dop_));
  for (int w = 0; w < dop_; ++w) {
    StreamLane& lane = gang.lanes[static_cast<size_t>(w)];
    lane.ctx = std::make_unique<ExecContext>();
    lane.ctx->InheritConfig(proto);
    lane.root = std::move(replicas[static_cast<size_t>(w)]);
    lane.opened = true;
  }
  // Every peer wait — the shared build's barrier, the aggregate's merge,
  // the Filter Join's production, dedup and inner — lives inside Open, so
  // only this phase runs as a gang.
  const auto worker_fn = [&](int w) -> Status {
    // Gang-startup fault site. It lives here rather than in
    // ThreadPool::RunGang so a fired injection still runs the abort path:
    // peers that already entered a phase barrier must be released.
    Status fp = MAGICDB_FAILPOINT_EVAL("parallel.gang.start");
    if (!fp.ok()) {
      abort_all(fp);
      return fp;
    }
    StreamLane& lane = gang.lanes[static_cast<size_t>(w)];
    Status st = lane.root->Open(lane.ctx.get());
    if (!st.ok()) abort_all(st);
    return st;
  };
  // On the service-wide pool, admission guarantees the gang fits (see
  // ExecContext::shared_pool); a private pool of exactly dop_ workers with
  // nothing else queued meets RunGang's deadlock contract trivially.
  ThreadPool* pool = proto.shared_pool();
  if (pool == nullptr) {
    gang.pool = std::make_unique<ThreadPool>(dop_);
    pool = gang.pool.get();
  }
  const std::vector<Status> statuses = pool->RunGang(dop_, worker_fn);
  for (const Status& st : statuses) {
    // Prefer a non-abort status if one exists; all failures here share the
    // same root cause anyway (abort propagates the first error).
    if (!st.ok()) return st;
  }
  return gang;
}

}  // namespace magicdb
