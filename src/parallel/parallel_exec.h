#ifndef MAGICDB_PARALLEL_PARALLEL_EXEC_H_
#define MAGICDB_PARALLEL_PARALLEL_EXEC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/cost_counters.h"
#include "src/common/statusor.h"
#include "src/exec/filter_join_op.h"
#include "src/exec/operator.h"
#include "src/exec/stream_pump.h"
#include "src/parallel/thread_pool.h"

namespace magicdb {

/// Outcome of one (possibly parallel) pipeline execution.
struct ParallelRunResult {
  std::vector<Tuple> rows;

  /// Per-worker counters merged at pipeline close. The charging protocol
  /// (every row's work charged by exactly one worker, whole-relation
  /// charges by exactly one designated worker) makes these identical to a
  /// single-threaded execution's counters at any DoP.
  CostCounters counters;

  /// Degree of parallelism actually used (1 after a fallback).
  int used_dop = 1;

  /// Why the plan ran single-threaded; empty when it ran parallel.
  std::string fallback_reason;

  /// Summed Table-1 phase measurements of the plan's Filter Join, if any.
  bool has_filter_join = false;
  FilterJoinMeasured filter_join_measured;
};

/// The outcome of ParallelExecutor::Open. When the gang ran (`used_dop` >
/// 1), `lanes` holds one opened replica per worker under its own context:
/// every breaker and peer barrier has completed, so the lanes never wait on
/// each other and are pumped independently (StreamPump, DrainLanes). After
/// a fallback it holds the untouched first replica alone, unopened.
struct ParallelGang {
  std::vector<StreamLane> lanes;
  int used_dop = 1;
  /// Why the plan runs single-threaded; empty when it runs parallel.
  std::string fallback_reason;
  /// The pool the Open phase ran on when the prototype has no shared pool,
  /// for the lanes to run on too; null otherwise.
  std::unique_ptr<ThreadPool> pool;
};

/// Morsel-driven parallel executor. Takes `dop` isomorphic plan replicas
/// (the optimizer is deterministic, so optimizing the same query `dop`
/// times yields identical trees), wires shared state into each — a
/// MorselSource per scanned base table, a SharedHashBuild per hash join, a
/// SharedFilterJoin for the (at most one) topmost Filter Join, a
/// SharedAggregate for the (at most one) aggregation above the joins — and
/// opens one replica per worker on a work-stealing pool. Output rows are
/// tagged with their sequential-order rank (driving-scan position, or the
/// aggregate's group first-seen rank) and the result sink merges the
/// workers' lanes on those ranks, so results are byte-identical to DoP=1.
///
/// Parallel-safe plan shape (anything else falls back to sequential):
///
///   [Project|Filter]* -> [HashAggregate]? -> [Project|Filter]*
///     -> [FilterJoin]? -> ([Project|Filter]* HashJoin)*
///     -> SeqScan                         (each HashJoin inner:
///                                          [Project|Filter]* -> SeqScan)
class ParallelExecutor {
 public:
  /// `dop` >= 1; clamped up to 1.
  explicit ParallelExecutor(int dop);

  /// Opens the gang: `replicas` must contain either `dop` isomorphic plans,
  /// or at least one plan (fallback keeps replicas[0]). Consumes the
  /// replicas. Every worker's ExecContext (and the fallback's) inherits the
  /// configuration of the prototype `proto` (ExecContext::InheritConfig);
  /// counters and filter-set registries stay per-worker. When `proto`
  /// carries a shared pool the caller must uphold ThreadPool::RunGang's
  /// deadlock contract for the Open phase: at most pool->size() blocking
  /// gang tasks outstanding — the query service's admission controller
  /// reserves `dop` slots per parallel query for exactly this reason.
  StatusOr<ParallelGang> Open(std::vector<OpPtr> replicas,
                              const ExecContext& proto);

  /// Runs the pipeline to completion: Open, then DrainLanes on the caller's
  /// thread, with the lanes pumped on the shared pool or the gang's own.
  StatusOr<ParallelRunResult> Run(std::vector<OpPtr> replicas,
                                  const ExecContext& proto);

  /// Why `root` cannot run parallel; empty string == parallel-safe.
  /// Exposed for tests and EXPLAIN-style diagnostics.
  static std::string UnsafeReason(const Operator& root);

 private:
  int dop_;
};

}  // namespace magicdb

#endif  // MAGICDB_PARALLEL_PARALLEL_EXEC_H_
