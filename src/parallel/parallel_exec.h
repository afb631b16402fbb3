#ifndef MAGICDB_PARALLEL_PARALLEL_EXEC_H_
#define MAGICDB_PARALLEL_PARALLEL_EXEC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/cost_counters.h"
#include "src/common/memory_tracker.h"
#include "src/common/statusor.h"
#include "src/exec/filter_join_op.h"
#include "src/exec/operator.h"

namespace magicdb {

class SpillManager;
class ThreadPool;

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

/// A parallel execution staged for streaming: the outcome of
/// ParallelExecutor::RunStaged. When the gang ran (`staged` == true) the
/// workers have already produced and rank-tagged every output row;
/// `stream_root` is a GatherOp whose Open/NextBatch/Close drains the
/// deterministic merge incrementally — pumping it performs no query work
/// and must charge nothing, and `counters`/`filter_join_*` are final. When
/// the plan fell back (`staged` == false) nothing has executed yet:
/// `stream_root` is the untouched first replica, and the caller's pump
/// performs the actual execution (its ExecContext accrues the counters).
/// Either way the caller owns `stream_root` and can feed it into a bounded
/// ResultSink batch by batch instead of materializing a full result.
struct StagedStream {
  OpPtr stream_root;
  bool staged = false;

  /// Final only when `staged`; see above.
  CostCounters counters;
  int used_dop = 1;
  std::string fallback_reason;
  bool has_filter_join = false;
  FilterJoinMeasured filter_join_measured;
};

/// Morsel-driven parallel executor. Takes `dop` isomorphic plan replicas
/// (the optimizer is deterministic, so optimizing the same query `dop`
/// times yields identical trees), wires shared state into each — a
/// MorselSource per scanned base table, a SharedHashBuild per hash join, a
/// SharedFilterJoin for the (at most one) topmost Filter Join, a
/// SharedAggregate for the (at most one) aggregation above the joins — and
/// runs one replica per worker on a work-stealing pool. Output rows are
/// tagged with their sequential-order rank (driving-scan position, or the
/// aggregate's group first-seen rank) and gather-merged, so results are
/// byte-identical to DoP=1.
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

  /// Runs the pipeline. `replicas` must contain either `dop` isomorphic
  /// plans, or at least one plan (fallback runs replicas[0]). Consumes the
  /// replicas. `proto` is a prototype execution environment: every worker's
  /// ExecContext (and the fallback drain's) inherits its configuration —
  /// cancel token, memory governor/budget, spill area, batch size, shared
  /// thread pool, and the cardinality-feedback ledger with its
  /// re-optimization threshold (see ExecContext::InheritConfig). Counters
  /// and filter-set registries stay per-worker. When `proto` carries a
  /// shared pool the caller must uphold ThreadPool::RunGang's deadlock
  /// contract: at most pool->size() blocking gang tasks outstanding — the
  /// query service's admission controller reserves `dop` slots per parallel
  /// query for exactly this reason.
  StatusOr<ParallelRunResult> Run(std::vector<OpPtr> replicas,
                                  const ExecContext& proto);

  /// Streaming variant: runs the worker gang to completion (or decides the
  /// fallback without executing anything) and returns the operator the
  /// caller pumps to deliver rows incrementally — see StagedStream. Run()
  /// is a thin drain-to-vector wrapper over this.
  StatusOr<StagedStream> RunStaged(std::vector<OpPtr> replicas,
                                   const ExecContext& proto);

  /// Why `root` cannot run parallel; empty string == parallel-safe.
  /// Exposed for tests and EXPLAIN-style diagnostics.
  static std::string UnsafeReason(const Operator& root);

 private:
  int dop_;
};

}  // namespace magicdb

#endif  // MAGICDB_PARALLEL_PARALLEL_EXEC_H_
