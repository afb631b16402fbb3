#ifndef MAGICDB_EXEC_EXEC_OPTIONS_H_
#define MAGICDB_EXEC_EXEC_OPTIONS_H_

#include <chrono>
#include <cstdint>

#include "src/common/cancellation.h"

namespace magicdb {

/// Per-query execution controls. One struct serves both entry surfaces:
/// `Database::Run(stmt, ExecOptions)` for embedded use and
/// `Session::Query/Open` through a QueryService (which additionally applies
/// its service defaults for the zero/negative sentinel fields).
struct ExecOptions {
  /// Requested degree of parallelism. 1 (default) runs sequentially (on the
  /// service's fair cooperative scheduler when serving); > 1 runs the
  /// morsel-parallel executor when the plan shape allows, otherwise falls
  /// back to the sequential path with QueryResult::parallel_fallback_reason
  /// set; <= 0 means hardware concurrency (Database::Run only).
  int dop = 1;

  /// Relative deadline for the whole query, admission wait included.
  /// Zero = no deadline. A query that exceeds it unwinds cooperatively
  /// with StatusCode::kDeadlineExceeded.
  std::chrono::microseconds timeout{0};

  /// Optional externally owned token; lets the submitter cancel the query
  /// from another thread. When null and a timeout is set, the service
  /// creates an internal token.
  CancelTokenPtr cancel_token;

  /// High-water mark (rows) of this query's streaming result queue; the
  /// producer parks once this many rows are buffered unfetched. 0 = the
  /// service default (QueryServiceOptions::stream_queue_rows). Serving
  /// path only.
  int64_t stream_queue_rows = 0;

  /// Memory limit (bytes) for this query's retained execution state: hash
  /// and filter-join build tables, spooled production sets, aggregate
  /// groups, sort buffers, DISTINCT's retained rows, the sort-merge join's
  /// buffered inputs, and the unfetched result queue.
  /// A query that would exceed it fails with StatusCode::kResourceExhausted
  /// instead of growing unbounded. 0 = the service default
  /// (QueryServiceOptions::query_memory_limit_bytes); negative = explicitly
  /// ungoverned regardless of the service default.
  int64_t memory_limit_bytes = 0;

  /// Whether this query may degrade to out-of-core execution (Grace hash
  /// join, hybrid hash aggregation, external merge sort) when it breaches
  /// its memory limit. Effective only when the service has a spill area
  /// (QueryServiceOptions::spill_dir); false keeps the hard
  /// kResourceExhausted failure even then.
  bool allow_spill = true;

  /// Rows per batch that drivers and pipeline breakers pull through
  /// Operator::NextBatch, with memory charges and cancellation checks
  /// coalesced per batch. Results, result order, and cost counters are
  /// byte-identical at any batch size and dop; batch size 1 is the
  /// exact-work reference. <= 0 (the default) = the embedding default
  /// (QueryServiceOptions::default_batch_size or
  /// Database::exec_batch_size, normally 1024). The effective value
  /// participates in the plan-cache key.
  int64_t batch_size = -1;

  /// Adaptive re-optimization: q-error (max(actual/est, est/actual)) above
  /// which a cardinality observation at a pipeline breaker aborts the
  /// attempt, folds the observed counts into a stats overlay, and re-plans
  /// the remaining query. 0 disables; negative (the default) resolves via
  /// MAGICDB_TEST_REOPT_QERROR (unset = disabled) so scripts/check.sh can
  /// sweep the whole suite with re-planning forced on. Rows and merged
  /// cost counters stay byte-identical at any dop, on or off.
  double reoptimize_qerror_threshold = -1.0;

  /// Upper bound on re-planning rounds per query; the final attempt runs
  /// with triggering disabled, guaranteeing termination.
  int max_reoptimizations = 3;

  /// Persist this query's exact scan/view cardinality observations into
  /// the database's FeedbackStore so *subsequent* queries plan with them.
  /// Off by default: persistence changes later plans, which breaks
  /// run-to-run byte-identity sweeps; opt in where learning across queries
  /// is wanted.
  bool persist_feedback = false;
};

/// Resolves the effective re-optimization threshold: a non-negative
/// configured value wins; negative falls back to the
/// MAGICDB_TEST_REOPT_QERROR environment variable (absent/invalid = 0,
/// i.e. disabled).
double ResolveReoptQErrorThreshold(double configured);

}  // namespace magicdb

#endif  // MAGICDB_EXEC_EXEC_OPTIONS_H_
