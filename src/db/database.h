#ifndef MAGICDB_DB_DATABASE_H_
#define MAGICDB_DB_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/statusor.h"
#include "src/exec/cardinality_feedback.h"
#include "src/exec/exec_context.h"
#include "src/exec/exec_options.h"
#include "src/exec/filter_join_op.h"
#include "src/exec/operator.h"
#include "src/exec/row_batch.h"
#include "src/exec/stream_pump.h"
#include "src/optimizer/optimizer.h"
#include "src/parallel/thread_pool.h"
#include "src/stats/feedback_store.h"

namespace magicdb {

/// Result of running one SQL query.
struct QueryResult {
  Schema schema;
  std::vector<Tuple> rows;
  /// Work the execution actually performed (page I/O, CPU, communication).
  CostCounters counters;
  /// The optimizer's physical plan rendering and estimates.
  std::string explain;
  double est_cost = 0.0;
  double est_rows = 0.0;
  /// Table-1 breakdowns of Filter Joins in the executed plan (predicted).
  std::vector<FilterJoinCostBreakdown> filter_joins;
  /// Measured per-phase costs of the executed Filter Joins, outermost
  /// first (same order as `filter_joins` when plans align).
  std::vector<FilterJoinMeasured> filter_join_measured;
  /// Optimization effort spent planning this query.
  OptimizerStats optimizer_stats;
  /// Degree of parallelism the execution actually used (1 when it ran
  /// sequentially, requested or not).
  int used_dop = 1;
  /// Why a dop > 1 query ran single-threaded; empty when it ran parallel
  /// or dop 1 was requested.
  std::string parallel_fallback_reason;

  /// How many times runtime cardinality feedback re-planned this query
  /// before it ran to completion (0 = the first plan survived).
  int reoptimizations = 0;

  /// Every breaker cardinality observed while executing (final attempt plus
  /// any aborted ones; first observation per key wins).
  std::vector<CardinalityObservation> feedback;

  /// Pretty-prints rows as an aligned text table.
  std::string ToString(size_t max_rows = 20) const;
};

/// Parse+bind output of one SELECT. The logical plan is immutable and
/// shared (`LogicalPtr` is a shared_ptr-to-const), so a BoundSelect can be
/// cached and re-planned concurrently — the query service's plan cache
/// keeps one per statement to skip parse+bind on repeated executions.
struct BoundSelect {
  LogicalPtr plan;
  int64_t limit = -1;  ///< -1 = no LIMIT clause.
};

/// Everything that describes a planned SELECT apart from its physical
/// tree: the bound logical plan plus the optimizer's estimates and
/// diagnostics. The query service's plan cache keeps one per statement.
struct PlanMeta {
  BoundSelect bound;
  Schema schema;
  std::string explain;
  double est_cost = 0.0;
  double est_rows = 0.0;
  std::vector<FilterJoinCostBreakdown> filter_joins;
  OptimizerStats optimizer_stats;
};

/// A fully planned SELECT, ready to execute: the physical root (with any
/// LIMIT already applied) plus its PlanMeta.
struct PlannedSelect : PlanMeta {
  OpPtr root;
};

/// Inputs of Database::StartQuery. Each caller resolves its own defaults
/// (dop, deadline, memory limit, batch size) into these fields.
struct QueryStart {
  /// Attempt 0 runs `first.root` when it is set (a pooled plan instance,
  /// or the plan a plan-cache miss just built) and plans `first.bound`
  /// otherwise. Re-plans always plan `first.bound`.
  PlannedSelect first;
  /// Overlay attempt 0 is planned against (a FeedbackStore snapshot); each
  /// re-plan adds the abandoned attempt's exact observations on top.
  CardinalityOverlay overlay;
  /// Configuration every attempt's ExecContext inherits: cancel token,
  /// memory tracker, spill area, memory budget, batch size, shared pool and
  /// progress heartbeat. A governed query gets a fresh tracker with the
  /// same limit for every attempt after the first.
  ExecContext proto;
  /// Degree of parallelism, already resolved (>= 1).
  int dop = 1;
  /// Resolved re-optimization threshold (<= 0 disables re-planning) and
  /// the bound on re-plans (ExecOptions::max_reoptimizations).
  double reoptimize_qerror_threshold = 0.0;
  int max_reoptimizations = 0;
};

/// A started SELECT, ready to deliver rows: the outcome of
/// Database::StartQuery. Its `lanes` produce the result, each an operator
/// tree under its own ExecContext (which carries the query's cancel token,
/// memory tracker, spill area and feedback ledger): either one sequential
/// tree, opened here when the attempt was armed, or the `used_dop` opened
/// replicas of a gang, whose breakers and peer barriers all ran here. The
/// consumer drains them (StreamPump, DrainLanes); the query's counters are
/// the sum of the lanes' once every lane has finished.
struct QueryStream {
  std::vector<StreamLane> lanes;
  /// The error the eager Open failed with, when it failed for any reason
  /// but a re-plan request; the consumer reports it as the query's outcome.
  Status open_status;
  /// The plan that runs: attempt 0's, or the last re-plan's.
  PlanMeta plan;
  int used_dop = 1;
  /// Why a dop > 1 query runs sequentially; empty when it runs parallel.
  std::string fallback_reason;
  /// The kReoptimizeRequested message of every abandoned attempt, in order.
  std::vector<std::string> reoptimizations;
  /// The pool the gang opened on, for its lanes to run on too, when the
  /// query has no shared pool; null otherwise.
  std::unique_ptr<ThreadPool> pool;
};

/// Top-level embedded-database facade tying catalog, SQL front end,
/// optimizer and executor together. Typical use:
///
///   Database db;
///   db.Execute("CREATE TABLE Emp (did INT, sal DOUBLE, age INT)");
///   db.LoadRows("Emp", rows);
///   db.Execute("CREATE VIEW DepAvgSal AS SELECT did, AVG(sal) AS avgsal "
///              "FROM Emp GROUP BY did");
///   auto result = db.Run("SELECT ... FROM Emp E, Dept D, DepAvgSal V "
///                        "WHERE ...", {.dop = 4});
class Database {
 public:
  Database() = default;

  Catalog* catalog() { return &catalog_; }
  const Catalog* catalog() const { return &catalog_; }

  OptimizerOptions* mutable_optimizer_options() { return &optimizer_options_; }

  /// Rows per execution batch Run() uses when ExecOptions::batch_size is
  /// <= 0. Setting a value <= 0 restores DefaultExecBatchSize(). Results
  /// and cost counters are byte-identical at any batch size; this only
  /// changes how many rows operators exchange per pull.
  int64_t exec_batch_size() const { return exec_batch_size_; }
  void set_exec_batch_size(int64_t rows) {
    exec_batch_size_ = rows > 0 ? rows : DefaultExecBatchSize();
  }

  /// Executes a DDL statement (CREATE TABLE / CREATE VIEW).
  Status Execute(const std::string& sql);

  /// Bulk-loads rows into a table and refreshes its statistics. Stops at
  /// the first bad row; the rows before it stay loaded, and the statistics
  /// (and the DDL epoch) are refreshed for them too.
  Status LoadRows(const std::string& table, std::vector<Tuple> rows);

  /// Parses, binds, optimizes and runs a SELECT — the one execution entry
  /// point. `options.dop` selects sequential (1, the default) or
  /// morsel-parallel execution (> 1 when the plan shape allows, falling
  /// back to sequential otherwise; <= 0 = hardware concurrency); results
  /// and merged cost counters are byte-identical at any dop. When
  /// `options.reoptimize_qerror_threshold` resolves to a positive value
  /// (see ExecOptions), pipeline-breaker cardinalities whose q-error
  /// exceeds it abort the attempt, fold the observed counts into a
  /// cardinality overlay, and re-plan — bounded by
  /// `options.max_reoptimizations`, with the final attempt always running
  /// to completion (StartQuery is the driver). The plan is chosen with the
  /// session's OptimizerOptions — including its degree_of_parallelism
  /// costing knob — NOT with `options.dop`, so every dop executes the
  /// identical plan.
  StatusOr<QueryResult> Run(const std::string& sql,
                            const ExecOptions& options = {});

  /// Cross-query cardinality feedback: queries run with
  /// ExecOptions::persist_feedback fold their exact scan/view observations
  /// here, and every subsequent Run plans against a snapshot of it.
  FeedbackStore* feedback_store() { return &feedback_store_; }
  const FeedbackStore* feedback_store() const { return &feedback_store_; }

  /// Plans a SELECT without running it; returns the EXPLAIN text.
  StatusOr<std::string> Explain(const std::string& sql);

  /// Parses and binds a SELECT into a logical plan (no optimization).
  StatusOr<LogicalPtr> Bind(const std::string& sql);

  /// Parses and binds a SELECT, keeping the LIMIT clause alongside the
  /// logical plan. Const and thread-compatible: concurrent callers are safe
  /// as long as no DDL runs concurrently (the query service serializes DDL
  /// against queries with a shared/exclusive lock).
  StatusOr<BoundSelect> BindSelect(const std::string& sql) const;

  /// Parse + bind + optimize under explicit options. The returned root is
  /// directly executable (LIMIT applied).
  StatusOr<PlannedSelect> PlanSelect(const std::string& sql,
                                     const OptimizerOptions& options) const;

  /// Re-plans an already-bound SELECT (skips parse+bind). The optimizer is
  /// deterministic, so planning the same BoundSelect under the same options
  /// and catalog epoch always yields an isomorphic physical tree — the
  /// property both the plan cache and parallel replica planning rely on.
  StatusOr<PlannedSelect> PlanBound(const BoundSelect& bound,
                                    const OptimizerOptions& options) const;

  /// As above, planning against an observed-cardinality overlay (nullptr =
  /// none). The overlay must outlive the call; plans produced under a
  /// non-empty overlay are attempt-specific and must not be cached.
  StatusOr<PlannedSelect> PlanBound(const BoundSelect& bound,
                                    const OptimizerOptions& options,
                                    const CardinalityOverlay* overlay) const;

  /// The attempt driver behind Run() and the query service: plans (unless
  /// `start.first` carries a tree), executes, and re-plans until an attempt
  /// survives, then returns its stream without draining it.
  ///
  /// An attempt runs parallel when dop > 1, there is no LIMIT, and the plan
  /// has a parallel-safe shape: it plans the other dop - 1 replicas and
  /// runs the gang's Open phase (ParallelExecutor::Open). Otherwise it runs
  /// sequentially, with the fallback reason "LIMIT clause" or the unsafe
  /// shape. An attempt is armed when the threshold is positive and it is
  /// not the last one permitted. An armed gang opens with triggering on; an
  /// armed sequential tree is opened here with triggering on. The lanes are
  /// disarmed once Open() returns: every breaker has completed by then. A
  /// kReoptimizeRequested unwind folds the exact overlay-eligible
  /// observations into the overlay, suppresses their keys, and re-plans on
  /// a fresh ExecContext and MemoryTracker. An unarmed
  /// sequential tree is returned unopened. A gang that breaches its memory
  /// limit on a context that can spill degrades to an unopened sequential
  /// tree planned against the same overlay; without a spill area the
  /// kResourceExhausted surfaces. Runs under the caller's DDL protection.
  StatusOr<QueryStream> StartQuery(QueryStart start,
                                   const OptimizerOptions& options) const;

 private:
  Catalog catalog_;
  OptimizerOptions optimizer_options_;
  int64_t exec_batch_size_ = DefaultExecBatchSize();
  FeedbackStore feedback_store_;
};

}  // namespace magicdb

#endif  // MAGICDB_DB_DATABASE_H_
