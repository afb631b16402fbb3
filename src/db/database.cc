#include "src/db/database.h"

#include <algorithm>
#include <sstream>
#include <thread>

#include "src/common/failpoint.h"
#include "src/exec/basic_ops.h"
#include "src/parallel/parallel_exec.h"
#include "src/sql/binder.h"
#include "src/sql/parser.h"

namespace magicdb {

std::string QueryResult::ToString(size_t max_rows) const {
  std::ostringstream os;
  std::vector<size_t> widths(schema.num_columns());
  std::vector<std::vector<std::string>> cells;
  for (int c = 0; c < schema.num_columns(); ++c) {
    widths[c] = schema.column(c).QualifiedName().size();
  }
  const size_t shown = std::min(max_rows, rows.size());
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < schema.num_columns(); ++c) {
      row.push_back(rows[r][c].ToString());
      widths[c] = std::max(widths[c], row.back().size());
    }
    cells.push_back(std::move(row));
  }
  for (int c = 0; c < schema.num_columns(); ++c) {
    os << (c > 0 ? " | " : "") << schema.column(c).QualifiedName();
    os << std::string(widths[c] - schema.column(c).QualifiedName().size(),
                      ' ');
  }
  os << "\n";
  size_t total = 0;
  for (size_t w : widths) total += w + 3;
  os << std::string(total > 3 ? total - 3 : 0, '-') << "\n";
  for (const auto& row : cells) {
    for (int c = 0; c < schema.num_columns(); ++c) {
      os << (c > 0 ? " | " : "") << row[c]
         << std::string(widths[c] - row[c].size(), ' ');
    }
    os << "\n";
  }
  if (rows.size() > shown) {
    os << "... (" << rows.size() << " rows total)\n";
  } else {
    os << "(" << rows.size() << " rows)\n";
  }
  return os.str();
}

Status Database::Execute(const std::string& sql) {
  MAGICDB_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  switch (stmt.kind) {
    case Statement::Kind::kCreateTable: {
      // Injected fault models table creation failing (e.g. storage setup)
      // before the catalog is touched; the catalog must stay unchanged.
      MAGICDB_FAILPOINT("db.ddl.create_table");
      Schema schema;
      for (const ColumnDef& col : stmt.columns) {
        schema.AddColumn({"", col.name, col.type});
      }
      MAGICDB_ASSIGN_OR_RETURN(Table * table,
                               catalog_.CreateTable(stmt.name, schema));
      (void)table;
      return Status::OK();
    }
    case Statement::Kind::kCreateView: {
      Binder binder(&catalog_);
      MAGICDB_ASSIGN_OR_RETURN(LogicalPtr plan,
                               binder.BindSelect(*stmt.select));
      // Injected fault lands after the view body bound successfully but
      // before registration — the window where a half-created view would
      // be observable if registration were not atomic.
      MAGICDB_FAILPOINT("db.ddl.create_view");
      return catalog_.RegisterView(stmt.name, plan);
    }
    case Statement::Kind::kSelect:
      return Status::InvalidArgument(
          "Execute() is for DDL; use Run() for SELECT statements");
  }
  return Status::Internal("unhandled statement kind");
}

Status Database::LoadRows(const std::string& table, std::vector<Tuple> rows) {
  MAGICDB_ASSIGN_OR_RETURN(const CatalogEntry* entry, catalog_.Lookup(table));
  if (entry->table == nullptr) {
    return Status::InvalidArgument("relation has no storage: " + table);
  }
  Table* stored = const_cast<Table*>(entry->table);
  const int64_t rows_before = stored->NumRows();
  const Status inserted = stored->InsertAll(std::move(rows));
  // A load that fails part way has still changed the table and its indexes:
  // refresh the statistics, which bumps the DDL epoch, so open cursors go
  // stale instead of reading index lists that moved.
  if (stored->NumRows() == rows_before) return inserted;
  MAGICDB_RETURN_IF_ERROR(catalog_.Analyze(table));
  return inserted;
}

StatusOr<LogicalPtr> Database::Bind(const std::string& sql) {
  MAGICDB_ASSIGN_OR_RETURN(BoundSelect bound, BindSelect(sql));
  return bound.plan;
}

StatusOr<BoundSelect> Database::BindSelect(const std::string& sql) const {
  MAGICDB_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  Binder binder(&catalog_);
  BoundSelect bound;
  MAGICDB_ASSIGN_OR_RETURN(bound.plan, binder.BindSelect(*stmt.select));
  bound.limit = stmt.select->limit;
  return bound;
}

StatusOr<PlannedSelect> Database::PlanSelect(
    const std::string& sql, const OptimizerOptions& options) const {
  MAGICDB_ASSIGN_OR_RETURN(BoundSelect bound, BindSelect(sql));
  return PlanBound(bound, options);
}

StatusOr<PlannedSelect> Database::PlanBound(
    const BoundSelect& bound, const OptimizerOptions& options) const {
  return PlanBound(bound, options, nullptr);
}

StatusOr<PlannedSelect> Database::PlanBound(
    const BoundSelect& bound, const OptimizerOptions& options,
    const CardinalityOverlay* overlay) const {
  Optimizer optimizer(&catalog_, options);
  optimizer.set_cardinality_overlay(overlay);
  MAGICDB_ASSIGN_OR_RETURN(OptimizedPlan optimized,
                           optimizer.Optimize(bound.plan));
  PlannedSelect planned;
  planned.bound = bound;
  planned.schema = bound.plan->schema();
  planned.root = std::move(optimized.root);
  if (bound.limit >= 0) {
    planned.root =
        std::make_unique<LimitOp>(std::move(planned.root), bound.limit);
  }
  planned.explain = std::move(optimized.explain);
  planned.est_cost = optimized.est_cost;
  planned.est_rows = optimized.est_rows;
  planned.filter_joins = std::move(optimized.filter_joins);
  planned.optimizer_stats = optimizer.stats();
  return planned;
}

namespace {

/// Gives `ctx` a fresh tracker with the same limit (no-op when ungoverned):
/// an aborted attempt may have unwound with charges still on the old one.
void RenewMemoryTracker(ExecContext* ctx) {
  if (ctx->memory_tracker() != nullptr) {
    ctx->set_memory_tracker(std::make_shared<MemoryTracker>(
        ctx->memory_tracker()->limit_bytes()));
  }
}

}  // namespace

StatusOr<QueryStream> Database::StartQuery(
    QueryStart start, const OptimizerOptions& options) const {
  const double threshold = start.reoptimize_qerror_threshold;
  const int max_attempts = 1 + std::max(0, start.max_reoptimizations);
  // One ledger for the whole query: observations survive re-plans (first
  // record per key wins, so re-executions keep the original wrong-estimate
  // evidence).
  auto ledger = std::make_shared<CardinalityFeedback>();
  PlannedSelect planned = std::move(start.first);
  QueryStream stream;
  for (int attempt = 0;; ++attempt) {
    // The final permitted attempt runs unarmed, so the loop always ends
    // with a stream that can run to completion.
    bool armed = threshold > 0 && attempt + 1 < max_attempts;
    auto ctx = std::make_unique<ExecContext>();
    ctx->InheritConfig(start.proto);
    ctx->set_cardinality_feedback(ledger);
    ctx->set_reoptimize_qerror_threshold(armed ? threshold : 0.0);
    if (attempt > 0) RenewMemoryTracker(ctx.get());
    const CardinalityOverlay* overlay =
        start.overlay.empty() ? nullptr : &start.overlay;
    if (planned.root == nullptr) {
      MAGICDB_ASSIGN_OR_RETURN(planned,
                               PlanBound(planned.bound, options, overlay));
    }

    // LIMIT cuts the stream early; workers would race for the quota, so it
    // runs sequentially without planning replicas for nothing.
    stream.fallback_reason.clear();
    if (start.dop > 1) {
      stream.fallback_reason =
          planned.bound.limit >= 0
              ? "LIMIT clause"
              : ParallelExecutor::UnsafeReason(*planned.root);
    }
    Status restart;  // this attempt's kReoptimizeRequested, if any
    if (start.dop > 1 && stream.fallback_reason.empty()) {
      // One optimizer pass per worker replica: Optimize() is deterministic
      // under the same overlay, so the trees are isomorphic (the executor
      // verifies that before wiring shared state into them). Planning uses
      // the caller's options, never the execution dop, so every dop runs
      // the identical plan.
      std::vector<OpPtr> replicas;
      replicas.push_back(std::move(planned.root));
      for (int w = 1; w < start.dop; ++w) {
        MAGICDB_ASSIGN_OR_RETURN(PlannedSelect replica,
                                 PlanBound(planned.bound, options, overlay));
        replicas.push_back(std::move(replica.root));
      }
      StatusOr<ParallelGang> gang =
          ParallelExecutor(start.dop).Open(std::move(replicas), *ctx);
      if (gang.ok()) {
        stream.fallback_reason = std::move(gang->fallback_reason);
        if (gang->used_dop > 1) {
          stream.used_dop = gang->used_dop;
          stream.lanes = std::move(gang->lanes);
          stream.pool = std::move(gang->pool);
          for (StreamLane& lane : stream.lanes) {
            lane.ctx->set_reoptimize_qerror_threshold(0.0);
          }
        } else {
          planned.root = std::move(gang->lanes[0].root);
        }
      } else if (gang.status().IsReoptimizeRequested()) {
        restart = gang.status();
      } else if (gang.status().code() == StatusCode::kResourceExhausted &&
                 ctx->spill_enabled()) {
        // The gang breached the limit where the parallel operators cannot
        // spill (e.g. a shared build): degrade to sequential out-of-core
        // execution instead of failing. Nothing has been delivered yet.
        RenewMemoryTracker(ctx.get());
        ctx->set_reoptimize_qerror_threshold(0.0);
        armed = false;
        stream.fallback_reason =
            "memory pressure: degraded to sequential spill";
        MAGICDB_ASSIGN_OR_RETURN(planned,
                                 PlanBound(planned.bound, options, overlay));
      } else {
        return gang.status();
      }
    }
    if (restart.ok() && stream.lanes.empty()) {
      StreamLane lane;
      if (armed) {
        // Every pipeline breaker completes inside Open(), so a trigger
        // fires before the first output row and the restart is invisible
        // to the consumer. Later observations must never fail NextBatch().
        Status open = planned.root->Open(ctx.get());
        if (open.IsReoptimizeRequested()) {
          restart = std::move(open);
        } else {
          ctx->set_reoptimize_qerror_threshold(0.0);
          lane.opened = open.ok();
          stream.open_status = std::move(open);
        }
      }
      lane.ctx = std::move(ctx);
      lane.root = std::move(planned.root);
      stream.lanes.push_back(std::move(lane));
    }
    if (restart.ok()) {
      stream.plan = std::move(planned);
      return stream;
    }
    // Fold every exact overlay-eligible observation into the overlay for
    // the re-plan, and suppress its key: the corrected estimate makes the
    // observation consistent, so re-triggering on it would be a planning
    // no-op. The suppression set only changes here, between attempts —
    // never while a gang is running.
    stream.reoptimizations.push_back(restart.message());
    for (const CardinalityObservation& obs : ledger->Snapshot()) {
      if (!obs.exact || !IsOverlayKey(obs.key)) continue;
      start.overlay.rows[obs.key] = obs.actual;
      ledger->SuppressKey(obs.key);
    }
    stream.lanes.clear();  // an armed sequential tree that asked to re-plan
  }
}

StatusOr<QueryResult> Database::Run(const std::string& sql,
                                    const ExecOptions& options) {
  QueryStart start;
  start.dop = options.dop;
  if (start.dop <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    start.dop = hw > 0 ? static_cast<int>(hw) : 1;
  }
  MAGICDB_ASSIGN_OR_RETURN(start.first.bound, BindSelect(sql));
  // Start from what earlier persisting queries learned.
  start.overlay = feedback_store_.Snapshot();
  start.reoptimize_qerror_threshold =
      ResolveReoptQErrorThreshold(options.reoptimize_qerror_threshold);
  start.max_reoptimizations = options.max_reoptimizations;
  ExecContext& proto = start.proto;
  proto.set_memory_budget_bytes(optimizer_options_.memory_budget_bytes);
  proto.set_batch_size(options.batch_size > 0 ? options.batch_size
                                              : exec_batch_size_);
  CancelTokenPtr token = options.cancel_token;
  if (options.timeout.count() > 0) {
    if (token == nullptr) token = std::make_shared<CancelToken>();
    if (!token->has_deadline()) token->SetTimeout(options.timeout);
  }
  proto.set_cancel_token(std::move(token));
  if (options.memory_limit_bytes > 0) {
    proto.set_memory_tracker(
        std::make_shared<MemoryTracker>(options.memory_limit_bytes));
  }

  MAGICDB_ASSIGN_OR_RETURN(QueryStream stream,
                           StartQuery(std::move(start), optimizer_options_));
  MAGICDB_RETURN_IF_ERROR(stream.open_status);
  const std::shared_ptr<CardinalityFeedback> ledger =
      stream.lanes[0].ctx->cardinality_feedback();
  // Run() has no shared pool: a gang's lanes run on the pool its Open
  // phase ran on, and this thread merges them.
  QueryResult result;
  MAGICDB_ASSIGN_OR_RETURN(
      result.rows,
      DrainLanes(std::move(stream.lanes), stream.pool.get(), &result.counters,
                 &result.filter_join_measured));
  result.schema = std::move(stream.plan.schema);
  result.explain = std::move(stream.plan.explain);
  result.est_cost = stream.plan.est_cost;
  result.est_rows = stream.plan.est_rows;
  result.filter_joins = std::move(stream.plan.filter_joins);
  result.optimizer_stats = stream.plan.optimizer_stats;
  result.used_dop = stream.used_dop;
  result.parallel_fallback_reason = std::move(stream.fallback_reason);
  result.reoptimizations = static_cast<int>(stream.reoptimizations.size());
  result.feedback = ledger->Snapshot();
  if (options.persist_feedback) feedback_store_.Fold(result.feedback);
  return result;
}

StatusOr<std::string> Database::Explain(const std::string& sql) {
  MAGICDB_ASSIGN_OR_RETURN(LogicalPtr plan, Bind(sql));
  Optimizer optimizer(&catalog_, optimizer_options_);
  MAGICDB_ASSIGN_OR_RETURN(OptimizedPlan optimized, optimizer.Optimize(plan));
  return optimized.explain;
}

}  // namespace magicdb
