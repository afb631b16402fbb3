#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"
#include "src/exec/aggregate_op.h"
#include "src/exec/basic_ops.h"
#include "src/exec/exchange_op.h"
#include "src/exec/filter_join_op.h"
#include "src/exec/scan_ops.h"
#include "src/optimizer/optimizer_impl.h"
#include "src/stats/table_stats.h"

namespace magicdb {

using optimizer_internal::AccessKind;
using optimizer_internal::BuildFn;
using optimizer_internal::Planned;

namespace optimizer_internal {

const char* StepMethodName(StepMethod m) {
  switch (m) {
    case StepMethod::kAccess:
      return "Access";
    case StepMethod::kNestedLoops:
      return "NL";
    case StepMethod::kIndexNL:
      return "INL";
    case StepMethod::kHash:
      return "HJ";
    case StepMethod::kSortMerge:
      return "SMJ";
    case StepMethod::kFilterJoin:
      return "FJ";
    case StepMethod::kFnProbe:
      return "FnProbe";
    case StepMethod::kFnMemo:
      return "FnMemo";
  }
  return "?";
}

}  // namespace optimizer_internal

namespace {

/// Scales per-column distinct counts after a cardinality reduction from
/// `rows` to `new_rows` using Yao's formula.
std::vector<double> ScaleDistinct(const std::vector<double>& distinct,
                                  double rows, double new_rows) {
  std::vector<double> out(distinct.size());
  for (size_t i = 0; i < distinct.size(); ++i) {
    if (rows <= 0 || distinct[i] <= 0) {
      out[i] = 0;
    } else if (new_rows >= rows) {
      out[i] = distinct[i];
    } else {
      out[i] = YaoEstimate(static_cast<int64_t>(rows),
                           static_cast<int64_t>(std::max(1.0, distinct[i])),
                           static_cast<int64_t>(std::max(1.0, new_rows)));
      out[i] = std::max(1.0, std::min(out[i], new_rows));
    }
  }
  return out;
}

double ProductCapped(const std::vector<double>& distinct,
                     const std::vector<int>& cols, double cap) {
  double d = 1.0;
  for (int c : cols) {
    d *= std::max(1.0, distinct[c]);
    if (d > cap) return std::max(1.0, cap);
  }
  return std::max(1.0, std::min(d, cap));
}

}  // namespace

// ----- Facade -----

Optimizer::Optimizer(const Catalog* catalog, OptimizerOptions options)
    : options_(options), catalog_(catalog) {
  impl_ = std::make_unique<Impl>(catalog, &options_, &stats_);
}

Optimizer::~Optimizer() = default;

void Optimizer::set_cardinality_overlay(const CardinalityOverlay* overlay) {
  impl_->overlay_ = overlay;
}

StatusOr<OptimizedPlan> Optimizer::Optimize(const LogicalPtr& plan) {
  return OptimizeWithFilterSets(plan, {});
}

StatusOr<OptimizedPlan> Optimizer::OptimizeWithFilterSets(
    const LogicalPtr& plan,
    const std::map<std::string, double>& assumed_rows) {
  if (!plan) return Status::InvalidArgument("cannot optimize a null plan");
  impl_->chosen_filter_joins_.clear();
  optimizer_internal::PlanContext ctx;
  for (const auto& [binding, rows] : assumed_rows) {
    ctx.filter_set_rows[binding] = rows;
    ctx.filter_set_fpr[binding] = 0.0;
  }
  MAGICDB_ASSIGN_OR_RETURN(Planned planned, impl_->PlanNode(plan, &ctx));
  OptimizedPlan result;
  MAGICDB_ASSIGN_OR_RETURN(result.root, planned.build());
  result.est_cost = planned.est.cost;
  result.est_rows = planned.est.rows;
  result.filter_joins = impl_->chosen_filter_joins_;
  result.explain = "estimated cost=" + std::to_string(planned.est.cost) +
                   " rows=" + std::to_string(planned.est.rows) +
                   " backend=" + options_.join_order_backend + "\n" +
                   result.root->TreeString();
  return result;
}

StatusOr<std::vector<JoinOrderCost>> Optimizer::EnumerateJoinOrders(
    const LogicalPtr& plan) {
  // Descend through unary nodes to the topmost join block.
  LogicalPtr current = plan;
  while (current && current->kind() != LogicalKind::kNaryJoin) {
    if (current->children().size() != 1) {
      return Status::InvalidArgument(
          "EnumerateJoinOrders: plan has no reachable join block");
    }
    current = current->children()[0];
  }
  if (!current) {
    return Status::InvalidArgument("EnumerateJoinOrders: null plan");
  }
  optimizer_internal::PlanContext ctx;
  return impl_->EnumerateOrders(
      *static_cast<const NaryJoinNode*>(current.get()), &ctx);
}

// ----- Impl: node dispatch -----

StatusOr<Planned> Optimizer::Impl::PlanNode(const LogicalPtr& node,
                                            PlanContext* ctx) {
  switch (node->kind()) {
    case LogicalKind::kRelScan:
      return PlanRelScan(node, ctx);
    case LogicalKind::kFilterSetRef:
      return PlanFilterSetRef(node, ctx);
    case LogicalKind::kFilterSetProbe:
      return PlanFilterSetProbe(node, ctx);
    case LogicalKind::kNaryJoin:
      return PlanJoinBlock(node, ctx);
    case LogicalKind::kFilter:
      return PlanFilter(node, ctx);
    case LogicalKind::kProject:
      return PlanProject(node, ctx);
    case LogicalKind::kAggregate:
      return PlanAggregate(node, ctx);
    case LogicalKind::kDistinct:
      return PlanDistinct(node, ctx);
    case LogicalKind::kSort:
      return PlanSort(node, ctx);
  }
  return Status::Internal("unhandled logical node kind");
}

std::string Optimizer::Impl::NextBindingId(const std::string& hint) {
  return BindingId(hint, next_binding_++);
}

std::string Optimizer::Impl::BindingId(const std::string& hint,
                                       int64_t number) {
  return "fs_" + hint + "_" + std::to_string(number);
}

StatusOr<Planned> Optimizer::Impl::PlanRelScan(const LogicalPtr& node,
                                               PlanContext* ctx) {
  const auto* scan = static_cast<const RelScanNode*>(node.get());
  MAGICDB_ASSIGN_OR_RETURN(const CatalogEntry* entry,
                           catalog_->Lookup(scan->relation_name()));
  Planned p;
  p.schema = node->schema();
  const int ncols = p.schema.num_columns();

  switch (entry->kind) {
    case CatalogEntry::Kind::kBaseTable:
    case CatalogEntry::Kind::kRemoteTable: {
      const Table* table = entry->table;
      const double rows = entry->stats_valid
                              ? static_cast<double>(entry->stats.num_rows)
                              : static_cast<double>(table->NumRows());
      p.est.rows = rows;
      p.est.width_bytes = p.schema.TupleWidthBytes();
      p.est.cost = costs::SeqScan(rows, p.est.width_bytes,
                                  options_->degree_of_parallelism);
      p.distinct.resize(ncols);
      for (int c = 0; c < ncols; ++c) {
        p.distinct[c] = entry->stats_valid
                            ? static_cast<double>(
                                  entry->stats.columns[c].num_distinct)
                            : rows;
      }
      const std::string alias = scan->alias();
      const int site = entry->site;
      if (entry->kind == CatalogEntry::Kind::kRemoteTable) {
        p.est.cost += costs::Ship(rows, p.est.width_bytes);
        p.build = [table, alias, site]() -> StatusOr<OpPtr> {
          return OpPtr(std::make_unique<ShipOp>(
              std::make_unique<SeqScanOp>(table, alias), site, kLocalSite));
        };
      } else {
        p.build = [table, alias]() -> StatusOr<OpPtr> {
          return OpPtr(std::make_unique<SeqScanOp>(table, alias));
        };
        p.scan_entry = entry;
        p.scan_alias = alias;
      }
      return p;
    }
    case CatalogEntry::Kind::kView: {
      auto it = view_cache_.find(entry->name);
      if (it != view_cache_.end()) {
        Planned cached = it->second;
        cached.schema = node->schema();
        return cached;
      }
      stats_->nested_optimizations += 1;
      MAGICDB_ASSIGN_OR_RETURN(Planned inner,
                               PlanNode(entry->view_plan, ctx));
      inner.schema = node->schema();
      view_cache_[entry->name] = inner;
      return inner;
    }
    case CatalogEntry::Kind::kTableFunction:
      return Status::InvalidArgument(
          "relation " + entry->name +
          " is a table function and can only be joined with bound arguments");
  }
  return Status::Internal("unhandled catalog entry kind");
}

StatusOr<Planned> Optimizer::Impl::PlanFilter(const LogicalPtr& node,
                                              PlanContext* ctx) {
  const auto* filter = static_cast<const FilterNode*>(node.get());
  MAGICDB_ASSIGN_OR_RETURN(Planned child,
                           PlanNode(node->children()[0], ctx));
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(filter->predicate(), &conjuncts);
  double selectivity = 1.0;
  for (const ExprPtr& c : conjuncts) {
    selectivity *=
        ConjunctSelectivity(c, child.distinct, nullptr, child.est.rows);
  }
  Planned p;
  p.schema = node->schema();
  p.est.rows = child.est.rows * selectivity;
  p.est.width_bytes = child.est.width_bytes;
  p.est.cost = child.est.cost + costs::ExprEval(child.est.rows);
  p.distinct = ScaleDistinct(child.distinct, child.est.rows, p.est.rows);
  p.order_cols = child.order_cols;  // filters preserve order
  ExprPtr pred = filter->predicate();
  if (child.scan_entry != nullptr) {
    // Directly over a base scan, the predicate runs inside SeqScanOp,
    // which reads only the pages its zones do not rule out.
    const CatalogEntry* entry = child.scan_entry;
    const double f = ReadFraction(
        conjuncts, child.distinct,
        entry->stats_valid ? &entry->stats : nullptr, child.est.rows);
    p.est.cost = costs::SeqScan(child.est.rows, child.est.width_bytes,
                                options_->degree_of_parallelism, f) +
                 costs::ExprEval(f * child.est.rows);
    const Table* table = entry->table;
    const std::string alias = child.scan_alias;
    p.build = [table, alias, pred]() -> StatusOr<OpPtr> {
      return OpPtr(std::make_unique<SeqScanOp>(table, alias, pred));
    };
    return p;
  }
  BuildFn child_build = child.build;
  p.build = [child_build, pred]() -> StatusOr<OpPtr> {
    MAGICDB_ASSIGN_OR_RETURN(OpPtr c, child_build());
    return OpPtr(std::make_unique<FilterOp>(std::move(c), pred));
  };
  return p;
}

StatusOr<Planned> Optimizer::Impl::PlanProject(const LogicalPtr& node,
                                               PlanContext* ctx) {
  const auto* project = static_cast<const ProjectNode*>(node.get());
  MAGICDB_ASSIGN_OR_RETURN(Planned child,
                           PlanNode(node->children()[0], ctx));
  Planned p;
  p.schema = node->schema();
  p.est.rows = child.est.rows;
  p.est.width_bytes = p.schema.TupleWidthBytes();
  p.est.cost =
      child.est.cost +
      costs::ExprEval(child.est.rows *
                      static_cast<double>(project->exprs().size()));
  p.distinct.resize(project->exprs().size());
  std::vector<int> child_to_out(child.schema.num_columns(), -1);
  for (size_t i = 0; i < project->exprs().size(); ++i) {
    const Expr* e = project->exprs()[i].get();
    if (e->kind() == ExprKind::kColumnRef) {
      const int idx = static_cast<const ColumnRefExpr*>(e)->index();
      p.distinct[i] = child.distinct[idx];
      if (child_to_out[idx] < 0) child_to_out[idx] = static_cast<int>(i);
    } else {
      p.distinct[i] = child.est.rows;
    }
  }
  // Order survives projection as long as its leading columns survive.
  for (int oc : child.order_cols) {
    if (oc >= static_cast<int>(child_to_out.size()) || child_to_out[oc] < 0) {
      break;
    }
    p.order_cols.push_back(child_to_out[oc]);
  }
  std::vector<ExprPtr> exprs = project->exprs();
  Schema schema = p.schema;
  BuildFn child_build = child.build;
  p.build = [child_build, exprs, schema]() -> StatusOr<OpPtr> {
    MAGICDB_ASSIGN_OR_RETURN(OpPtr c, child_build());
    return OpPtr(std::make_unique<ProjectOp>(std::move(c), exprs, schema));
  };
  return p;
}

StatusOr<Planned> Optimizer::Impl::PlanAggregate(const LogicalPtr& node,
                                                 PlanContext* ctx) {
  const auto* agg = static_cast<const AggregateNode*>(node.get());
  MAGICDB_ASSIGN_OR_RETURN(Planned child,
                           PlanNode(node->children()[0], ctx));
  Planned p;
  p.schema = node->schema();
  const size_t ng = agg->group_by().size();
  double groups = 1.0;
  if (ng > 0) {
    groups = 1.0;
    for (const ExprPtr& g : agg->group_by()) {
      if (g->kind() == ExprKind::kColumnRef) {
        groups *= std::max(
            1.0,
            child.distinct[static_cast<const ColumnRefExpr*>(g.get())
                               ->index()]);
      } else {
        groups *= std::max(1.0, child.est.rows / 10.0);
      }
      if (groups > child.est.rows) break;
    }
    groups = std::max(1.0, std::min(groups, child.est.rows));
    if (child.est.rows <= 0) groups = 0.0;
  }
  p.est.rows = groups;
  p.est.width_bytes = p.schema.TupleWidthBytes();
  p.est.cost = child.est.cost +
               costs::HashAggregate(
                   child.est.rows,
                   child.est.rows * static_cast<double>(ng + agg->aggs().size()),
                   groups, options_->degree_of_parallelism);
  p.est.cost += costs::AggregateSpill(child.est.rows, child.est.width_bytes,
                                      options_->memory_budget_bytes);
  p.distinct.resize(p.schema.num_columns());
  for (size_t i = 0; i < ng; ++i) {
    const Expr* g = agg->group_by()[i].get();
    double d = groups;
    if (g->kind() == ExprKind::kColumnRef) {
      d = std::min(
          groups,
          child.distinct[static_cast<const ColumnRefExpr*>(g)->index()]);
    }
    p.distinct[i] = std::max(groups > 0 ? 1.0 : 0.0, d);
  }
  for (size_t i = ng; i < p.distinct.size(); ++i) p.distinct[i] = groups;

  std::vector<ExprPtr> group_by = agg->group_by();
  std::vector<AggSpec> aggs = agg->aggs();
  Schema schema = p.schema;
  BuildFn child_build = child.build;
  std::string feedback_key = "agg:";
  for (const ExprPtr& g : group_by) {
    feedback_key += g->ToString();
    feedback_key += ',';
  }
  const double est_groups = groups;
  p.build = [child_build, group_by, aggs, schema, feedback_key,
             est_groups]() -> StatusOr<OpPtr> {
    MAGICDB_ASSIGN_OR_RETURN(OpPtr c, child_build());
    auto op = std::make_unique<HashAggregateOp>(std::move(c), group_by, aggs,
                                                schema);
    op->AnnotateGroupCardinality(feedback_key, est_groups);
    return OpPtr(std::move(op));
  };
  return p;
}

StatusOr<Planned> Optimizer::Impl::PlanDistinct(const LogicalPtr& node,
                                                PlanContext* ctx) {
  MAGICDB_ASSIGN_OR_RETURN(Planned child,
                           PlanNode(node->children()[0], ctx));
  Planned p;
  p.schema = node->schema();
  std::vector<int> all(p.schema.num_columns());
  for (int i = 0; i < p.schema.num_columns(); ++i) all[i] = i;
  p.est.rows = std::min(child.est.rows,
                        ProductCapped(child.distinct, all, child.est.rows));
  p.est.width_bytes = child.est.width_bytes;
  p.est.cost = child.est.cost + costs::HashBuild(child.est.rows);
  p.distinct = ScaleDistinct(child.distinct, child.est.rows, p.est.rows);
  BuildFn child_build = child.build;
  p.build = [child_build]() -> StatusOr<OpPtr> {
    MAGICDB_ASSIGN_OR_RETURN(OpPtr c, child_build());
    return OpPtr(std::make_unique<DistinctOp>(std::move(c)));
  };
  return p;
}

StatusOr<Planned> Optimizer::Impl::PlanSort(const LogicalPtr& node,
                                            PlanContext* ctx) {
  const auto* sort = static_cast<const SortNode*>(node.get());
  MAGICDB_ASSIGN_OR_RETURN(Planned child,
                           PlanNode(node->children()[0], ctx));
  // Interesting orders: skip the sort entirely when the child already
  // delivers the requested (ascending, column-reference) order.
  if (options_->interesting_orders &&
      sort->keys().size() <= child.order_cols.size()) {
    bool satisfied = true;
    for (size_t i = 0; i < sort->keys().size(); ++i) {
      const SortNode::SortKey& k = sort->keys()[i];
      if (!k.ascending || k.expr->kind() != ExprKind::kColumnRef ||
          static_cast<const ColumnRefExpr*>(k.expr.get())->index() !=
              child.order_cols[i]) {
        satisfied = false;
        break;
      }
    }
    if (satisfied) {
      Planned p = child;
      p.schema = node->schema();
      return p;
    }
  }
  Planned p = child;
  p.schema = node->schema();
  p.order_cols.clear();
  for (const SortNode::SortKey& k : sort->keys()) {
    if (!k.ascending || k.expr->kind() != ExprKind::kColumnRef) break;
    p.order_cols.push_back(
        static_cast<const ColumnRefExpr*>(k.expr.get())->index());
  }
  p.est.cost += costs::Sort(child.est.rows, child.est.width_bytes,
                            options_->memory_budget_bytes);
  std::vector<SortOp::SortKey> keys;
  keys.reserve(sort->keys().size());
  for (const SortNode::SortKey& k : sort->keys()) {
    keys.push_back({k.expr, k.ascending});
  }
  BuildFn child_build = child.build;
  p.build = [child_build, keys]() -> StatusOr<OpPtr> {
    MAGICDB_ASSIGN_OR_RETURN(OpPtr c, child_build());
    return OpPtr(std::make_unique<SortOp>(std::move(c), keys));
  };
  return p;
}

StatusOr<Planned> Optimizer::Impl::PlanFilterSetRef(const LogicalPtr& node,
                                                    PlanContext* ctx) {
  const auto* ref = static_cast<const FilterSetRefNode*>(node.get());
  auto it = ctx->filter_set_rows.find(ref->binding_id());
  if (it == ctx->filter_set_rows.end()) {
    return Status::Internal("filter set cardinality not assumed for " +
                            ref->binding_id());
  }
  const double rows = it->second;
  Planned p;
  p.schema = node->schema();
  p.est.rows = rows;
  p.est.width_bytes = p.schema.TupleWidthBytes();
  p.est.cost = costs::SpoolRead(rows, p.est.width_bytes);
  p.distinct.assign(p.schema.num_columns(), std::max(1.0, rows));
  std::string binding = ref->binding_id();
  Schema schema = p.schema;
  p.build = [binding, schema]() -> StatusOr<OpPtr> {
    return OpPtr(std::make_unique<FilterSetScanOp>(binding, schema));
  };
  return p;
}

StatusOr<Planned> Optimizer::Impl::PlanFilterSetProbe(const LogicalPtr& node,
                                                      PlanContext* ctx) {
  const auto* probe = static_cast<const FilterSetProbeNode*>(node.get());
  MAGICDB_ASSIGN_OR_RETURN(Planned child,
                           PlanNode(node->children()[0], ctx));
  auto it = ctx->filter_set_rows.find(probe->binding_id());
  if (it == ctx->filter_set_rows.end()) {
    return Status::Internal("filter set cardinality not assumed for " +
                            probe->binding_id());
  }
  const double filter_rows = it->second;
  double fpr = 0.0;
  auto fit = ctx->filter_set_fpr.find(probe->binding_id());
  if (fit != ctx->filter_set_fpr.end()) fpr = fit->second;

  const double key_domain =
      ProductCapped(child.distinct, probe->key_columns(), child.est.rows);
  double selectivity = key_domain > 0
                           ? std::min(1.0, filter_rows / key_domain)
                           : 1.0;
  selectivity = selectivity + (1.0 - selectivity) * fpr;

  Planned p;
  p.schema = node->schema();
  p.est.rows = child.est.rows * selectivity;
  p.est.width_bytes = child.est.width_bytes;
  p.est.cost = child.est.cost + costs::HashProbe(child.est.rows, 0.0);
  p.distinct = ScaleDistinct(child.distinct, child.est.rows, p.est.rows);
  for (int kc : probe->key_columns()) {
    p.distinct[kc] = std::min(p.distinct[kc], std::max(1.0, filter_rows));
  }
  std::string binding = probe->binding_id();
  std::vector<int> keys = probe->key_columns();
  BuildFn child_build = child.build;
  p.build = [child_build, binding, keys]() -> StatusOr<OpPtr> {
    MAGICDB_ASSIGN_OR_RETURN(OpPtr c, child_build());
    return OpPtr(
        std::make_unique<FilterProbeOp>(std::move(c), binding, keys));
  };
  return p;
}

// ----- Selectivity estimation -----

double Optimizer::Impl::ConjunctSelectivity(const ExprPtr& conjunct,
                                            const std::vector<double>& distinct,
                                            const TableStats* stats,
                                            double rows) const {
  if (!conjunct) return 1.0;
  const Expr* e = conjunct.get();
  switch (e->kind()) {
    case ExprKind::kComparison: {
      ColumnComparison cc;
      if (MatchColumnComparison(*e, &cc)) {
        const int col = cc.column;
        const CompareOp op = cc.op;
        const Value& lit = *cc.literal;
        const ColumnStats* cs =
            (stats != nullptr && col < static_cast<int>(stats->columns.size()))
                ? &stats->columns[col]
                : nullptr;
        auto num = lit.AsNumeric();
        if (cs != nullptr && cs->numeric && !cs->histogram.empty() &&
            num.ok()) {
          switch (op) {
            case CompareOp::kEq:
              return std::clamp(cs->histogram.FractionEqual(*num), 0.0, 1.0);
            case CompareOp::kNe:
              return std::clamp(1.0 - cs->histogram.FractionEqual(*num), 0.0,
                                1.0);
            case CompareOp::kLt:
              return cs->histogram.FractionBelow(*num);
            case CompareOp::kLe:
              return std::clamp(cs->histogram.FractionBelow(*num) +
                                    cs->histogram.FractionEqual(*num),
                                0.0, 1.0);
            case CompareOp::kGt:
              return std::clamp(1.0 - cs->histogram.FractionBelow(*num) -
                                    cs->histogram.FractionEqual(*num),
                                0.0, 1.0);
            case CompareOp::kGe:
              return std::clamp(1.0 - cs->histogram.FractionBelow(*num), 0.0,
                                1.0);
          }
        }
        // No histogram: distinct-based equality, 1/3 ranges.
        const double d =
            col < static_cast<int>(distinct.size()) ? distinct[col] : rows;
        if (op == CompareOp::kEq) return 1.0 / std::max(1.0, d);
        if (op == CompareOp::kNe) return 1.0 - 1.0 / std::max(1.0, d);
        return 1.0 / 3.0;
      }
      const auto* cmp = static_cast<const ComparisonExpr*>(e);
      const Expr* l = cmp->left().get();
      const Expr* r = cmp->right().get();
      if (l->kind() == ExprKind::kColumnRef &&
          r->kind() == ExprKind::kColumnRef) {
        const int cl = static_cast<const ColumnRefExpr*>(l)->index();
        const int cr = static_cast<const ColumnRefExpr*>(r)->index();
        const double dl =
            cl < static_cast<int>(distinct.size()) ? distinct[cl] : rows;
        const double dr =
            cr < static_cast<int>(distinct.size()) ? distinct[cr] : rows;
        if (cmp->op() == CompareOp::kEq) {
          return 1.0 / std::max({1.0, dl, dr});
        }
        return 1.0 / 3.0;
      }
      return 1.0 / 3.0;
    }
    case ExprKind::kLogical: {
      const auto* logical = static_cast<const LogicalExpr*>(e);
      if (logical->op() == LogicalOp::kNot) {
        return std::clamp(
            1.0 - ConjunctSelectivity(logical->left(), distinct, stats, rows),
            0.0, 1.0);
      }
      const double sl =
          ConjunctSelectivity(logical->left(), distinct, stats, rows);
      const double sr =
          ConjunctSelectivity(logical->right(), distinct, stats, rows);
      if (logical->op() == LogicalOp::kAnd) return sl * sr;
      return std::clamp(sl + sr - sl * sr, 0.0, 1.0);
    }
    case ExprKind::kLiteral: {
      const auto* lit = static_cast<const LiteralExpr*>(e);
      if (lit->value().type() == DataType::kBool) {
        return lit->value().AsBool() ? 1.0 : 0.0;
      }
      return 1.0;
    }
    default:
      return 1.0 / 3.0;
  }
}

namespace {

/// The histogram of a numeric column of `stats`, or nullptr.
const ColumnStats* NumericStats(const TableStats* stats, int col) {
  if (stats == nullptr || col < 0 ||
      col >= static_cast<int>(stats->columns.size())) {
    return nullptr;
  }
  const ColumnStats& cs = stats->columns[static_cast<size_t>(col)];
  return cs.numeric && !cs.histogram.empty() ? &cs : nullptr;
}

/// One estimate for every conjunct folded into `r`.
double RangeFraction(const EquiDepthHistogram& h, const ColumnRange& r) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return h.FractionBetween(r.lo.is_null() ? -kInf : *r.lo.AsNumeric(),
                           r.hi.is_null() ? kInf : *r.hi.AsNumeric(),
                           r.lo_inclusive, r.hi_inclusive);
}

}  // namespace

double Optimizer::Impl::LocalSelectivity(const std::vector<ExprPtr>& preds,
                                         const std::vector<double>& distinct,
                                         const TableStats* stats,
                                         double rows) const {
  // A column bounded by several conjuncts is estimated once, as one
  // interval, at the position of its first conjunct; its other conjuncts
  // add nothing. Every other conjunct keeps its own estimate, multiplied
  // in predicate order.
  std::vector<const ColumnRange*> first_of(preds.size(), nullptr);
  std::vector<bool> folded(preds.size(), false);
  std::vector<ColumnRange> ranges;
  if (stats != nullptr) ranges = ExtractColumnRanges(preds);
  for (const ColumnRange& r : ranges) {
    if (r.conjuncts.size() < 2 || NumericStats(stats, r.column) == nullptr) {
      continue;
    }
    first_of[r.conjuncts[0]] = &r;
    for (size_t i : r.conjuncts) folded[i] = true;
  }
  double sel = 1.0;
  for (size_t i = 0; i < preds.size(); ++i) {
    if (first_of[i] != nullptr) {
      sel *= RangeFraction(NumericStats(stats, first_of[i]->column)->histogram,
                           *first_of[i]);
    } else if (!folded[i]) {
      sel *= ConjunctSelectivity(preds[i], distinct, stats, rows);
    }
  }
  return sel;
}

double Optimizer::Impl::ReadFraction(const std::vector<ExprPtr>& preds,
                                     const std::vector<double>& distinct,
                                     const TableStats* stats,
                                     double rows) const {
  if (stats == nullptr) return 1.0;
  double f = 1.0;
  for (const ColumnRange& r : ExtractColumnRanges(preds)) {
    const ColumnStats* cs = NumericStats(stats, r.column);
    if (cs == nullptr) continue;
    const double s =
        r.conjuncts.size() == 1
            ? ConjunctSelectivity(preds[r.conjuncts[0]], distinct, stats, rows)
            : RangeFraction(cs->histogram, r);
    f = std::min(f, std::min(1.0, s + cs->zone_span));
  }
  return f;
}

}  // namespace magicdb
