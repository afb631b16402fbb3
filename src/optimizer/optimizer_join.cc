#include <algorithm>
#include <cmath>
#include <functional>

#include "src/common/logging.h"
#include "src/exec/basic_ops.h"
#include "src/exec/exchange_op.h"
#include "src/exec/filter_join_op.h"
#include "src/exec/function_ops.h"
#include "src/exec/join_ops.h"
#include "src/exec/scan_ops.h"
#include "src/optimizer/optimizer_impl.h"
#include "src/rewrite/magic_rewrite.h"

namespace magicdb {

using optimizer_internal::AccessKind;
using optimizer_internal::BuildFn;
using optimizer_internal::Conjunct;
using optimizer_internal::EquiEdge;
using optimizer_internal::InputInfo;
using optimizer_internal::JoinGraph;
using optimizer_internal::JoinStep;
using optimizer_internal::JoinStepPtr;
using optimizer_internal::PairFacts;
using optimizer_internal::ParametricCache;
using optimizer_internal::PartialPlan;
using optimizer_internal::Planned;
using optimizer_internal::PricedStep;
using optimizer_internal::StepMethod;
using optimizer_internal::StepMethodName;

namespace {

constexpr double kInapplicable = -1.0;

double ProductCappedAt(const std::vector<double>& distinct,
                       const std::vector<int>& cols, double cap) {
  double d = 1.0;
  for (int c : cols) {
    d *= std::max(1.0, distinct[c]);
    if (d > cap) break;
  }
  return std::max(1.0, std::min(d, std::max(1.0, cap)));
}

/// Bloom filter false-positive rate for the configured bits/key.
double BloomFpr(double bits_per_key) {
  const double k = std::max(1.0, std::floor(bits_per_key * 0.69));
  return std::pow(1.0 - std::exp(-k / bits_per_key), k);
}

}  // namespace

// ----- Join graph construction -----

StatusOr<JoinGraph> Optimizer::Impl::BuildJoinGraph(const NaryJoinNode& join,
                                                    PlanContext* ctx) {
  JoinGraph graph;
  graph.block_schema = join.schema();
  graph.num_block_cols = graph.block_schema.num_columns();

  const int n = static_cast<int>(join.children().size());
  if (n > 16) {
    return Status::InvalidArgument("join blocks are limited to 16 inputs");
  }
  int offset = 0;
  for (int i = 0; i < n; ++i) {
    InputInfo in;
    in.id = i;
    in.node = join.children()[i];
    in.schema = in.node->schema();
    in.col_offset = offset;
    offset += in.schema.num_columns();
    switch (in.node->kind()) {
      case LogicalKind::kRelScan: {
        const auto* scan = static_cast<const RelScanNode*>(in.node.get());
        in.alias = scan->alias();
        MAGICDB_ASSIGN_OR_RETURN(in.entry,
                                 catalog_->Lookup(scan->relation_name()));
        switch (in.entry->kind) {
          case CatalogEntry::Kind::kBaseTable:
            in.access = AccessKind::kLocalTable;
            break;
          case CatalogEntry::Kind::kRemoteTable:
            in.access = AccessKind::kRemoteTable;
            in.site = in.entry->site;
            break;
          case CatalogEntry::Kind::kView:
            in.access = AccessKind::kView;
            break;
          case CatalogEntry::Kind::kTableFunction:
            in.access = AccessKind::kFunction;
            break;
        }
        break;
      }
      case LogicalKind::kFilterSetRef:
        in.access = AccessKind::kFilterSetRef;
        in.alias = "filterset";
        break;
      default:
        in.access = AccessKind::kSubplan;
        in.alias = "subplan" + std::to_string(i);
        break;
    }
    graph.inputs.push_back(std::move(in));
  }

  // Classify the predicate's conjuncts.
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(join.predicate(), &conjuncts);
  auto input_of_col = [&graph](int col) {
    for (const InputInfo& in : graph.inputs) {
      if (col >= in.col_offset &&
          col < in.col_offset + in.schema.num_columns()) {
        return in.id;
      }
    }
    return -1;
  };
  for (const ExprPtr& c : conjuncts) {
    std::vector<int> refs;
    c->CollectColumnRefs(&refs);
    uint32_t mask = 0;
    for (int col : refs) {
      const int in = input_of_col(col);
      if (in < 0) {
        return Status::Internal("predicate references unknown column");
      }
      mask |= 1u << in;
    }
    if (mask != 0 && (mask & (mask - 1)) == 0) {
      // Single input: local predicate, remapped into input space.
      InputInfo& in = graph.inputs[static_cast<int>(std::log2(mask))];
      std::vector<int> mapping(graph.num_block_cols, -1);
      for (int col = in.col_offset;
           col < in.col_offset + in.schema.num_columns(); ++col) {
        mapping[col] = col - in.col_offset;
      }
      in.local_preds.push_back(c->RemapColumns(mapping));
      continue;
    }
    Conjunct conj;
    conj.expr = c;
    conj.mask = mask;
    if (c->kind() == ExprKind::kComparison) {
      const auto* cmp = static_cast<const ComparisonExpr*>(c.get());
      if (cmp->op() == CompareOp::kEq &&
          cmp->left()->kind() == ExprKind::kColumnRef &&
          cmp->right()->kind() == ExprKind::kColumnRef) {
        const int lcol =
            static_cast<const ColumnRefExpr*>(cmp->left().get())->index();
        const int rcol =
            static_cast<const ColumnRefExpr*>(cmp->right().get())->index();
        const int lin = input_of_col(lcol);
        const int rin = input_of_col(rcol);
        if (lin != rin) {
          conj.is_equi = true;
          conj.equi_edge = static_cast<int>(graph.edges.size());
          graph.edges.push_back(EquiEdge{
              static_cast<int>(graph.conjuncts.size()), lin, rin, lcol, rcol});
        }
      }
    }
    graph.conjuncts.push_back(std::move(conj));
  }

  // Transitive closure of the equi edges: union-find over block columns,
  // then implied edges between same-class columns of different inputs that
  // lack a direct edge. Without these, the Figure-3 orders that join
  // transitively-equal relations first degenerate into cross products.
  graph.col_class.resize(graph.num_block_cols);
  for (int c = 0; c < graph.num_block_cols; ++c) graph.col_class[c] = c;
  std::function<int(int)> find = [&](int c) {
    while (graph.col_class[c] != c) {
      graph.col_class[c] = graph.col_class[graph.col_class[c]];
      c = graph.col_class[c];
    }
    return c;
  };
  for (const EquiEdge& e : graph.edges) {
    graph.col_class[find(e.left_col)] = find(e.right_col);
  }
  const size_t direct_edges = graph.edges.size();
  for (int a = 0; a < graph.num_block_cols; ++a) {
    for (int b = a + 1; b < graph.num_block_cols; ++b) {
      if (find(a) != find(b)) continue;
      const int ia = input_of_col(a);
      const int ib = input_of_col(b);
      if (ia == ib) continue;
      bool direct = false;
      for (size_t k = 0; k < direct_edges; ++k) {
        const EquiEdge& e = graph.edges[k];
        if ((e.left_col == a && e.right_col == b) ||
            (e.left_col == b && e.right_col == a)) {
          direct = true;
          break;
        }
      }
      if (direct) continue;
      Conjunct implied;
      implied.expr = MakeComparison(
          CompareOp::kEq,
          MakeColumnRef(a, graph.block_schema.column(a).type,
                        graph.block_schema.column(a).QualifiedName()),
          MakeColumnRef(b, graph.block_schema.column(b).type,
                        graph.block_schema.column(b).QualifiedName()));
      implied.mask = (1u << ia) | (1u << ib);
      implied.is_equi = true;
      implied.equi_edge = static_cast<int>(graph.edges.size());
      graph.edges.push_back(EquiEdge{
          static_cast<int>(graph.conjuncts.size()), ia, ib, a, b});
      graph.conjuncts.push_back(std::move(implied));
    }
  }
  for (int c = 0; c < graph.num_block_cols; ++c) {
    graph.col_class[c] = find(c);
  }

  // Access paths for every input.
  for (InputInfo& in : graph.inputs) {
    const int ncols = in.schema.num_columns();
    switch (in.access) {
      case AccessKind::kLocalTable:
      case AccessKind::kRemoteTable: {
        const Table* table = in.entry->table;
        const TableStats* stats =
            in.entry->stats_valid ? &in.entry->stats : nullptr;
        in.base_rows = stats != nullptr
                           ? static_cast<double>(stats->num_rows)
                           : static_cast<double>(table->NumRows());
        in.base_distinct.resize(ncols);
        for (int c = 0; c < ncols; ++c) {
          in.base_distinct[c] =
              stats != nullptr
                  ? static_cast<double>(stats->columns[c].num_distinct)
                  : in.base_rows;
        }
        double sel = LocalSelectivity(in.local_preds, in.base_distinct, stats,
                                      in.base_rows);
        // An observed cardinality for this exact (table, local predicates)
        // stream overrides the stats estimate; the derived selectivity and
        // the distinct counts below follow the corrected row count.
        if (overlay_ != nullptr) {
          const double* observed =
              overlay_->Find(optimizer_internal::InputFeedbackKey(in));
          if (observed != nullptr && in.base_rows > 0.0) {
            sel = *observed / in.base_rows;
          }
        }
        in.local_selectivity = sel;
        in.planned.schema = in.schema;
        in.planned.est.rows = in.base_rows * sel;
        in.planned.est.width_bytes = in.schema.TupleWidthBytes();
        // The scan evaluates the local conjuncts itself and reads only the
        // pages its zones do not rule out.
        const double read_fraction = ReadFraction(
            in.local_preds, in.base_distinct, stats, in.base_rows);
        in.planned.est.cost =
            costs::SeqScan(in.base_rows, in.planned.est.width_bytes,
                           options_->degree_of_parallelism, read_fraction);
        if (!in.local_preds.empty()) {
          in.planned.est.cost += costs::ExprEval(read_fraction * in.base_rows);
        }
        in.planned.distinct.resize(ncols);
        for (int c = 0; c < ncols; ++c) {
          in.planned.distinct[c] =
              sel >= 1.0 ? in.base_distinct[c]
                         : std::max(1.0, YaoEstimate(
                               static_cast<int64_t>(in.base_rows),
                               static_cast<int64_t>(
                                   std::max(1.0, in.base_distinct[c])),
                               static_cast<int64_t>(
                                   std::max(1.0, in.planned.est.rows))));
        }
        if (in.access == AccessKind::kRemoteTable) {
          in.planned.est.cost +=
              costs::Ship(in.planned.est.rows, in.planned.est.width_bytes);
        }
        const std::string alias = in.alias;
        const int site = in.site;
        ExprPtr local = ConjoinAll(in.local_preds);
        const bool remote = in.access == AccessKind::kRemoteTable;
        in.planned.build = [table, alias, local, remote,
                            site]() -> StatusOr<OpPtr> {
          OpPtr op = std::make_unique<SeqScanOp>(table, alias, local);
          if (remote) {
            op = std::make_unique<ShipOp>(std::move(op), site, kLocalSite);
          }
          return op;
        };
        break;
      }
      case AccessKind::kView:
      case AccessKind::kSubplan:
      case AccessKind::kFilterSetRef: {
        Planned base;
        if (in.access == AccessKind::kView) {
          auto it = view_cache_.find(in.entry->name);
          if (it != view_cache_.end()) {
            base = it->second;
          } else {
            stats_->nested_optimizations += 1;
            MAGICDB_ASSIGN_OR_RETURN(base,
                                     PlanNode(in.entry->view_plan, ctx));
            view_cache_[in.entry->name] = base;
          }
        } else {
          MAGICDB_ASSIGN_OR_RETURN(base, PlanNode(in.node, ctx));
        }
        in.base_rows = base.est.rows;
        in.base_distinct = base.distinct;
        double sel = 1.0;
        for (const ExprPtr& p : in.local_preds) {
          sel *=
              ConjunctSelectivity(p, base.distinct, nullptr, base.est.rows);
        }
        in.planned = base;
        in.planned.schema = in.schema;
        // As for tables: an observed row count for this (view, predicates)
        // stream overrides the nested estimate — including when there are no
        // local predicates at all, where the plain nested plan is kept but
        // its cardinality is corrected.
        bool override_rows = false;
        if (overlay_ != nullptr) {
          const double* observed =
              overlay_->Find(optimizer_internal::InputFeedbackKey(in));
          if (observed != nullptr && base.est.rows > 0.0) {
            sel = *observed / base.est.rows;
            override_rows = true;
          }
        }
        in.local_selectivity = sel;
        if (!in.local_preds.empty() || override_rows) {
          if (!in.local_preds.empty()) {
            in.planned.est.cost += costs::ExprEval(base.est.rows);
          }
          in.planned.est.rows = base.est.rows * sel;
          in.planned.distinct.resize(ncols);
          for (int c = 0; c < ncols; ++c) {
            in.planned.distinct[c] =
                sel >= 1.0
                    ? std::max(1.0, base.distinct[c])
                    : std::max(
                          1.0, YaoEstimate(static_cast<int64_t>(base.est.rows),
                                           static_cast<int64_t>(std::max(
                                               1.0, base.distinct[c])),
                                           static_cast<int64_t>(std::max(
                                               1.0, in.planned.est.rows))));
          }
          if (!in.local_preds.empty()) {
            ExprPtr local = ConjoinAll(in.local_preds);
            BuildFn base_build = base.build;
            in.planned.build = [base_build, local]() -> StatusOr<OpPtr> {
              MAGICDB_ASSIGN_OR_RETURN(OpPtr op, base_build());
              return OpPtr(std::make_unique<FilterOp>(std::move(op), local));
            };
          }
        }
        break;
      }
      case AccessKind::kFunction: {
        // Functions have no standalone access path; they join as inners.
        in.base_rows = in.entry->function->ExpectedRowsPerInvocation();
        in.planned.schema = in.schema;
        in.planned.est.rows = in.base_rows;
        in.planned.est.width_bytes = in.schema.TupleWidthBytes();
        in.planned.distinct.assign(ncols, 1.0);
        break;
      }
    }
  }

  // Filter Join eligibility and parametric caches, decided once per input.
  for (InputInfo& in : graph.inputs) {
    switch (in.access) {
      case AccessKind::kLocalTable:
        in.fj_eligible = options_->filter_join_on_stored;
        break;
      case AccessKind::kRemoteTable:
      case AccessKind::kFunction:
        in.fj_eligible = true;
        break;
      case AccessKind::kView:
        in.fj_eligible = !PlanContainsFilterSet(*in.entry->view_plan);
        break;
      case AccessKind::kSubplan:
        in.fj_eligible = !PlanContainsFilterSet(*in.node);
        break;
      case AccessKind::kFilterSetRef:
        in.fj_eligible = false;
        break;
    }
    if (in.fj_eligible && (in.access == AccessKind::kView ||
                           in.access == AccessKind::kSubplan)) {
      in.parametric = &parametric_[{in.node.get(), in.alias}];
    }
  }
  return graph;
}

// ----- DP seeds -----

StatusOr<PartialPlan> Optimizer::Impl::AccessPlan(const JoinGraph& graph,
                                                  int input_id) {
  const InputInfo& in = graph.inputs[input_id];
  if (in.access == AccessKind::kFunction) {
    return Status::InvalidArgument(
        "table function cannot be accessed standalone");
  }
  PartialPlan p;
  p.set = 1u << input_id;
  p.cost = in.planned.est.cost;
  p.rows = in.planned.est.rows;
  p.width = in.planned.est.width_bytes;
  p.distinct.assign(graph.num_block_cols, 0.0);
  for (int c = 0; c < in.schema.num_columns(); ++c) {
    p.distinct[in.col_offset + c] = in.planned.distinct[c];
  }
  auto step = std::make_shared<JoinStep>();
  step->method = StepMethod::kAccess;
  step->input = input_id;
  step->cost = p.cost;
  step->rows = p.rows;
  step->output_block_cols.resize(in.schema.num_columns());
  for (int c = 0; c < in.schema.num_columns(); ++c) {
    step->output_block_cols[c] = in.col_offset + c;
  }
  p.step = step;
  stats_->dp_entries += 1;
  return p;
}

std::vector<std::vector<int>> Optimizer::Impl::OrderedIndexColumnSets(
    const InputInfo& input) {
  std::vector<std::vector<int>> sets;
  if (input.entry == nullptr || input.entry->table == nullptr) return sets;
  // Probe the common single- and two-column prefixes; the Table API only
  // exposes exact-column lookup, so enumerate candidate sets.
  const int ncols = input.schema.num_columns();
  for (int c = 0; c < ncols; ++c) {
    if (input.entry->table->FindOrderedIndex({c}) != nullptr) {
      sets.push_back({c});
    }
    for (int d = 0; d < ncols; ++d) {
      if (d == c) continue;
      if (input.entry->table->FindOrderedIndex({c, d}) != nullptr) {
        sets.push_back({c, d});
      }
    }
  }
  return sets;
}

StatusOr<PartialPlan> Optimizer::Impl::OrderedAccessPlan(
    const JoinGraph& graph, int input_id, const std::vector<int>& index_cols) {
  MAGICDB_ASSIGN_OR_RETURN(PartialPlan p, AccessPlan(graph, input_id));
  const InputInfo& in = graph.inputs[input_id];
  const OrderedIndex* index = in.entry->table->FindOrderedIndex(index_cols);
  if (index == nullptr) {
    return Status::NotFound("no ordered index on the requested columns");
  }
  // Traversal surcharge over the sequential scan.
  p.cost += static_cast<double>(index->ModelledHeight());
  p.order_cols.clear();
  for (int c : index_cols) p.order_cols.push_back(in.col_offset + c);
  auto step = std::make_shared<JoinStep>(*p.step);
  step->ordered_scan_cols = index_cols;
  step->cost = p.cost;
  p.step = step;
  return p;
}

// ----- Join step costing -----
//
// A search prices each (outer, inner) pair in three parts: DerivePairFacts
// computes what every method shares (applied conjuncts, keys,
// selectivities, distinct counts, rows) once per pair; PriceStep turns the
// facts into one method's cumulative cost, rows and order without building
// anything; MaterializeStep allocates the JoinStep and PartialPlan only for
// the candidates the search keeps.

void Optimizer::Impl::DerivePairFacts(const JoinGraph& graph,
                                      const PartialPlan& outer, int inner_id,
                                      PairFacts* f) const {
  const InputInfo& inner = graph.inputs[inner_id];
  const uint32_t inner_bit = 1u << inner_id;
  MAGICDB_CHECK((outer.set & inner_bit) == 0);
  f->inner_id = inner_id;
  f->new_set = outer.set | inner_bit;
  f->keys.clear();
  f->applied.clear();
  f->residuals.clear();
  f->counted_classes.clear();
  f->equi_sel = 1.0;
  f->resid_sel = 1.0;

  // Combined distinct (outer cols + inner cols) for residual selectivity.
  f->combined.assign(outer.distinct.begin(), outer.distinct.end());
  for (int c = 0; c < inner.schema.num_columns(); ++c) {
    f->combined[inner.col_offset + c] = inner.planned.distinct[c];
  }

  // Conjuncts applied at this step: those referencing the inner whose full
  // mask is now covered. Selectivity is counted once per column class.
  for (int id = 0; id < static_cast<int>(graph.conjuncts.size()); ++id) {
    const Conjunct& conj = graph.conjuncts[id];
    if ((conj.mask & inner_bit) == 0) continue;
    if ((conj.mask & ~f->new_set) != 0) continue;
    f->applied.push_back(id);
    if (conj.is_equi) {
      const EquiEdge& e = graph.edges[conj.equi_edge];
      int ocol, icol;
      if (e.left_input == inner_id) {
        ocol = e.right_col;
        icol = e.left_col - inner.col_offset;
      } else {
        ocol = e.left_col;
        icol = e.right_col - inner.col_offset;
      }
      // Keys are deduplicated per inner column; transitively-equal edges
      // (same equivalence class) contribute selectivity only once.
      bool dup_key = false;
      for (const auto& [eo, ei] : f->keys) {
        if (ei == icol) {
          dup_key = true;
          break;
        }
      }
      if (!dup_key) f->keys.emplace_back(ocol, icol);
      const int cls = graph.col_class[inner.col_offset + icol];
      bool counted = false;
      for (int c : f->counted_classes) {
        if (c == cls) {
          counted = true;
          break;
        }
      }
      if (!counted) {
        f->counted_classes.push_back(cls);
        f->equi_sel *= 1.0 / std::max({1.0, outer.distinct[ocol],
                                       inner.planned.distinct[icol]});
      }
      continue;
    }
    f->residuals.push_back(id);
    f->resid_sel *= ConjunctSelectivity(
        conj.expr, f->combined, nullptr,
        outer.rows * std::max(1.0, inner.planned.est.rows));
  }
  std::sort(f->keys.begin(), f->keys.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  f->key_inner_cols.clear();
  for (const auto& [ocol, icol] : f->keys) f->key_inner_cols.push_back(icol);

  f->mid_rows = outer.rows * inner.planned.est.rows * f->equi_sel;
  f->out_rows = f->mid_rows * f->resid_sel;
}

bool Optimizer::Impl::PriceStep(const JoinGraph& graph,
                                const PartialPlan& outer, StepMethod method,
                                PlanContext* ctx, PairFacts* facts,
                                PricedStep* out) {
  stats_->join_steps_costed += 1;
  const PairFacts& f = *facts;
  const InputInfo& inner = graph.inputs[f.inner_id];
  const double inner_rows = inner.planned.est.rows;
  const bool is_function = inner.access == AccessKind::kFunction;
  const bool is_table = inner.access == AccessKind::kLocalTable ||
                        inner.access == AccessKind::kRemoteTable;

  out->method = method;
  out->keys.assign(f.keys.begin(), f.keys.end());
  out->smj_outer_presorted = false;
  out->order.assign(outer.order_cols.begin(), outer.order_cols.end());
  double step_cost = kInapplicable;
  double out_rows = f.out_rows;

  switch (method) {
    case StepMethod::kAccess:
      break;  // not a join method

    case StepMethod::kNestedLoops: {
      if (!options_->enable_nested_loops || is_function) break;
      const double pairs = outer.rows * inner_rows;
      step_cost = outer.rows * inner.planned.est.cost +
                  costs::TupleCpu(pairs) +
                  (f.applied.empty() ? 0.0 : costs::ExprEval(pairs));
      // NL applies every conjunct (keys included) as its predicate.
      out->keys.clear();
      break;
    }

    case StepMethod::kHash: {
      if (!options_->enable_hash_join || is_function || f.keys.empty()) break;
      step_cost = inner.planned.est.cost +
                  costs::HashBuild(inner_rows,
                                   options_->degree_of_parallelism) +
                  costs::HashProbe(outer.rows, f.mid_rows,
                                   options_->degree_of_parallelism) +
                  costs::HashSpill(inner_rows, inner.planned.est.width_bytes,
                                   outer.rows, outer.width,
                                   options_->memory_budget_bytes) +
                  (f.residuals.empty() ? 0.0 : costs::ExprEval(f.mid_rows));
      break;
    }

    case StepMethod::kSortMerge: {
      if (!options_->enable_sort_merge || is_function || f.keys.empty()) {
        break;
      }
      // Interesting orders: when the outer already arrives sorted on the
      // key columns (its order's leading columns are a permutation of the
      // keys), skip sorting the outer and merge directly.
      if (options_->interesting_orders &&
          outer.order_cols.size() >= f.keys.size()) {
        out->keys.clear();
        for (size_t i = 0; i < f.keys.size(); ++i) {
          const int want = outer.order_cols[i];
          for (const auto& kv : f.keys) {
            if (kv.first == want) {
              out->keys.push_back(kv);
              break;
            }
          }
        }
        out->smj_outer_presorted = out->keys.size() == f.keys.size();
        if (!out->smj_outer_presorted) {
          out->keys.assign(f.keys.begin(), f.keys.end());
        }
      }
      step_cost = inner.planned.est.cost +
                  (out->smj_outer_presorted
                       ? 0.0
                       : costs::Sort(outer.rows, outer.width,
                                     options_->memory_budget_bytes)) +
                  costs::Sort(inner_rows, inner.planned.est.width_bytes,
                              options_->memory_budget_bytes) +
                  costs::TupleCpu(f.mid_rows) +
                  (f.residuals.empty() ? 0.0 : costs::ExprEval(f.mid_rows));
      out->order.clear();
      for (const auto& [ocol, icol] : out->keys) out->order.push_back(ocol);
      break;
    }

    case StepMethod::kIndexNL: {
      if (!options_->enable_index_nested_loops || !is_table ||
          f.keys.empty()) {
        break;
      }
      if (inner.entry->table->FindHashIndex(f.key_inner_cols) == nullptr) {
        break;
      }
      // Probes hit the raw table; local predicates become residuals.
      double base_equi_sel = 1.0;
      for (const auto& [ocol, icol] : f.keys) {
        base_equi_sel *= 1.0 / std::max({1.0, outer.distinct[ocol],
                                         inner.base_distinct[icol]});
      }
      const double base_matches = outer.rows * inner.base_rows * base_equi_sel;
      const double matches_per_probe =
          outer.rows > 0 ? base_matches / outer.rows : 0.0;
      step_cost = outer.rows * costs::IndexProbe(matches_per_probe);
      if (!inner.local_preds.empty() || !f.residuals.empty()) {
        step_cost += costs::ExprEval(base_matches);
      }
      if (inner.access == AccessKind::kRemoteTable) {
        const double key_bytes = 8.0 * static_cast<double>(f.keys.size());
        step_cost += outer.rows *
                     costs::RemoteProbe(key_bytes, matches_per_probe,
                                        inner.planned.est.width_bytes);
      }
      out_rows = base_matches * inner.local_selectivity * f.resid_sel;
      break;
    }

    case StepMethod::kFnProbe:
    case StepMethod::kFnMemo: {
      if (!is_function) break;
      // Every argument column must be bound by an equi key; an equality
      // against a result column is applied after the call.
      const int nargs = inner.entry->function->arg_schema().num_columns();
      out->keys.clear();
      for (const auto& kv : f.keys) {
        if (kv.second < nargs) out->keys.push_back(kv);
      }
      if (static_cast<int>(out->keys.size()) != nargs) break;  // unbound args
      const bool has_fn_residuals =
          !f.residuals.empty() || out->keys.size() != f.keys.size();
      const double rpi =
          inner.entry->function->ExpectedRowsPerInvocation();
      const double raw_out = outer.rows * rpi;
      if (method == StepMethod::kFnProbe) {
        step_cost =
            costs::FunctionInvoke(outer.rows) + costs::TupleCpu(raw_out);
      } else {
        std::vector<int> arg_cols;
        for (const auto& [ocol, icol] : out->keys) arg_cols.push_back(ocol);
        const double d_args =
            ProductCappedAt(outer.distinct, arg_cols, outer.rows);
        const double distinct_args = ExpectedDistinct(d_args, outer.rows);
        step_cost = costs::FunctionInvoke(distinct_args) +
                    costs::HashProbe(outer.rows, 0.0) +
                    costs::TupleCpu(raw_out);
      }
      if (has_fn_residuals) step_cost += costs::ExprEval(raw_out);
      out_rows = raw_out * f.resid_sel;
      break;
    }

    case StepMethod::kFilterJoin: {
      StatusOr<double> fj = PriceFilterJoin(graph, outer, ctx, facts, out);
      if (fj.ok()) step_cost = *fj;
      break;
    }
  }

  if (step_cost < 0) return false;
  out->cost = outer.cost + step_cost;
  out->rows = std::max(0.0, out_rows);
  if (!options_->interesting_orders) out->order.clear();
  return true;
}

StatusOr<double> Optimizer::Impl::PriceFilterJoin(const JoinGraph& graph,
                                                  const PartialPlan& outer,
                                                  PlanContext* ctx,
                                                  PairFacts* f,
                                                  PricedStep* out) {
  const InputInfo& inner = graph.inputs[f->inner_id];
  // Bound nesting depth as a backstop: parametric trial planning may
  // recurse into further join blocks.
  if (f->keys.empty() || !inner.fj_eligible || filter_join_depth_ >= 8) {
    return kInapplicable;
  }
  const bool is_function = inner.access == AccessKind::kFunction;
  const bool is_table = inner.access == AccessKind::kLocalTable ||
                        inner.access == AccessKind::kRemoteTable;
  if (is_function) {
    // All argument columns must be filter-set keys, in arg order.
    const int nargs = inner.entry->function->arg_schema().num_columns();
    out->keys.clear();
    for (const auto& kv : f->keys) {
      if (kv.second < nargs) out->keys.push_back(kv);
    }
    if (static_cast<int>(out->keys.size()) != nargs) return kInapplicable;
  }
  const std::vector<std::pair<int, int>>& fj_keys = out->keys;

  // Candidate filter-set implementations (Limitation 3).
  FilterSetImpl impls[2];
  int num_impls = 0;
  if (options_->consider_exact_filter_sets) {
    impls[num_impls++] = FilterSetImpl::kExact;
  }
  if (options_->consider_bloom_filter_sets && !is_function) {
    impls[num_impls++] = FilterSetImpl::kBloom;
  }
  if (num_impls == 0) return kInapplicable;

  double best_cost = kInapplicable;

  f->fj_outer_cols.clear();
  f->fj_inner_cols.clear();
  for (const auto& [ocol, icol] : fj_keys) {
    f->fj_outer_cols.push_back(ocol);
    f->fj_inner_cols.push_back(icol);
  }

  // Filter-key subsets (§2.1/§3.3): subset 0 uses every join attribute;
  // optionally subset i > 0 uses attribute i - 1 alone (lossy-by-omission
  // SIPS). Functions need all arguments bound.
  const int num_keys = static_cast<int>(fj_keys.size());
  const int num_subsets =
      options_->consider_partial_key_filter_sets && !is_function &&
              num_keys > 1
          ? 1 + num_keys
          : 1;

  // Production-set choices. Limitation 2 fixes it to the full outer; the
  // ablation additionally tries every outer-chain prefix that still
  // produces all key columns (Limitation 1), which multiplies costing work
  // by O(chain length).
  f->prod_specs.clear();
  f->prod_specs.push_back({outer.rows, static_cast<double>(outer.width), -1});
  if (options_->explore_prefix_production_sets) {
    for (const JoinStep* s = outer.step->outer.get(); s != nullptr;
         s = s->outer.get()) {
      bool has_all_keys = true;
      for (int kc : f->fj_outer_cols) {
        bool found = false;
        for (int c : s->output_block_cols) {
          if (c == kc) {
            found = true;
            break;
          }
        }
        if (!found) {
          has_all_keys = false;
          break;
        }
      }
      if (!has_all_keys) continue;
      double w = 0;
      for (int c : s->output_block_cols) {
        w += static_cast<double>(
            DataTypeWidth(graph.block_schema.column(c).type));
      }
      int len = 0;
      for (const JoinStep* q = s; q != nullptr; q = q->outer.get()) ++len;
      f->prod_specs.push_back({s->rows, w, len});
    }
  }

  for (int subset = 0; subset < num_subsets; ++subset) {
    std::vector<int>& sub_outer_cols = f->sub_outer_cols;
    std::vector<int>& sub_inner_local = f->sub_inner_cols;
    if (subset == 0) {
      sub_outer_cols.assign(f->fj_outer_cols.begin(), f->fj_outer_cols.end());
      sub_inner_local.assign(f->fj_inner_cols.begin(),
                             f->fj_inner_cols.end());
    } else {
      sub_outer_cols.assign(1, f->fj_outer_cols[subset - 1]);
      sub_inner_local.assign(1, f->fj_inner_cols[subset - 1]);
    }
    int64_t key_width = 0;
    for (int icol : sub_inner_local) {
      key_width += DataTypeWidth(inner.schema.column(icol).type);
    }
    for (int i = 0; i < num_impls; ++i) {
      const FilterSetImpl impl = impls[i];
      for (const PairFacts::ProdSpec& prod : f->prod_specs) {
        stats_->filter_joins_costed += 1;
        FilterJoinCostBreakdown bd;
        bd.production_prefix_len = prod.prefix_len;
        bd.join_cost_p = outer.cost;
        bd.production_cost = costs::MaterializeWrite(
            prod.rows, static_cast<int64_t>(prod.width));
        bd.proj_cost = costs::HashBuild(prod.rows);
        const double d_key_outer =
            ProductCappedAt(outer.distinct, sub_outer_cols, prod.rows);
        const double n_f = ExpectedDistinct(d_key_outer, prod.rows);
        bd.filter_set_size = n_f;
        bd.filter_key_count = static_cast<int>(sub_inner_local.size());
        const double fpr = impl == FilterSetImpl::kBloom
                               ? BloomFpr(options_->bloom_bits_per_key)
                               : 0.0;
        if (impl == FilterSetImpl::kBloom) {
          bd.avail_cost_f = 1.0;  // fixed-size bitmap page
          if (inner.site != kLocalSite) {
            bd.avail_cost_f +=
                CostConstants::kMessageCost +
                CostConstants::kBytePerCost *
                    (options_->bloom_bits_per_key * n_f / 8.0);
          }
        } else {
          bd.avail_cost_f = costs::MaterializeWrite(n_f, key_width);
          if (inner.site != kLocalSite) {
            bd.avail_cost_f += CostConstants::kMessageCost +
                               CostConstants::kBytePerCost * n_f *
                                   static_cast<double>(key_width);
          }
        }

        double restricted_rows = 0.0;
        double filter_cost = 0.0;
        double avail_rk = 0.0;
        const ParametricCache* cache = nullptr;
        int64_t binding_number = -1;

        if (is_table) {
          double d_inner_base = ProductCappedAt(
              inner.base_distinct, sub_inner_local, inner.base_rows);
          double sigma = std::min(1.0, n_f / d_inner_base);
          sigma = sigma + (1.0 - sigma) * fpr;
          const double probed = inner.base_rows * sigma;
          filter_cost =
              costs::SeqScan(inner.base_rows, inner.planned.est.width_bytes) +
              costs::HashProbe(inner.base_rows, 0.0);
          if (!inner.local_preds.empty()) {
            filter_cost += costs::ExprEval(probed);
          }
          restricted_rows = probed * inner.local_selectivity;
          if (inner.access == AccessKind::kRemoteTable) {
            avail_rk =
                costs::Ship(restricted_rows, inner.planned.est.width_bytes);
          }
        } else if (is_function) {
          filter_cost = costs::FunctionInvoke(n_f) +
                        costs::TupleCpu(n_f * inner.base_rows);
          restricted_rows = n_f * inner.base_rows;
          binding_number = next_binding_++;
        } else {
          MAGICDB_RETURN_IF_ERROR(CostRestrictedView(
              inner, sub_inner_local, impl, n_f, fpr, ctx, &cache,
              &filter_cost, &restricted_rows));
        }

        bd.filter_cost_rk = filter_cost;
        bd.avail_cost_rk = avail_rk;
        bd.restricted_rows = restricted_rows;
        // With a prefix production set the full outer is not spooled; the
        // final join probes the outer stream directly.
        const double spool_read =
            prod.prefix_len < 0 ? costs::SpoolRead(outer.rows, outer.width)
                                : 0.0;
        bd.final_join_cost =
            spool_read + costs::HashBuild(restricted_rows) +
            costs::HashProbe(outer.rows, f->mid_rows) +
            costs::HashSpill(restricted_rows, inner.planned.est.width_bytes,
                             outer.rows, outer.width,
                             options_->memory_budget_bytes) +
            (f->residuals.empty() ? 0.0 : costs::ExprEval(f->mid_rows));

        const double total = bd.StepTotal();
        if (best_cost < 0 || total < best_cost) {
          best_cost = total;
          out->breakdown = bd;
          out->fs_impl = impl;
          out->cache = cache;
          out->binding_number = binding_number;
          out->filter_key_position = subset == 0 ? -1 : subset - 1;
        }
      }
    }
  }
  // A stored table's binding id is reserved once its costing succeeds.
  if (best_cost >= 0 && is_table) out->binding_number = next_binding_++;
  return best_cost;
}

Status Optimizer::Impl::CostRestrictedView(const InputInfo& inner,
                                           const std::vector<int>& key_cols,
                                           FilterSetImpl impl, double n_f,
                                           double fpr, PlanContext* ctx,
                                           const ParametricCache** cache,
                                           double* filter_cost,
                                           double* restricted_rows) {
  // Exact filter sets use the join-style rewrite (F can drive the view
  // through an index); Bloom sets can only probe.
  const RewriteStyle style = impl == FilterSetImpl::kBloom
                                 ? RewriteStyle::kProbe
                                 : RewriteStyle::kJoin;
  std::deque<ParametricCache>& caches = *inner.parametric;
  ParametricCache* found = nullptr;
  for (ParametricCache& c : caches) {
    if (c.style == style && c.key_cols == key_cols) {
      found = &c;
      break;
    }
  }
  if (found == nullptr) {
    ParametricCache fresh;
    fresh.key_cols = key_cols;
    fresh.style = style;
    fresh.pinned_node = inner.node;  // keeps the cache key unique
    fresh.binding_id = NextBindingId(inner.alias);
    const LogicalPtr view_plan = inner.access == AccessKind::kView
                                     ? inner.entry->view_plan
                                     : inner.node;
    MAGICDB_ASSIGN_OR_RETURN(fresh.rewritten,
                             MagicRewrite(view_plan, key_cols,
                                          fresh.binding_id, style, catalog_));
    fresh.inner_key_domain = ProductCappedAt(
        inner.base_distinct, key_cols, std::max(1.0, inner.base_rows));
    fresh.samples.assign(
        static_cast<size_t>(std::max(1, options_->equivalence_classes)),
        ParametricCache::Sample{-1.0, 0.0, 0.0});
    found = &caches.emplace_back(std::move(fresh));
  }
  ParametricCache& pc = *found;
  *cache = found;

  double sigma = std::min(1.0, n_f / std::max(1.0, pc.inner_key_domain));
  sigma = sigma + (1.0 - sigma) * fpr;
  // Equivalence classes are log-spaced over [10^-4, 1]: join selectivities
  // vary over orders of magnitude, and a uniform grid would lump every
  // selective case into one coarse class (the paper leaves the classing
  // heuristic open, §4.2).
  constexpr double kDecades = 4.0;
  const int k = static_cast<int>(pc.samples.size());
  const double log_sigma =
      std::log10(std::clamp(sigma, 1e-4, 1.0));  // in [-4, 0]
  int bucket = std::clamp(
      static_cast<int>((log_sigma + kDecades) / kDecades * k), 0, k - 1);
  if (pc.samples[bucket].selectivity < 0) {
    // Miss: nested-plan the rewritten inner at the bucket's (geometric)
    // center.
    stats_->eq_class_misses += 1;
    // The top class is anchored at sigma = 1 (the unrestricted inner), so
    // a useless filter set is costed exactly.
    const double sigma_c =
        bucket == k - 1
            ? 1.0
            : std::pow(10.0, -kDecades + (bucket + 0.5) * kDecades / k);
    PlanContext trial = *ctx;
    trial.filter_set_rows[pc.binding_id] =
        std::max(1.0, sigma_c * pc.inner_key_domain);
    trial.filter_set_fpr[pc.binding_id] = 0.0;
    const bool saved = collect_breakdowns_;
    collect_breakdowns_ = false;
    ++filter_join_depth_;
    auto planned = PlanNode(pc.rewritten, &trial);
    --filter_join_depth_;
    collect_breakdowns_ = saved;
    if (!planned.ok()) return planned.status();
    pc.samples[bucket] =
        ParametricCache::Sample{sigma_c, planned->est.cost, planned->est.rows};
  } else {
    stats_->eq_class_hits += 1;
  }
  // Cardinality: straight-line fit through the computed samples (Figure 4).
  // Cost: the step function of the bucket (Figure 5).
  double sum_s = 0, sum_r = 0, sum_ss = 0, sum_sr = 0;
  int count = 0;
  for (const auto& s : pc.samples) {
    if (s.selectivity < 0) continue;
    sum_s += s.selectivity;
    sum_r += s.rows;
    sum_ss += s.selectivity * s.selectivity;
    sum_sr += s.selectivity * s.rows;
    ++count;
  }
  double rows_at_sigma;
  if (count >= 2 && sum_ss * count - sum_s * sum_s > 1e-12) {
    const double slope =
        (count * sum_sr - sum_s * sum_r) / (count * sum_ss - sum_s * sum_s);
    const double intercept = (sum_r - slope * sum_s) / count;
    rows_at_sigma = std::max(0.0, intercept + slope * sigma);
  } else {
    // One sample: line through the origin.
    const auto& s = pc.samples[bucket];
    rows_at_sigma =
        s.selectivity > 0 ? s.rows * (sigma / s.selectivity) : s.rows;
  }
  *filter_cost = pc.samples[bucket].cost;
  *restricted_rows = std::min(rows_at_sigma, inner.base_rows);
  *restricted_rows *= inner.local_selectivity;
  if (!inner.local_preds.empty()) {
    *filter_cost += costs::ExprEval(rows_at_sigma);
  }
  return Status::OK();
}

int Optimizer::Impl::PricePair(const JoinGraph& graph,
                               const PartialPlan& outer, int inner_id,
                               bool allow_filter_join, PlanContext* ctx,
                               PairFacts* facts, PricedSteps* out) {
  DerivePairFacts(graph, outer, inner_id, facts);
  int priced = 0;
  for (StepMethod method : optimizer_internal::kJoinMethods) {
    if (!MethodConsidered(method, allow_filter_join, *options_)) continue;
    if (PriceStep(graph, outer, method, ctx, facts, &(*out)[priced])) {
      ++priced;
    }
  }
  return priced;
}

PartialPlan Optimizer::Impl::MaterializeStep(const JoinGraph& graph,
                                             const PartialPlan& outer,
                                             const PairFacts& f,
                                             const PricedStep& s) const {
  const InputInfo& inner = graph.inputs[f.inner_id];
  auto step = std::make_shared<JoinStep>();
  step->method = s.method;
  step->input = f.inner_id;
  step->outer = outer.step;
  step->keys = s.keys;
  // NL applies every conjunct as its predicate; the others apply the
  // non-equi ones above their keys.
  const std::vector<int>& conjuncts =
      s.method == StepMethod::kNestedLoops ? f.applied : f.residuals;
  step->residuals.reserve(conjuncts.size());
  for (int id : conjuncts) step->residuals.push_back(graph.conjuncts[id].expr);
  if (s.method == StepMethod::kFnProbe || s.method == StepMethod::kFnMemo) {
    // Equality against a function result column: apply after the call.
    const int nargs = inner.entry->function->arg_schema().num_columns();
    for (const auto& [ocol, icol] : f.keys) {
      if (icol < nargs) continue;
      const Column& oc = graph.block_schema.column(ocol);
      const Column& ic = graph.block_schema.column(inner.col_offset + icol);
      step->residuals.push_back(MakeComparison(
          CompareOp::kEq, MakeColumnRef(ocol, oc.type, oc.QualifiedName()),
          MakeColumnRef(inner.col_offset + icol, ic.type,
                        ic.QualifiedName())));
    }
  }
  step->output_block_cols.reserve(outer.step->output_block_cols.size() +
                                  inner.schema.num_columns());
  step->output_block_cols = outer.step->output_block_cols;
  for (int c = 0; c < inner.schema.num_columns(); ++c) {
    step->output_block_cols.push_back(inner.col_offset + c);
  }
  step->smj_outer_presorted = s.smj_outer_presorted;
  if (s.method == StepMethod::kFilterJoin) {
    step->fs_impl = s.fs_impl;
    if (s.cache != nullptr) {
      step->binding_id = s.cache->binding_id;
      step->rewritten_inner = s.cache->rewritten;
    } else {
      step->binding_id = BindingId(inner.alias, s.binding_number);
    }
    step->breakdown = s.breakdown;
    if (s.filter_key_position >= 0) {
      step->filter_key_positions = {s.filter_key_position};
    }
  }

  PartialPlan result;
  result.set = f.new_set;
  result.cost = s.cost;
  result.rows = s.rows;
  result.width = outer.width + inner.planned.est.width_bytes;
  result.distinct = f.combined;
  for (double& d : result.distinct) {
    d = std::min(d, std::max(1.0, result.rows));
  }
  result.order_cols = s.order;
  step->cost = result.cost;
  step->rows = result.rows;
  result.step = std::move(step);
  return result;
}

StatusOr<PartialPlan> Optimizer::Impl::CostJoinStep(const JoinGraph& graph,
                                                    const PartialPlan& outer,
                                                    int inner_id,
                                                    StepMethod method,
                                                    PlanContext* ctx) {
  PairFacts facts;
  DerivePairFacts(graph, outer, inner_id, &facts);
  PricedStep priced;
  if (!PriceStep(graph, outer, method, ctx, &facts, &priced)) {
    return Status::InvalidArgument("method inapplicable");
  }
  return MaterializeStep(graph, outer, facts, priced);
}

}  // namespace magicdb
