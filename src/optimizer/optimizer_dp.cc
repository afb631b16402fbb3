#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/exec/basic_ops.h"
#include "src/exec/exchange_op.h"
#include "src/exec/filter_join_op.h"
#include "src/exec/function_ops.h"
#include "src/exec/join_ops.h"
#include "src/exec/scan_ops.h"
#include "src/optimizer/join_order_backend.h"
#include "src/optimizer/optimizer_impl.h"

namespace magicdb {

using optimizer_internal::AccessKind;
using optimizer_internal::BuildFn;
using optimizer_internal::InputInfo;
using optimizer_internal::JoinGraph;
using optimizer_internal::JoinStep;
using optimizer_internal::JoinStepPtr;
using optimizer_internal::PairFacts;
using optimizer_internal::PartialPlan;
using optimizer_internal::Planned;
using optimizer_internal::PricedSteps;
using optimizer_internal::StepMethod;
using optimizer_internal::StepMethodName;

namespace optimizer_internal {

std::string InputFeedbackKey(const InputInfo& in) {
  switch (in.access) {
    case AccessKind::kLocalTable:
    case AccessKind::kRemoteTable:
      return FeedbackScanKey("scan", in.entry->name, in.local_preds);
    case AccessKind::kView:
      return FeedbackScanKey("view", in.entry->name, in.local_preds);
    case AccessKind::kSubplan:
      return FeedbackScanKey("sub", in.alias, in.local_preds);
    case AccessKind::kFunction:
    case AccessKind::kFilterSetRef:
      break;
  }
  return "";
}

}  // namespace optimizer_internal

namespace {

bool IsPrefixOf(const std::vector<int>& prefix, const std::vector<int>& of) {
  if (prefix.size() > of.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (prefix[i] != of[i]) return false;
  }
  return true;
}

/// Whether an incumbent of `cands` is at most as costly as a candidate of
/// (cost, order) and provides at least its order (order as a prefix).
bool Dominated(const std::vector<PartialPlan>& cands, double cost,
               const std::vector<int>& order) {
  for (const PartialPlan& c : cands) {
    if (c.cost <= cost && IsPrefixOf(order, c.order_cols)) return true;
  }
  return false;
}

void InsertCandidate(std::vector<PartialPlan>* cands, PartialPlan cand) {
  if (Dominated(*cands, cand.cost, cand.order_cols)) return;
  cands->erase(std::remove_if(cands->begin(), cands->end(),
                              [&](const PartialPlan& c) {
                                return cand.cost <= c.cost &&
                                       IsPrefixOf(c.order_cols,
                                                  cand.order_cols);
                              }),
               cands->end());
  cands->push_back(std::move(cand));
}

int LayoutPos(const std::vector<int>& layout, int block_col) {
  for (size_t i = 0; i < layout.size(); ++i) {
    if (layout[i] == block_col) return static_cast<int>(i);
  }
  return -1;
}

ExprPtr RemapBlockExpr(const ExprPtr& expr, const std::vector<int>& layout,
                       int num_block_cols) {
  std::vector<int> mapping(num_block_cols, -1);
  for (size_t pos = 0; pos < layout.size(); ++pos) {
    mapping[layout[pos]] = static_cast<int>(pos);
  }
  return expr->RemapColumns(mapping);
}

double BloomFprFor(double bits_per_key) {
  const double k = std::max(1.0, std::floor(bits_per_key * 0.69));
  return std::pow(1.0 - std::exp(-k / bits_per_key), k);
}

/// Chain of (input, method) pairs outermost-first for a left-deep tree.
std::vector<std::pair<int, StepMethod>> ExtractChain(const JoinStep& root) {
  std::vector<std::pair<int, StepMethod>> chain;
  const JoinStep* s = &root;
  while (s != nullptr) {
    chain.emplace_back(s->input, s->method);
    s = s->outer.get();
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

}  // namespace

// ----- DP driver -----

StatusOr<PartialPlan> Optimizer::Impl::RunDP(const JoinGraph& graph,
                                             PlanContext* ctx,
                                             bool allow_filter_join) {
  const int n = static_cast<int>(graph.inputs.size());
  if (n == 1) return AccessPlan(graph, 0);

  const uint32_t full = (1u << n) - 1;
  std::vector<std::vector<PartialPlan>> table(1u << n);
  for (int i = 0; i < n; ++i) {
    const InputInfo& in = graph.inputs[i];
    if (in.access == AccessKind::kFunction) continue;
    auto seed = AccessPlan(graph, i);
    if (seed.ok()) table[1u << i].push_back(std::move(*seed));
    // Ordered-index scans: alternative seeds that provide an interesting
    // order at a small traversal surcharge.
    if (options_->interesting_orders &&
        in.access == AccessKind::kLocalTable) {
      for (const auto& seed_cols : OrderedIndexColumnSets(in)) {
        auto ordered = OrderedAccessPlan(graph, i, seed_cols);
        if (ordered.ok()) {
          InsertCandidate(&table[1u << i], std::move(*ordered));
        }
      }
    }
  }

  // Every applicable priced step is a DP entry, but only one that no
  // incumbent of its subset dominates is built and inserted.
  PairFacts facts;
  PricedSteps priced;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (table[mask].empty()) continue;
    for (const PartialPlan& cand : table[mask]) {
      for (int j = 0; j < n; ++j) {
        if ((mask & (1u << j)) != 0) continue;
        const int count =
            PricePair(graph, cand, j, allow_filter_join, ctx, &facts, &priced);
        std::vector<PartialPlan>& target = table[facts.new_set];
        for (int k = 0; k < count; ++k) {
          stats_->dp_entries += 1;
          if (Dominated(target, priced[k].cost, priced[k].order)) continue;
          InsertCandidate(&target,
                          MaterializeStep(graph, cand, facts, priced[k]));
        }
      }
    }
  }

  if (table[full].empty()) {
    return Status::InvalidArgument(
        "no feasible join plan (is a table function missing argument "
        "bindings?)");
  }
  const PartialPlan* best = &table[full][0];
  for (const PartialPlan& p : table[full]) {
    if (p.cost < best->cost) best = &p;
  }
  return *best;
}

StatusOr<PartialPlan> Optimizer::Impl::RecostWithForcedFilterJoins(
    const JoinGraph& graph, const PartialPlan& chain_plan, PlanContext* ctx) {
  const std::vector<std::pair<int, StepMethod>> chain =
      ExtractChain(*chain_plan.step);
  MAGICDB_ASSIGN_OR_RETURN(PartialPlan cur,
                           AccessPlan(graph, chain[0].first));
  for (size_t i = 1; i < chain.size(); ++i) {
    const auto& [input, method] = chain[i];
    const InputInfo& in = graph.inputs[input];
    const bool virtual_inner = in.access == AccessKind::kView ||
                               in.access == AccessKind::kSubplan ||
                               in.access == AccessKind::kRemoteTable ||
                               in.access == AccessKind::kFunction;
    bool done = false;
    if (virtual_inner) {
      auto fj = CostJoinStep(graph, cur, input, StepMethod::kFilterJoin, ctx);
      if (fj.ok()) {
        cur = std::move(*fj);
        done = true;
      }
    }
    if (!done) {
      MAGICDB_ASSIGN_OR_RETURN(cur,
                               CostJoinStep(graph, cur, input, method, ctx));
    }
  }
  return cur;
}

// ----- Join block planning -----

StatusOr<Planned> Optimizer::Impl::PlanJoinBlock(const LogicalPtr& node,
                                                 PlanContext* ctx) {
  const auto* join = static_cast<const NaryJoinNode*>(node.get());
  MAGICDB_ASSIGN_OR_RETURN(JoinGraph graph, BuildJoinGraph(*join, ctx));

  const JoinOrderBackend* backend =
      FindJoinOrderBackend(options_->join_order_backend);
  if (backend == nullptr) {
    return Status::InvalidArgument("unknown join_order_backend: \"" +
                                   options_->join_order_backend + "\"");
  }

  PartialPlan best;
  switch (options_->magic_mode) {
    case OptimizerOptions::MagicMode::kCostBased: {
      MAGICDB_ASSIGN_OR_RETURN(best, backend->Order(this, graph, ctx, true));
      break;
    }
    case OptimizerOptions::MagicMode::kNever: {
      MAGICDB_ASSIGN_OR_RETURN(best, backend->Order(this, graph, ctx, false));
      break;
    }
    case OptimizerOptions::MagicMode::kAlwaysOnVirtual: {
      MAGICDB_ASSIGN_OR_RETURN(PartialPlan plain,
                               backend->Order(this, graph, ctx, false));
      auto forced = RecostWithForcedFilterJoins(graph, plain, ctx);
      best = (forced.ok() && forced->cost < plain.cost) ? std::move(*forced)
                                                        : std::move(plain);
      break;
    }
  }

  // The join tree's output layout permutes block columns (outer-first); a
  // projection restores the NaryJoin schema order unless they already
  // match.
  std::vector<int> identity(graph.num_block_cols);
  for (int i = 0; i < graph.num_block_cols; ++i) identity[i] = i;
  const bool needs_projection = best.step->output_block_cols != identity;

  Planned p;
  p.schema = node->schema();
  p.est.rows = best.rows;
  p.est.width_bytes = p.schema.TupleWidthBytes();
  p.est.cost = best.cost;
  if (needs_projection) {
    p.est.cost +=
        costs::ExprEval(best.rows * static_cast<double>(graph.num_block_cols));
  }
  p.distinct = best.distinct;
  p.order_cols = best.order_cols;  // block space == NaryJoin output space

  if (collect_breakdowns_) {
    std::vector<FilterJoinCostBreakdown> found;
    for (const JoinStep* s = best.step.get(); s != nullptr;
         s = s->outer.get()) {
      if (s->method == StepMethod::kFilterJoin) found.push_back(s->breakdown);
    }
    chosen_filter_joins_.insert(chosen_filter_joins_.end(), found.begin(),
                                found.end());
  }

  auto shared_graph = std::make_shared<JoinGraph>(std::move(graph));
  JoinStepPtr chain = best.step;
  PlanContext ctx_copy = *ctx;
  Impl* self = this;
  Schema out_schema = p.schema;
  p.build = [self, shared_graph, chain, ctx_copy,
             needs_projection, out_schema]() -> StatusOr<OpPtr> {
    PlanContext local_ctx = ctx_copy;
    MAGICDB_ASSIGN_OR_RETURN(OpPtr op,
                             self->BuildStep(*shared_graph, *chain,
                                             &local_ctx));
    if (!needs_projection) return op;
    std::vector<ExprPtr> exprs;
    exprs.reserve(out_schema.num_columns());
    for (int c = 0; c < out_schema.num_columns(); ++c) {
      const int pos = LayoutPos(chain->output_block_cols, c);
      MAGICDB_CHECK(pos >= 0);
      exprs.push_back(MakeColumnRef(pos, out_schema.column(c).type,
                                    out_schema.column(c).QualifiedName()));
    }
    return OpPtr(
        std::make_unique<ProjectOp>(std::move(op), exprs, out_schema));
  };
  return p;
}

// ----- Physical construction -----

StatusOr<OpPtr> Optimizer::Impl::BuildStep(const JoinGraph& graph,
                                           const JoinStep& step,
                                           PlanContext* ctx) {
  if (step.method == StepMethod::kAccess) {
    const InputInfo& in = graph.inputs[step.input];
    if (!step.ordered_scan_cols.empty()) {
      const OrderedIndex* index =
          in.entry->table->FindOrderedIndex(step.ordered_scan_cols);
      if (index == nullptr) {
        return Status::Internal("ordered index disappeared during planning");
      }
      OpPtr scan = std::make_unique<OrderedIndexScanOp>(in.entry->table,
                                                        index, in.alias);
      if (!in.local_preds.empty()) {
        scan = std::make_unique<FilterOp>(std::move(scan),
                                          ConjoinAll(in.local_preds));
      }
      return scan;
    }
    return in.planned.build();
  }
  MAGICDB_ASSIGN_OR_RETURN(OpPtr outer_op,
                           BuildStep(graph, *step.outer, ctx));
  const InputInfo& inner = graph.inputs[step.input];
  const std::vector<int>& out_layout = step.output_block_cols;
  const std::vector<int>& outer_layout = step.outer->output_block_cols;
  const int outer_width = static_cast<int>(outer_layout.size());

  // Residual conjuncts remapped from block space to the concat layout.
  std::vector<ExprPtr> residuals;
  for (const ExprPtr& r : step.residuals) {
    residuals.push_back(RemapBlockExpr(r, out_layout, graph.num_block_cols));
  }
  ExprPtr residual = ConjoinAll(residuals);

  std::vector<int> outer_keys;
  std::vector<int> inner_keys;
  for (const auto& [ocol, icol] : step.keys) {
    const int pos = LayoutPos(outer_layout, ocol);
    MAGICDB_CHECK(pos >= 0);
    outer_keys.push_back(pos);
    inner_keys.push_back(icol);
  }

  switch (step.method) {
    case StepMethod::kAccess:
      return Status::Internal("unreachable");

    case StepMethod::kNestedLoops: {
      MAGICDB_ASSIGN_OR_RETURN(OpPtr inner_op, inner.planned.build());
      return OpPtr(std::make_unique<NestedLoopsJoinOp>(
          std::move(outer_op), std::move(inner_op), residual));
    }

    case StepMethod::kHash: {
      MAGICDB_ASSIGN_OR_RETURN(OpPtr inner_op, inner.planned.build());
      auto hj = std::make_unique<HashJoinOp>(
          std::move(outer_op), std::move(inner_op), outer_keys, inner_keys,
          residual);
      const std::string fkey = InputFeedbackKey(inner);
      if (!fkey.empty()) {
        hj->AnnotateBuildCardinality(fkey, inner.planned.est.rows,
                                     IsOverlayKey(fkey));
      }
      return OpPtr(std::move(hj));
    }

    case StepMethod::kSortMerge: {
      MAGICDB_ASSIGN_OR_RETURN(OpPtr inner_op, inner.planned.build());
      return OpPtr(std::make_unique<SortMergeJoinOp>(
          std::move(outer_op), std::move(inner_op), outer_keys, inner_keys,
          residual, step.smj_outer_presorted));
    }

    case StepMethod::kIndexNL: {
      std::vector<int> index_cols = inner_keys;
      const HashIndex* index = inner.entry->table->FindHashIndex(index_cols);
      if (index == nullptr) {
        return Status::Internal("index disappeared during planning");
      }
      // Local predicates of the inner table run as residuals above the
      // probe (shifted into the concat layout).
      std::vector<ExprPtr> inl_residuals = residuals;
      for (const ExprPtr& p : inner.local_preds) {
        std::vector<int> mapping(inner.schema.num_columns());
        for (int c = 0; c < inner.schema.num_columns(); ++c) {
          mapping[c] = outer_width + c;
        }
        inl_residuals.push_back(p->RemapColumns(mapping));
      }
      return OpPtr(std::make_unique<IndexNestedLoopsJoinOp>(
          std::move(outer_op), inner.entry->table, index, outer_keys,
          ConjoinAll(inl_residuals),
          /*remote_probe=*/inner.site != kLocalSite, inner.alias));
    }

    case StepMethod::kFnProbe:
    case StepMethod::kFnMemo: {
      return OpPtr(std::make_unique<FunctionProbeJoinOp>(
          std::move(outer_op), inner.entry->function, outer_keys, residual,
          /*memoize=*/step.method == StepMethod::kFnMemo));
    }

    case StepMethod::kFilterJoin: {
      OpPtr inner_op;
      switch (inner.access) {
        case AccessKind::kLocalTable:
        case AccessKind::kRemoteTable: {
          std::vector<int> probe_keys = inner_keys;
          if (!step.filter_key_positions.empty()) {
            probe_keys.clear();
            for (int pos : step.filter_key_positions) {
              probe_keys.push_back(inner_keys[pos]);
            }
          }
          OpPtr scan =
              std::make_unique<SeqScanOp>(inner.entry->table, inner.alias);
          inner_op = std::make_unique<FilterProbeOp>(
              std::move(scan), step.binding_id, probe_keys);
          if (!inner.local_preds.empty()) {
            inner_op = std::make_unique<FilterOp>(
                std::move(inner_op), ConjoinAll(inner.local_preds));
          }
          if (inner.access == AccessKind::kRemoteTable) {
            inner_op = std::make_unique<ShipOp>(std::move(inner_op),
                                                inner.site, kLocalSite);
          }
          break;
        }
        case AccessKind::kFunction: {
          Schema key_schema;
          for (int icol : inner_keys) {
            key_schema.AddColumn(inner.schema.column(icol));
          }
          OpPtr keys_scan = std::make_unique<FilterSetScanOp>(
              step.binding_id, key_schema);
          inner_op = std::make_unique<FunctionCallOp>(std::move(keys_scan),
                                                      inner.entry->function);
          break;
        }
        case AccessKind::kView:
        case AccessKind::kSubplan: {
          MAGICDB_CHECK(step.rewritten_inner != nullptr);
          PlanContext restricted_ctx = *ctx;
          restricted_ctx.filter_set_rows[step.binding_id] =
              std::max(1.0, step.breakdown.filter_set_size);
          restricted_ctx.filter_set_fpr[step.binding_id] =
              step.fs_impl == FilterSetImpl::kBloom
                  ? BloomFprFor(options_->bloom_bits_per_key)
                  : 0.0;
          const bool saved = collect_breakdowns_;
          collect_breakdowns_ = false;
          auto planned = PlanNode(step.rewritten_inner, &restricted_ctx);
          collect_breakdowns_ = saved;
          if (!planned.ok()) return planned.status();
          MAGICDB_ASSIGN_OR_RETURN(inner_op, planned->build());
          if (!inner.local_preds.empty()) {
            inner_op = std::make_unique<FilterOp>(
                std::move(inner_op), ConjoinAll(inner.local_preds));
          }
          break;
        }
        case AccessKind::kFilterSetRef:
          return Status::Internal(
              "filter join over a filter-set reference is not supported");
      }
      const int ship_site =
          inner.access == AccessKind::kRemoteTable ? inner.site : 0;
      auto fj = std::make_unique<FilterJoinOp>(
          std::move(outer_op), std::move(inner_op), step.binding_id,
          outer_keys, inner_keys, residual, step.fs_impl, ship_site,
          options_->bloom_bits_per_key, step.filter_key_positions);
      fj->AnnotateInnerCardinality("fj:" + step.binding_id,
                                   step.breakdown.restricted_rows);
      return OpPtr(std::move(fj));
    }
  }
  return Status::Internal("unhandled join method");
}

// ----- Exhaustive enumeration for Figure 3 (E2) -----

StatusOr<std::vector<JoinOrderCost>> Optimizer::Impl::EnumerateOrders(
    const NaryJoinNode& join, PlanContext* ctx) {
  MAGICDB_ASSIGN_OR_RETURN(JoinGraph graph, BuildJoinGraph(join, ctx));
  const int n = static_cast<int>(graph.inputs.size());
  if (n > 8) {
    return Status::InvalidArgument(
        "EnumerateJoinOrders supports at most 8 inputs");
  }
  std::vector<int> perm(n);
  for (int i = 0; i < n; ++i) perm[i] = i;

  std::vector<JoinOrderCost> results;
  PairFacts facts;
  PricedSteps priced;
  do {
    JoinOrderCost joc;
    bool feasible = true;
    for (int mode = 0; mode < 2 && feasible; ++mode) {
      const bool allow_fj = mode == 1;
      auto cur = AccessPlan(graph, perm[0]);
      if (!cur.ok()) {
        feasible = false;
        break;
      }
      std::string methods = graph.inputs[perm[0]].alias;
      PartialPlan plan = std::move(*cur);
      for (int k = 1; k < n && feasible; ++k) {
        const int count =
            PricePair(graph, plan, perm[k], allow_fj, ctx, &facts, &priced);
        int best = -1;
        for (int m = 0; m < count; ++m) {
          if (best < 0 || priced[m].cost < priced[best].cost) best = m;
        }
        if (best < 0) {
          feasible = false;
          break;
        }
        plan = MaterializeStep(graph, plan, facts, priced[best]);
        methods += std::string(" *") + StepMethodName(priced[best].method) +
                   "* " + graph.inputs[perm[k]].alias;
      }
      if (!feasible) break;
      if (allow_fj) {
        joc.cost_with_filter_join = plan.cost;
        joc.methods_with = methods;
      } else {
        joc.cost_without_filter_join = plan.cost;
        joc.methods_without = methods;
      }
    }
    if (!feasible) continue;
    for (int i = 0; i < n; ++i) {
      joc.order.push_back(graph.inputs[perm[i]].alias);
    }
    results.push_back(std::move(joc));
  } while (std::next_permutation(perm.begin(), perm.end()));
  return results;
}

}  // namespace magicdb
