#ifndef MAGICDB_OPTIMIZER_COST_MODEL_H_
#define MAGICDB_OPTIMIZER_COST_MODEL_H_

#include <cstdint>
#include <string>

#include "src/common/cost_counters.h"

namespace magicdb {

/// Cost/cardinality estimate for producing a tuple stream once. Costs are
/// in page-I/O units (see CostConstants); rows are fractional estimates.
struct Estimate {
  double cost = 0.0;
  double rows = 0.0;
  int64_t width_bytes = 8;

  double Pages() const { return PagesForRowsD(rows, width_bytes); }

  /// Fractional-page analogue of PagesForRows for estimates.
  static double PagesForRowsD(double rows, int64_t width_bytes);
};

/// Pure cost formulas shared by every join-method costing path. They mirror
/// exactly what the executor charges (see the operator implementations), so
/// predicted and measured costs are comparable component by component.
namespace costs {

/// Scan of a stored table that reads a fraction `read_fraction` of its
/// pages and rows (1 = a full scan; less when the zone map skips pages):
/// ceil(read_fraction * pages) page reads plus per-tuple CPU on
/// read_fraction * rows. `dop` > 1 models morsel-driven parallel
/// execution: the per-tuple CPU term divides by the degree of parallelism
/// (workers scan disjoint morsels concurrently) while the page term is
/// unchanged — the same pages are read regardless of who reads them, and
/// the counters measure totals, not elapsed time.
double SeqScan(double rows, int64_t width_bytes, int dop = 1,
               double read_fraction = 1.0);

/// Spooling `rows` tuples to a temporary (page writes).
double MaterializeWrite(double rows, int64_t width_bytes);

/// Replaying a spool (page reads + tuple CPU).
double SpoolRead(double rows, int64_t width_bytes);

/// Hash-table build over `rows`. `dop` > 1 divides the CPU term: the build
/// is partitioned across workers (each staging a disjoint slice).
double HashBuild(double rows, int dop = 1);

/// `probes` hash probes plus `out_rows` emitted join tuples. `dop` > 1
/// divides the CPU terms (probes route to partitions in parallel).
double HashProbe(double probes, double out_rows, int dop = 1);

/// Hash aggregation over `input_rows` input rows: one hash op per row,
/// `exprs` expression evaluations (group keys + aggregate arguments), and
/// per-group output CPU for `groups` groups. `dop` > 1 divides all three
/// CPU terms: workers accumulate morsel-local partial tables and merge
/// disjoint key-hash partitions concurrently (two-phase aggregation), so
/// both the accumulate and the merge scale with the gang. At dop=1 this is
/// exactly HashBuild + ExprEval + TupleCpu.
double HashAggregate(double input_rows, double exprs, double groups,
                     int dop = 1);

/// In-memory sort of `rows` (n log2 n comparisons) plus the expected
/// external merge passes (write + read each) if the data exceeds
/// `memory_budget_bytes`.
double Sort(double rows, int64_t width_bytes, int64_t memory_budget_bytes);

/// Per-tuple CPU for passing `rows` through an operator.
double TupleCpu(double rows);

/// Predicate evaluation over `rows`.
double ExprEval(double rows);

/// Shipping `rows` tuples of `width_bytes` across sites: one connection
/// message, one message per page of payload, per-byte cost.
double Ship(double rows, int64_t width_bytes);

/// Shipping a blob of `bytes` (e.g. a Bloom filter) across sites.
double ShipBytes(double bytes);

/// One index probe returning `matches` rows from an unclustered index.
double IndexProbe(double matches);

/// Remote probe surcharge (System R* fetch-matches): round-trip messages
/// plus key/result bytes.
double RemoteProbe(double key_bytes, double matches, int64_t row_width);

/// `invocations` table-function calls.
double FunctionInvoke(double invocations);

/// Extra cost of a hash join whose build side exceeds the memory budget:
/// the expected Grace partitioning passes (write + read each) over both
/// inputs, where each pass divides partitions by the spill fanout. Zero
/// when the build fits.
double HashSpill(double build_rows, int64_t build_width, double probe_rows,
                 int64_t probe_width, int64_t memory_budget_bytes);

/// Extra cost of a hash aggregation whose input exceeds the memory budget:
/// the expected partitioning passes (write + read each) over the input.
/// Zero when the input fits.
double AggregateSpill(double input_rows, int64_t width_bytes,
                      int64_t memory_budget_bytes);

}  // namespace costs

/// Expected number of distinct values observed after `draws` samples (with
/// replacement) from a domain of `domain` equally likely values — the
/// with-replacement Yao variant the optimizer uses to size filter sets
/// produced by distinct projection of a join result.
double ExpectedDistinct(double domain, double draws);

/// The seven cost components of a Filter Join (Table 1 of the paper). The
/// total join-step cost excludes JoinCost_P, which the DP accounts for as
/// the outer plan's cost.
struct FilterJoinCostBreakdown {
  double join_cost_p = 0.0;      // cost of computing the outer (context)
  double production_cost = 0.0;  // ProductionCost_P: materialize P
  double proj_cost = 0.0;        // ProjCost_F: distinct projection
  double avail_cost_f = 0.0;     // AvailCost_F: materialize/ship F
  double filter_cost_rk = 0.0;   // FilterCost_Rk: restricted inner
  double avail_cost_rk = 0.0;    // AvailCost_Rk': materialize/ship R_k'
  double final_join_cost = 0.0;  // FinalJoinCost: P join R_k'

  /// Derived estimates the costing produced along the way.
  double filter_set_size = 0.0;  // |F|
  double restricted_rows = 0.0;  // |R_k'|
  /// Production-set choice: -1 = full outer (Limitation 2); otherwise the
  /// number of outer inputs in the chosen prefix (Limitation-2 ablation).
  int production_prefix_len = -1;
  /// Number of join attributes contributing to the filter set (a partial
  /// SIPS omits some, trading selectivity for a cheaper filter).
  int filter_key_count = 0;

  /// Join-step cost (everything except JoinCost_P).
  double StepTotal() const {
    return production_cost + proj_cost + avail_cost_f + filter_cost_rk +
           avail_cost_rk + final_join_cost;
  }

  std::string ToString() const;
};

}  // namespace magicdb

#endif  // MAGICDB_OPTIMIZER_COST_MODEL_H_
