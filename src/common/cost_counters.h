#ifndef MAGICDB_COMMON_COST_COUNTERS_H_
#define MAGICDB_COMMON_COST_COUNTERS_H_

#include <cstdint>
#include <string>

namespace magicdb {

/// Unit cost constants shared by the cost model (prediction) and the
/// executor (measurement). The unit of cost is one page I/O; CPU and
/// communication work are weighted into the same unit, System-R style.
struct CostConstants {
  /// Bytes per storage page.
  static constexpr int64_t kPageSizeBytes = 4096;
  /// Cost of touching one tuple on the CPU, in page-I/O units.
  static constexpr double kCpuTupleCost = 0.01;
  /// Extra CPU cost of evaluating one predicate/expression on a tuple.
  static constexpr double kCpuExprCost = 0.002;
  /// Cost of one hash-table insert or probe.
  static constexpr double kCpuHashCost = 0.005;
  /// Fixed cost of one network message, in page-I/O units.
  static constexpr double kMessageCost = 2.0;
  /// Cost of shipping one byte across sites.
  static constexpr double kBytePerCost = 1.0 / kPageSizeBytes;
  /// Cost of invoking a user-defined table function once.
  static constexpr double kFunctionInvokeCost = 5.0;
  /// Partitions per recursive Grace-partitioning level, shared by the spill
  /// subsystem (actual partitioning) and the cost model (predicted passes).
  static constexpr int kSpillFanout = 8;
};

/// Pages occupied by `rows` tuples of `width_bytes` each, under the
/// rows-per-page packing convention shared by storage, executor and cost
/// model: rpp = max(1, page/width); pages = ceil(rows / rpp). Using one
/// helper everywhere keeps predicted and measured page counts identical.
inline int64_t PagesForRows(int64_t rows, int64_t width_bytes) {
  if (rows <= 0) return 0;
  if (width_bytes <= 0) width_bytes = 1;
  const int64_t rows_per_page =
      CostConstants::kPageSizeBytes / width_bytes > 0
          ? CostConstants::kPageSizeBytes / width_bytes
          : 1;
  return (rows + rows_per_page - 1) / rows_per_page;
}

/// Rows that fit on one page for tuples of `width_bytes`.
inline int64_t RowsPerPage(int64_t width_bytes) {
  if (width_bytes <= 0) width_bytes = 1;
  const int64_t rpp = CostConstants::kPageSizeBytes / width_bytes;
  return rpp > 0 ? rpp : 1;
}

/// Grace partitioning passes needed to shrink `bytes` of hashed state under
/// `budget_bytes` with fanout-way splits: 0 when it already fits, else the
/// number of full write+read passes over the data. Shared by the cost model
/// (prediction), the executors' budget heuristics (measurement), and the
/// spill subsystem's recursion (actual passes) — one formula keeps all
/// three consistent.
inline int64_t SpillPasses(double bytes, double budget_bytes,
                           int fanout = CostConstants::kSpillFanout) {
  if (bytes <= 0) return 0;
  if (budget_bytes <= 0) return 1;
  if (bytes <= budget_bytes) return 0;
  int64_t passes = 1;
  double per_partition = bytes / fanout;
  while (per_partition > budget_bytes && passes < 16) {
    ++passes;
    per_partition /= fanout;
  }
  return passes;
}

/// Accumulates the work an execution actually performed, in the same units
/// the optimizer predicts. Experiment E3 (Table 1) compares the two
/// directly. One counter instance is threaded through an execution context.
///
/// Threading contract: a CostCounters instance is SINGLE-WRITER. Counters
/// are plain int64_t fields, deliberately not atomics — the parallel
/// executor gives every worker a private ExecContext (and thus a private
/// instance) and merges them with operator+= at pipeline close, after all
/// workers have finished. Sharing one instance between concurrently
/// charging threads is a data race; the charging protocol (each unit of
/// work charged by exactly one worker) is what makes the merged totals
/// equal a single-threaded execution's, not synchronization.
struct CostCounters {
  int64_t pages_read = 0;
  int64_t pages_written = 0;
  int64_t tuples_processed = 0;
  int64_t exprs_evaluated = 0;
  int64_t hash_operations = 0;
  int64_t messages_sent = 0;
  int64_t bytes_shipped = 0;
  int64_t function_invocations = 0;
  /// Bytes actually written to / read from spill files by this execution.
  /// Informational: the page-I/O cost of spilling is already charged into
  /// pages_written / pages_read, so these do not enter TotalCost(); they
  /// exist so the server can tell spilled queries apart from in-memory ones.
  int64_t spill_bytes_written = 0;
  int64_t spill_bytes_read = 0;

  void Reset() { *this = CostCounters(); }

  /// Total cost in page-I/O units under the shared constants.
  double TotalCost() const {
    return static_cast<double>(pages_read + pages_written) +
           CostConstants::kCpuTupleCost * tuples_processed +
           CostConstants::kCpuExprCost * exprs_evaluated +
           CostConstants::kCpuHashCost * hash_operations +
           CostConstants::kMessageCost * messages_sent +
           CostConstants::kBytePerCost * bytes_shipped +
           CostConstants::kFunctionInvokeCost * function_invocations;
  }

  CostCounters& operator+=(const CostCounters& o) {
    pages_read += o.pages_read;
    pages_written += o.pages_written;
    tuples_processed += o.tuples_processed;
    exprs_evaluated += o.exprs_evaluated;
    hash_operations += o.hash_operations;
    messages_sent += o.messages_sent;
    bytes_shipped += o.bytes_shipped;
    function_invocations += o.function_invocations;
    spill_bytes_written += o.spill_bytes_written;
    spill_bytes_read += o.spill_bytes_read;
    return *this;
  }

  /// Per-counter difference (this - other); used to attribute cost to a
  /// plan phase by snapshotting before and after.
  CostCounters Delta(const CostCounters& before) const {
    CostCounters d;
    d.pages_read = pages_read - before.pages_read;
    d.pages_written = pages_written - before.pages_written;
    d.tuples_processed = tuples_processed - before.tuples_processed;
    d.exprs_evaluated = exprs_evaluated - before.exprs_evaluated;
    d.hash_operations = hash_operations - before.hash_operations;
    d.messages_sent = messages_sent - before.messages_sent;
    d.bytes_shipped = bytes_shipped - before.bytes_shipped;
    d.function_invocations = function_invocations - before.function_invocations;
    d.spill_bytes_written = spill_bytes_written - before.spill_bytes_written;
    d.spill_bytes_read = spill_bytes_read - before.spill_bytes_read;
    return d;
  }

  std::string ToString() const;

  /// Fails (MAGICDB_CHECK) if any counter is negative — the counter-merge
  /// path calls this on every worker's counters before summing, so a
  /// mis-attributed "refund" (a bug class the exactly-once charging
  /// protocol can otherwise hide inside a sum) is caught at the merge.
  void AssertNonNegative() const;
};

/// Charges the Grace partitioning passes an operator's budget heuristic
/// predicts for `bytes` of hashed state: when it exceeds `budget_bytes`,
/// every page of it is written and read once per SpillPasses pass. Returns
/// the pass count, 0 when the state fits.
inline int64_t ChargeSpillPasses(int64_t bytes, int64_t budget_bytes,
                                 CostCounters* counters) {
  if (bytes <= budget_bytes) return 0;
  const int64_t passes = SpillPasses(static_cast<double>(bytes),
                                     static_cast<double>(budget_bytes));
  const int64_t pages = (bytes + CostConstants::kPageSizeBytes - 1) /
                        CostConstants::kPageSizeBytes;
  counters->pages_written += pages * passes;
  counters->pages_read += pages * passes;
  return passes;
}

}  // namespace magicdb

#endif  // MAGICDB_COMMON_COST_COUNTERS_H_
