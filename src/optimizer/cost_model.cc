#include "src/optimizer/cost_model.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace magicdb {

double Estimate::PagesForRowsD(double rows, int64_t width_bytes) {
  if (rows <= 0) return 0.0;
  const double rpp = static_cast<double>(RowsPerPage(width_bytes));
  return std::ceil(rows / rpp);
}

namespace costs {

double SeqScan(double rows, int64_t width_bytes, int dop,
               double read_fraction) {
  const double d = dop > 1 ? static_cast<double>(dop) : 1.0;
  return std::ceil(read_fraction *
                   Estimate::PagesForRowsD(rows, width_bytes)) +
         CostConstants::kCpuTupleCost * read_fraction * rows / d;
}

double MaterializeWrite(double rows, int64_t width_bytes) {
  return Estimate::PagesForRowsD(rows, width_bytes);
}

double SpoolRead(double rows, int64_t width_bytes) {
  return Estimate::PagesForRowsD(rows, width_bytes) +
         CostConstants::kCpuTupleCost * rows;
}

double HashBuild(double rows, int dop) {
  const double d = dop > 1 ? static_cast<double>(dop) : 1.0;
  return CostConstants::kCpuHashCost * rows / d;
}

double HashProbe(double probes, double out_rows, int dop) {
  const double d = dop > 1 ? static_cast<double>(dop) : 1.0;
  return (CostConstants::kCpuHashCost * probes +
          CostConstants::kCpuTupleCost * out_rows) /
         d;
}

double HashAggregate(double input_rows, double exprs, double groups,
                     int dop) {
  const double d = dop > 1 ? static_cast<double>(dop) : 1.0;
  return (CostConstants::kCpuHashCost * input_rows +
          CostConstants::kCpuExprCost * exprs +
          CostConstants::kCpuTupleCost * groups) /
         d;
}

double Sort(double rows, int64_t width_bytes, int64_t memory_budget_bytes) {
  if (rows <= 1) return 0.0;
  double cost =
      CostConstants::kCpuExprCost * rows * std::ceil(std::log2(rows));
  const double bytes = rows * static_cast<double>(width_bytes);
  if (bytes > static_cast<double>(memory_budget_bytes)) {
    // One full write + read of the data per expected external merge pass.
    const double passes = static_cast<double>(
        SpillPasses(bytes, static_cast<double>(memory_budget_bytes)));
    cost += 2.0 * passes * Estimate::PagesForRowsD(rows, width_bytes);
  }
  return cost;
}

double TupleCpu(double rows) { return CostConstants::kCpuTupleCost * rows; }

double ExprEval(double rows) { return CostConstants::kCpuExprCost * rows; }

double Ship(double rows, int64_t width_bytes) {
  if (rows <= 0) return 0.0;
  const double bytes = rows * static_cast<double>(width_bytes);
  // One connection/open message plus one per page of payload; a trailing
  // partial page ships as a short message too (ShipOp flushes it at Close),
  // hence the ceil.
  const double messages =
      1.0 + std::ceil(bytes / CostConstants::kPageSizeBytes);
  return CostConstants::kMessageCost * messages +
         CostConstants::kBytePerCost * bytes;
}

double ShipBytes(double bytes) {
  if (bytes <= 0) return 0.0;
  const double messages =
      1.0 + std::floor(bytes / CostConstants::kPageSizeBytes);
  return CostConstants::kMessageCost * messages +
         CostConstants::kBytePerCost * bytes;
}

double IndexProbe(double matches) {
  // One hash op + one page to reach the bucket, one page + CPU per match.
  return CostConstants::kCpuHashCost + 1.0 +
         matches * (1.0 + CostConstants::kCpuTupleCost);
}

double RemoteProbe(double key_bytes, double matches, int64_t row_width) {
  return 2.0 * CostConstants::kMessageCost +
         CostConstants::kBytePerCost *
             (key_bytes + matches * static_cast<double>(row_width));
}

double FunctionInvoke(double invocations) {
  return CostConstants::kFunctionInvokeCost * invocations;
}

double HashSpill(double build_rows, int64_t build_width, double probe_rows,
                 int64_t probe_width, int64_t memory_budget_bytes) {
  const double build_bytes = build_rows * static_cast<double>(build_width);
  if (build_bytes <= static_cast<double>(memory_budget_bytes)) return 0.0;
  // Both inputs are rewritten once per recursive partitioning pass (the
  // passes Grace hash partitioning needs to shrink each build partition
  // under budget at the configured fanout).
  const double passes = static_cast<double>(
      SpillPasses(build_bytes, static_cast<double>(memory_budget_bytes)));
  return 2.0 * passes * (Estimate::PagesForRowsD(build_rows, build_width) +
                         Estimate::PagesForRowsD(probe_rows, probe_width));
}

double AggregateSpill(double input_rows, int64_t width_bytes,
                      int64_t memory_budget_bytes) {
  const double bytes = input_rows * static_cast<double>(width_bytes);
  if (bytes <= static_cast<double>(memory_budget_bytes)) return 0.0;
  // Partitioning passes when the aggregation input exceeds memory (mirrors
  // the executor's Grace-style charge).
  const double passes = static_cast<double>(
      SpillPasses(bytes, static_cast<double>(memory_budget_bytes)));
  return 2.0 * passes * Estimate::PagesForRowsD(input_rows, width_bytes);
}

}  // namespace costs

double ExpectedDistinct(double domain, double draws) {
  if (domain <= 0 || draws <= 0) return 0.0;
  if (domain <= 1) return 1.0;
  // d * (1 - (1 - 1/d)^k), numerically stable via expm1/log1p.
  const double log_miss = draws * std::log1p(-1.0 / domain);
  return domain * -std::expm1(log_miss);
}

std::string FilterJoinCostBreakdown::ToString() const {
  std::ostringstream os;
  os << "FilterJoin{JoinCost_P=" << join_cost_p
     << " ProductionCost_P=" << production_cost << " ProjCost_F=" << proj_cost
     << " AvailCost_F=" << avail_cost_f
     << " FilterCost_Rk=" << filter_cost_rk
     << " AvailCost_Rk'=" << avail_cost_rk
     << " FinalJoinCost=" << final_join_cost << " | step_total=" << StepTotal()
     << " |F|=" << filter_set_size << " |Rk'|=" << restricted_rows << "}";
  return os.str();
}

}  // namespace magicdb
