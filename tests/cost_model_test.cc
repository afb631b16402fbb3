#include <gtest/gtest.h>

#include "src/common/cost_counters.h"
#include "src/optimizer/cost_model.h"

namespace magicdb {
namespace {

TEST(EstimateTest, FractionalPages) {
  EXPECT_DOUBLE_EQ(Estimate::PagesForRowsD(0, 8), 0.0);
  EXPECT_DOUBLE_EQ(Estimate::PagesForRowsD(1, 8), 1.0);
  // 512 rows of 8 bytes fill exactly one 4096-byte page.
  EXPECT_DOUBLE_EQ(Estimate::PagesForRowsD(512, 8), 1.0);
  EXPECT_DOUBLE_EQ(Estimate::PagesForRowsD(513, 8), 2.0);
}

TEST(EstimateTest, MatchesIntegerPagesForRows) {
  for (int64_t rows : {0, 1, 100, 512, 513, 10000}) {
    for (int64_t width : {8, 24, 56, 100}) {
      EXPECT_DOUBLE_EQ(Estimate::PagesForRowsD(
                           static_cast<double>(rows), width),
                       static_cast<double>(PagesForRows(rows, width)))
          << rows << "x" << width;
    }
  }
}

TEST(CostsTest, SeqScanComposesPagesAndCpu) {
  const double c = costs::SeqScan(1000, 24);
  EXPECT_DOUBLE_EQ(c, 6.0 + 1000 * CostConstants::kCpuTupleCost);
}

TEST(CostsTest, SeqScanPricesTheFractionItReads) {
  EXPECT_DOUBLE_EQ(costs::SeqScan(1000, 24, 1, 1.0), costs::SeqScan(1000, 24));
  // ceil(0.5 x 6) pages, half the rows.
  EXPECT_DOUBLE_EQ(costs::SeqScan(1000, 24, 1, 0.5),
                   3.0 + 500 * CostConstants::kCpuTupleCost);
  // A part of a page is a page.
  EXPECT_DOUBLE_EQ(costs::SeqScan(1000, 24, 1, 0.1),
                   1.0 + 100 * CostConstants::kCpuTupleCost);
}

TEST(CostsTest, MaterializeAndSpoolAreSymmetricOnPages) {
  EXPECT_DOUBLE_EQ(costs::MaterializeWrite(1000, 24), 6.0);
  EXPECT_DOUBLE_EQ(costs::SpoolRead(1000, 24),
                   6.0 + 1000 * CostConstants::kCpuTupleCost);
}

TEST(CostsTest, SortChargesExternalPassOnlyOverBudget) {
  const double in_memory = costs::Sort(1000, 24, 1 << 20);
  const double external = costs::Sort(1000, 24, 1 << 10);
  EXPECT_GT(external, in_memory);
  // Each merge pass rewrites and rereads the whole input; the number of
  // passes follows the shared SpillPasses model (here 24000 bytes against
  // a 1 KiB budget with fanout 8 needs two passes).
  const int passes = SpillPasses(1000 * 24.0, 1 << 10);
  EXPECT_EQ(passes, 2);
  EXPECT_DOUBLE_EQ(external - in_memory, 2.0 * 6.0 * passes);
  EXPECT_DOUBLE_EQ(costs::Sort(1, 24, 1), 0.0);
}

TEST(CostsTest, ShipScalesWithBytesAndMessages) {
  EXPECT_DOUBLE_EQ(costs::Ship(0, 8), 0.0);
  const double small = costs::Ship(10, 8);
  // 80 bytes: the open message plus one short trailing-page message, plus
  // byte cost (ShipOp flushes the final partial page at Close).
  EXPECT_DOUBLE_EQ(small, 2 * CostConstants::kMessageCost +
                              80 * CostConstants::kBytePerCost);
  // 1000x the data is much costlier, but sub-linearly: the fixed
  // per-message cost dominates the small transfer.
  const double big = costs::Ship(10000, 8);
  EXPECT_GT(big, small * 10);
  EXPECT_LT(big, small * 1000);
}

TEST(CostsTest, RemoteProbeChargesRoundTrip) {
  const double c = costs::RemoteProbe(8, 2, 16);
  EXPECT_DOUBLE_EQ(c, 2 * CostConstants::kMessageCost +
                          CostConstants::kBytePerCost * (8 + 32));
}

TEST(CostsTest, HashSpillZeroWhenFits) {
  EXPECT_DOUBLE_EQ(costs::HashSpill(100, 8, 1000, 8, 1 << 20), 0.0);
  const double spilled = costs::HashSpill(100000, 8, 1000, 8, 1 << 10);
  EXPECT_GT(spilled, 0.0);
  // One write+read pass over both inputs per recursive partitioning pass
  // of the build side (800 KB against a 1 KiB budget recurses 4 deep).
  const int passes = SpillPasses(100000 * 8.0, 1 << 10);
  EXPECT_EQ(passes, 4);
  EXPECT_DOUBLE_EQ(spilled,
                   2.0 * passes *
                       (Estimate::PagesForRowsD(100000, 8) +
                        Estimate::PagesForRowsD(1000, 8)));
}

TEST(CostsTest, IndexProbeGrowsWithMatches) {
  EXPECT_LT(costs::IndexProbe(0), costs::IndexProbe(5));
  EXPECT_DOUBLE_EQ(costs::IndexProbe(0), CostConstants::kCpuHashCost + 1.0);
}

TEST(ExpectedDistinctTest, Boundaries) {
  EXPECT_DOUBLE_EQ(ExpectedDistinct(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(ExpectedDistinct(10, 0), 0.0);
  EXPECT_DOUBLE_EQ(ExpectedDistinct(1, 100), 1.0);
}

TEST(ExpectedDistinctTest, ApproachesDomainWithManyDraws) {
  EXPECT_NEAR(ExpectedDistinct(100, 100000), 100.0, 1e-6);
  EXPECT_LT(ExpectedDistinct(100, 10), 10.0 + 1e-9);
  EXPECT_GT(ExpectedDistinct(100, 10), 9.0);  // few collisions
}

TEST(ExpectedDistinctTest, MonotoneInDraws) {
  double prev = 0;
  for (int k = 1; k < 1000; k *= 2) {
    const double d = ExpectedDistinct(200, k);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(ExpectedDistinctTest, NeverExceedsDrawsOrDomain) {
  for (double domain : {5.0, 50.0, 5000.0}) {
    for (double draws : {1.0, 10.0, 100.0, 100000.0}) {
      const double d = ExpectedDistinct(domain, draws);
      EXPECT_LE(d, domain + 1e-9);
      EXPECT_LE(d, draws + 1e-9);
      EXPECT_GT(d, 0.0);
    }
  }
}

TEST(FilterJoinBreakdownTest, StepTotalSumsComponentsExceptOuter) {
  FilterJoinCostBreakdown bd;
  bd.join_cost_p = 100;  // excluded
  bd.production_cost = 1;
  bd.proj_cost = 2;
  bd.avail_cost_f = 3;
  bd.filter_cost_rk = 4;
  bd.avail_cost_rk = 5;
  bd.final_join_cost = 6;
  EXPECT_DOUBLE_EQ(bd.StepTotal(), 21.0);
  const std::string s = bd.ToString();
  EXPECT_NE(s.find("ProductionCost_P=1"), std::string::npos);
  EXPECT_NE(s.find("FilterCost_Rk=4"), std::string::npos);
}

}  // namespace
}  // namespace magicdb
