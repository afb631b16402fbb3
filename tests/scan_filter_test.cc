// The zone map on Table and the filtering SeqScanOp: per-page min/max
// entries maintained by Insert, pages skipped when their zones cannot match
// the predicate's bounds, exact charges for the pages read, cancellation
// while skipping, the kernel conjuncts tested on stored values, and the
// optimizer's range estimate and page cost.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/common/cancellation.h"
#include "src/common/logging.h"
#include "src/db/database.h"
#include "src/exec/basic_ops.h"
#include "src/exec/scan_ops.h"
#include "src/optimizer/cost_model.h"
#include "src/parallel/morsel.h"
#include "src/stats/table_stats.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

// 8 + 8 + 16 bytes: 128 rows per page.
Schema ZoneSchema() {
  return Schema({{"t", "a", DataType::kInt64},
                 {"t", "x", DataType::kDouble},
                 {"t", "s", DataType::kString}});
}

// Row i holds a = i, x = i / 2 and a short string.
std::unique_ptr<Table> SequentialTable(int n) {
  auto t = std::make_unique<Table>("t", ZoneSchema());
  for (int i = 0; i < n; ++i) {
    MAGICDB_CHECK_OK(t->Insert({Value::Int64(i), Value::Double(i / 2.0),
                                Value::String("s" + std::to_string(i % 3))}));
  }
  return t;
}

ExprPtr ColA() { return MakeColumnRef(0, DataType::kInt64, "t.a"); }
ExprPtr ColX() { return MakeColumnRef(1, DataType::kDouble, "t.x"); }

ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  return MakeComparison(op, std::move(l), std::move(r));
}

ExprPtr Int(int64_t v) { return MakeLiteral(Value::Int64(v)); }
ExprPtr Dbl(double v) { return MakeLiteral(Value::Double(v)); }

struct ScanRun {
  std::vector<Tuple> rows;
  CostCounters counters;
};

ScanRun Drain(Operator* op) {
  ExecContext ctx;
  auto rows = ExecuteToVector(op, &ctx);
  MAGICDB_CHECK_OK(rows.status());
  return {std::move(*rows), ctx.counters()};
}

ScanRun FilteringScan(const Table& t, ExprPtr pred) {
  SeqScanOp scan(&t, "", std::move(pred));
  return Drain(&scan);
}

ScanRun FilterOverScan(const Table& t, ExprPtr pred) {
  FilterOp filter(std::make_unique<SeqScanOp>(&t), std::move(pred));
  return Drain(&filter);
}

bool IsNaN(const Value& v) {
  return v.type() == DataType::kDouble && std::isnan(v.AsDouble());
}

// Row identity; Value::Compare does not order NaN, so NaN matches NaN here.
void ExpectSameRows(const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (size_t c = 0; c < a[i].size(); ++c) {
      ASSERT_TRUE((IsNaN(a[i][c]) && IsNaN(b[i][c])) ||
                  a[i][c].Compare(b[i][c]) == 0)
          << "row " << i << " column " << c;
    }
  }
}

void ExpectSameCounters(const CostCounters& a, const CostCounters& b) {
  EXPECT_EQ(a.pages_read, b.pages_read);
  EXPECT_EQ(a.pages_written, b.pages_written);
  EXPECT_EQ(a.tuples_processed, b.tuples_processed);
  EXPECT_EQ(a.exprs_evaluated, b.exprs_evaluated);
  EXPECT_EQ(a.hash_operations, b.hash_operations);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_shipped, b.bytes_shipped);
  EXPECT_EQ(a.function_invocations, b.function_invocations);
  EXPECT_EQ(a.spill_bytes_written, b.spill_bytes_written);
  EXPECT_EQ(a.spill_bytes_read, b.spill_bytes_read);
}

// ----- Zone entries -----

TEST(ZoneMapTest, PerPageMinMaxIncludingPartialLastPage) {
  auto t = SequentialTable(300);  // pages of 128, 128 and 44 rows
  ASSERT_EQ(t->rows_per_page(), 128);
  ASSERT_EQ(t->zones(0).size(), 3u);
  ASSERT_EQ(t->zones(1).size(), 3u);
  EXPECT_TRUE(t->zones(2).empty());  // strings have no zone map
  for (int p = 0; p < 3; ++p) {
    const int64_t first = p * 128;
    const int64_t last = std::min<int64_t>(first + 127, 299);
    const ZoneEntry& za = t->zones(0)[p];
    EXPECT_TRUE(za.has_value);
    EXPECT_FALSE(za.has_nan);
    EXPECT_EQ(za.min, Value::Int64(first));
    EXPECT_EQ(za.max, Value::Int64(last));
    const ZoneEntry& zx = t->zones(1)[p];
    EXPECT_EQ(zx.min, Value::Double(first / 2.0));
    EXPECT_EQ(zx.max, Value::Double(last / 2.0));
  }
}

TEST(ZoneMapTest, EmptyTableHasNoZones) {
  Table t("t", ZoneSchema());
  EXPECT_TRUE(t.zones(0).empty());
  EXPECT_TRUE(t.zones(1).empty());
  SeqScanOp scan(&t, "", Cmp(CompareOp::kGt, ColA(),
                             Int(5)));
  ScanRun run = Drain(&scan);
  EXPECT_TRUE(run.rows.empty());
  EXPECT_EQ(run.counters.pages_read, 0);
}

TEST(ZoneMapTest, UnorderedInsertsKeepMinAndMax) {
  Table t("t", ZoneSchema());
  for (int64_t v : {7, -3, 12, 5}) {
    MAGICDB_CHECK_OK(
        t.Insert({Value::Int64(v), Value::Null(), Value::String("s")}));
  }
  ASSERT_EQ(t.zones(0).size(), 1u);
  EXPECT_EQ(t.zones(0)[0].min, Value::Int64(-3));
  EXPECT_EQ(t.zones(0)[0].max, Value::Int64(12));
  EXPECT_FALSE(t.zones(1)[0].has_value);  // all NULL
}

// ----- NULL and NaN -----

TEST(ScanFilterTest, AllNullPageIsSkippedForAnyComparison) {
  Table t("t", ZoneSchema());
  for (int i = 0; i < 384; ++i) {  // page 1 holds only NULL a values
    const bool null_page = i >= 128 && i < 256;
    MAGICDB_CHECK_OK(
        t.Insert({null_page ? Value::Null() : Value::Int64(i % 10),
                  Value::Double(i), Value::String("s")}));
  }
  for (CompareOp op : {CompareOp::kLt, CompareOp::kGe, CompareOp::kEq}) {
    ExprPtr pred = Cmp(op, ColA(), Int(4));
    ScanRun scan = FilteringScan(t, pred);
    ScanRun ref = FilterOverScan(t, pred);
    ExpectSameRows(scan.rows, ref.rows);
    EXPECT_EQ(scan.counters.pages_read, 2);
    EXPECT_EQ(scan.counters.tuples_processed, 256);
    EXPECT_EQ(scan.counters.exprs_evaluated, 256);
  }
}

TEST(ScanFilterTest, NaNPageIsNeverSkippedOnItsColumn) {
  Table t("t", ZoneSchema());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 256; ++i) {
    // Page 0 holds 0..127 plus one NaN; page 1 holds 1000..1127.
    const double x = i == 5 ? nan : (i < 128 ? i : 1000 + i - 128);
    MAGICDB_CHECK_OK(t.Insert(
        {Value::Int64(i), Value::Double(x), Value::String("s")}));
  }
  EXPECT_TRUE(t.zones(1)[0].has_nan);
  for (CompareOp op : {CompareOp::kGt, CompareOp::kLt}) {
    for (const ExprPtr& pred :
         {Cmp(op, ColX(), Dbl(500)),
          Cmp(op, Dbl(500), ColX())}) {
      SCOPED_TRACE(pred->ToString());
      ScanRun scan = FilteringScan(t, pred);
      ScanRun ref = FilterOverScan(t, pred);
      ExpectSameRows(scan.rows, ref.rows);
      // Page 0 is read whatever the bound: it holds a NaN.
      EXPECT_GE(scan.counters.pages_read, 1);
      EXPECT_LE(scan.counters.pages_read, 2);
    }
  }
  // `x < 500` can rule out page 1 only; page 0 stays for its NaN.
  ScanRun below = FilteringScan(t, Cmp(CompareOp::kLt,
                                       ColX(), Dbl(500)));
  EXPECT_EQ(below.counters.pages_read, 1);
  EXPECT_EQ(below.counters.tuples_processed, 128);
}

// ----- Predicate forms -----

TEST(ScanFilterTest, IntColumnAgainstDoubleLiteral) {
  auto t = SequentialTable(1000);
  ExprPtr pred = Cmp(CompareOp::kGe, ColA(), Dbl(800.5));
  ScanRun scan = FilteringScan(*t, pred);
  ScanRun ref = FilterOverScan(*t, pred);
  ExpectSameRows(scan.rows, ref.rows);
  ASSERT_EQ(scan.rows.size(), 199u);
  // Rows 768..999 sit on pages 6 and 7.
  EXPECT_EQ(scan.counters.pages_read, 2);
  EXPECT_EQ(scan.counters.tuples_processed, 1000 - 768);
}

TEST(ScanFilterTest, LiteralOnTheLeft) {
  auto t = SequentialTable(1000);
  ExprPtr pred = MakeAnd(Cmp(CompareOp::kLe, Int(300), ColA()),
                         Cmp(CompareOp::kGt, Int(400), ColA()));
  ScanRun scan = FilteringScan(*t, pred);
  ScanRun ref = FilterOverScan(*t, pred);
  ExpectSameRows(scan.rows, ref.rows);
  ASSERT_EQ(scan.rows.size(), 100u);
  // 300..399 sit on pages 2 and 3 (256..511).
  EXPECT_EQ(scan.counters.pages_read, 2);
  EXPECT_EQ(scan.counters.tuples_processed, 256);
}

TEST(ScanFilterTest, NotEqualAndOrAreReadButNeverSkip) {
  auto t = SequentialTable(1000);
  for (const ExprPtr& pred :
       {Cmp(CompareOp::kNe, ColA(), Int(3)),
        MakeOr(Cmp(CompareOp::kLt, ColA(), Int(3)),
               Cmp(CompareOp::kGt, ColA(), Int(5000))),
        Cmp(CompareOp::kLt, ColA(),
            ColX()),
        Cmp(CompareOp::kLt,
            MakeArithmetic(ArithOp::kAdd, ColA(), Int(1)),
            Int(3))}) {
    SCOPED_TRACE(pred->ToString());
    ScanRun scan = FilteringScan(*t, pred);
    ScanRun ref = FilterOverScan(*t, pred);
    ExpectSameRows(scan.rows, ref.rows);
    ExpectSameCounters(scan.counters, ref.counters);
    EXPECT_EQ(scan.counters.pages_read, t->NumPages());
  }
}

TEST(ScanFilterTest, ColumnsOutsideThePredicateArriveForSurvivors) {
  auto t = SequentialTable(500);
  ScanRun scan = FilteringScan(
      *t, Cmp(CompareOp::kEq, ColA(), Int(301)));
  ASSERT_EQ(scan.rows.size(), 1u);
  EXPECT_EQ(scan.rows[0][0], Value::Int64(301));
  EXPECT_EQ(scan.rows[0][1], Value::Double(150.5));
  EXPECT_EQ(scan.rows[0][2], Value::String("s1"));
}

// ----- Maintenance -----

TEST(ScanFilterTest, InsertIntoASkippedPageIsSeenByTheNextScan) {
  auto t = SequentialTable(300);
  ExprPtr pred = Cmp(CompareOp::kGe, ColA(), Int(5000));
  SeqScanOp scan(t.get(), "", pred);
  ScanRun before = Drain(&scan);
  EXPECT_TRUE(before.rows.empty());
  EXPECT_EQ(before.counters.pages_read, 0);
  // Row 300 lands on page 2, which the scan above skipped.
  MAGICDB_CHECK_OK(t->Insert(
      {Value::Int64(6000), Value::Double(1.0), Value::String("new")}));
  ScanRun after = Drain(&scan);
  ASSERT_EQ(after.rows.size(), 1u);
  EXPECT_EQ(after.rows[0][0], Value::Int64(6000));
  EXPECT_EQ(after.counters.pages_read, 1);
  EXPECT_EQ(after.counters.tuples_processed, 300 - 256 + 1);
}

// ----- Exact charges -----

TEST(ScanFilterTest, ChargesExactlyThePagesWhoseZonesOverlap) {
  // Values cycle through 0..999 in runs, so pages overlap a bound in an
  // irregular pattern.
  Table t("t", ZoneSchema());
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = (i * 37) % 1000 + (i / 640) * 1000;
    MAGICDB_CHECK_OK(t.Insert(
        {Value::Int64(v), Value::Double(i), Value::String("s")}));
  }
  const int64_t lo = 2500;
  const int64_t hi = 3200;
  ExprPtr pred = MakeAnd(Cmp(CompareOp::kGe, ColA(), Int(lo)),
                         Cmp(CompareOp::kLt, ColA(), Int(hi)));
  int64_t pages = 0;
  int64_t rows = 0;
  for (size_t p = 0; p < t.zones(0).size(); ++p) {
    const ZoneEntry& z = t.zones(0)[p];
    if (z.max.AsInt64() >= lo && z.min.AsInt64() < hi) {
      ++pages;
      const int64_t first = 128 * static_cast<int64_t>(p);
      rows += std::min<int64_t>(128, t.NumRows() - first);
    }
  }
  ASSERT_GT(pages, 0);
  ASSERT_LT(pages, t.NumPages());
  ScanRun scan = FilteringScan(t, pred);
  ScanRun ref = FilterOverScan(t, pred);
  ExpectSameRows(scan.rows, ref.rows);
  EXPECT_EQ(scan.counters.pages_read, pages);
  EXPECT_EQ(scan.counters.tuples_processed, rows);
  EXPECT_EQ(scan.counters.exprs_evaluated, rows);
}

TEST(ScanFilterTest, WhereNothingSkipsCountersEqualFilterOverScan) {
  auto t = SequentialTable(2000);
  // Bounded, but every page holds a matching value.
  Table cyclic("c", ZoneSchema());
  for (int i = 0; i < 2000; ++i) {
    MAGICDB_CHECK_OK(cyclic.Insert(
        {Value::Int64(i % 10), Value::Double(i), Value::String("s")}));
  }
  for (const ExprPtr& pred :
       {Cmp(CompareOp::kLt, ColA(), Int(3)),
        MakeAnd(Cmp(CompareOp::kGe, ColA(), Int(2)),
                Cmp(CompareOp::kLe, ColA(), Int(4)))}) {
    SCOPED_TRACE(pred->ToString());
    ScanRun scan = FilteringScan(cyclic, pred);
    ScanRun ref = FilterOverScan(cyclic, pred);
    ExpectSameRows(scan.rows, ref.rows);
    ExpectSameCounters(scan.counters, ref.counters);
  }
  ScanRun full = FilteringScan(
      *t, Cmp(CompareOp::kGe, ColA(), Int(-1)));
  ScanRun full_ref = FilterOverScan(
      *t, Cmp(CompareOp::kGe, ColA(), Int(-1)));
  ExpectSameRows(full.rows, full_ref.rows);
  ExpectSameCounters(full.counters, full_ref.counters);
}

TEST(ScanFilterTest, DescribePrintsThePredicate) {
  auto t = SequentialTable(10);
  SeqScanOp scan(t.get(), "E",
                 MakeAnd(Cmp(CompareOp::kGe, ColA(), Int(2)),
                         Cmp(CompareOp::kLt, ColA(), Int(5))));
  EXPECT_EQ(scan.Describe(),
            "SeqScan(t, rows=10, filter=((t.a >= 2) AND (t.a < 5)))");
  EXPECT_EQ(SeqScanOp(t.get()).Describe(), "SeqScan(t, rows=10)");
}

// ----- Cancellation -----

TEST(ScanFilterTest, CancelledScanStopsWithinOneCheckInterval) {
  Table t("big", Schema({{"big", "v", DataType::kInt64}}));
  for (int64_t i = 0; i < 1000000; ++i) {
    MAGICDB_CHECK_OK(t.Insert({Value::Int64(i)}));
  }
  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  // Matches no row, and an OR never skips a page.
  {
    SeqScanOp scan(&t, "",
                   MakeOr(Cmp(CompareOp::kLt, ColA(),
                              Int(-1)),
                          Cmp(CompareOp::kGt, ColA(),
                              Int(2000000))));
    ExecContext ctx;
    ctx.set_cancel_token(token);
    auto rows = ExecuteToVector(&scan, &ctx);
    EXPECT_EQ(rows.status().code(), StatusCode::kCancelled);
    EXPECT_LE(ctx.counters().tuples_processed, 1024);
  }
  // The bounds skip every page: the skipped rows count toward the check.
  {
    SeqScanOp scan(&t, "",
                   Cmp(CompareOp::kGt, ColA(),
                       Int(2000000)));
    ExecContext ctx;
    ctx.set_cancel_token(token);
    auto rows = ExecuteToVector(&scan, &ctx);
    EXPECT_EQ(rows.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(ctx.counters().tuples_processed, 0);
    EXPECT_EQ(ctx.counters().pages_read, 0);
  }
}

// ----- Kernel conjuncts -----

// Every page holds INT64_MIN and INT64_MAX in `a` and a NaN in `x`, so no
// literal below rules a page out and the filtering scan reads exactly the
// rows FilterOp over an unfiltered scan reads. The other rows cycle through
// NULL, signed zeros, infinities and integers beyond 2^53, where a double
// comparison and an exact int64 one disagree.
std::unique_ptr<Table> EdgeValueTable() {
  constexpr int64_t kBig = int64_t{1} << 53;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> a_vals = {
      Value::Null(),         Value::Int64(0),        Value::Int64(-1),
      Value::Int64(5),       Value::Int64(kBig),     Value::Int64(kBig + 1),
      Value::Int64(kBig + 2), Value::Int64(-kBig - 1), Value::Int64(6)};
  const std::vector<Value> x_vals = {
      Value::Double(-0.0),  Value::Double(0.0),  Value::Null(),
      Value::Double(inf),   Value::Double(-inf), Value::Double(5.5),
      Value::Double(5.0),   Value::Double(static_cast<double>(kBig)),
      Value::Double(nan),   Value::Double(static_cast<double>(kBig) + 2),
      Value::Double(-1.0)};
  auto t = std::make_unique<Table>("t", ZoneSchema());
  for (int i = 0; i < 300; ++i) {
    Value a = a_vals[static_cast<size_t>(i) % a_vals.size()];
    if (i % 128 == 0) a = Value::Int64(std::numeric_limits<int64_t>::min());
    if (i % 128 == 1) a = Value::Int64(std::numeric_limits<int64_t>::max());
    Value x = x_vals[static_cast<size_t>(i) % x_vals.size()];
    if (i % 128 == 2) x = Value::Double(nan);
    MAGICDB_CHECK_OK(t->Insert({std::move(a), std::move(x),
                                Value::String("s" + std::to_string(i % 3))}));
  }
  return t;
}

// Four scans of one table share a MorselSource of one-page morsels and are
// pulled in turn, as a gang's workers would; their rows are put back in
// table order by the pos rank each batch carries, and their counters add up.
ScanRun MorselScans(const Table& t, const ExprPtr& pred) {
  auto source = std::make_shared<MorselSource>(t.NumRows(), t.rows_per_page(),
                                               t.rows_per_page());
  constexpr int kDop = 4;
  std::vector<std::unique_ptr<SeqScanOp>> scans;
  std::vector<ExecContext> ctxs(kDop);
  for (int w = 0; w < kDop; ++w) {
    scans.push_back(std::make_unique<SeqScanOp>(&t, "", pred));
    scans.back()->AttachMorselSource(source);
    ctxs[static_cast<size_t>(w)].set_batch_size(7);
    MAGICDB_CHECK_OK(scans.back()->Open(&ctxs[static_cast<size_t>(w)]));
  }
  std::vector<std::pair<int64_t, Tuple>> ranked;
  std::vector<bool> done(kDop, false);
  for (int live = kDop; live > 0;) {
    for (int w = 0; w < kDop; ++w) {
      if (done[static_cast<size_t>(w)]) continue;
      RowBatch batch(7);
      bool eof = false;
      MAGICDB_CHECK_OK(scans[static_cast<size_t>(w)]->NextBatch(&batch, &eof));
      MAGICDB_CHECK(batch.has_ranks());
      for (int32_t r = 0; r < batch.num_rows(); ++r) {
        Tuple row;
        batch.MoveRowToTuple(r, &row);
        ranked.emplace_back(batch.pos()[static_cast<size_t>(r)],
                            std::move(row));
      }
      if (eof) {
        done[static_cast<size_t>(w)] = true;
        --live;
      }
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& l, const auto& r) { return l.first < r.first; });
  ScanRun run;
  for (auto& [pos, row] : ranked) run.rows.push_back(std::move(row));
  for (int w = 0; w < kDop; ++w) {
    MAGICDB_CHECK_OK(scans[static_cast<size_t>(w)]->Close());
    run.counters += ctxs[static_cast<size_t>(w)].counters();
  }
  return run;
}

ScanRun DrainAtBatch(Operator* op, int64_t batch) {
  ExecContext ctx;
  ctx.set_batch_size(batch);
  auto rows = ExecuteToVector(op, &ctx);
  MAGICDB_CHECK_OK(rows.status());
  return {std::move(*rows), ctx.counters()};
}

// Kernel conjuncts compare stored values without BatchEval, so they are
// checked against it: `SeqScanOp(t, pred)` must equal `FilterOp(pred)` over
// an unfiltered scan in rows, order and every counter, for every operator,
// literal side, column type and literal type, alone and beside residual
// conjuncts, at three batch sizes and across a four-scan morsel gang.
TEST(ScanKernelTest, MatchesFilterOverScanOnEdgeValues) {
  auto t = EdgeValueTable();
  constexpr int64_t kBig = int64_t{1} << 53;
  const std::vector<ExprPtr> literals = {
      Int(0), Int(kBig + 1), Dbl(-0.0), Dbl(5.5),
      Dbl(static_cast<double>(kBig)),
      Dbl(std::numeric_limits<double>::quiet_NaN())};
  const std::vector<ExprPtr> residuals = {
      nullptr,
      MakeOr(Cmp(CompareOp::kLt, ColA(), Int(3)),
             Cmp(CompareOp::kGt, ColX(), Dbl(100))),
      Cmp(CompareOp::kEq, MakeColumnRef(2, DataType::kString, "t.s"),
          MakeLiteral(Value::String("s1"))),
      Cmp(CompareOp::kLt, ColA(), ColX())};
  int64_t kept = 0;
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    for (const ExprPtr& col : {ColA(), ColX()}) {
      for (const ExprPtr& lit : literals) {
        for (bool literal_left : {false, true}) {
          ExprPtr kernel =
              literal_left ? Cmp(op, lit, col) : Cmp(op, col, lit);
          for (const ExprPtr& residual : residuals) {
            ExprPtr pred =
                residual == nullptr ? kernel : MakeAnd(residual, kernel);
            SCOPED_TRACE(pred->ToString());
            for (int64_t batch : {1, 7, 1024}) {
              SCOPED_TRACE("batch=" + std::to_string(batch));
              SeqScanOp scan(t.get(), "", pred);
              FilterOp ref_op(std::make_unique<SeqScanOp>(t.get()), pred);
              ScanRun got = DrainAtBatch(&scan, batch);
              ScanRun ref = DrainAtBatch(&ref_op, batch);
              ExpectSameRows(got.rows, ref.rows);
              ExpectSameCounters(got.counters, ref.counters);
              if (batch == 1024) kept += static_cast<int64_t>(ref.rows.size());
            }
            SCOPED_TRACE("morsels at dop 4");
            ScanRun gang = MorselScans(*t, pred);
            ScanRun ref = FilterOverScan(*t, pred);
            ExpectSameRows(gang.rows, ref.rows);
            ExpectSameCounters(gang.counters, ref.counters);
          }
        }
      }
    }
  }
  // The predicates keep some rows and drop others.
  EXPECT_GT(kept, 0);
}

// NaN is greater than any number from either side of Value::Compare, so a
// conjunct must be tested the way it is written: `x > 5` holds for a NaN x
// while `5 < x` does not.
TEST(ScanKernelTest, NaNKeepsTheWrittenOrientation) {
  Table t("t", ZoneSchema());
  MAGICDB_CHECK_OK(
      t.Insert({Value::Int64(1),
                Value::Double(std::numeric_limits<double>::quiet_NaN()),
                Value::String("s")}));
  EXPECT_EQ(FilteringScan(t, Cmp(CompareOp::kGt, ColX(), Int(5))).rows.size(),
            1u);
  EXPECT_EQ(FilteringScan(t, Cmp(CompareOp::kLt, Int(5), ColX())).rows.size(),
            0u);
}

// Above 2^53 an INT column against an INT literal compares exactly, and
// against a DOUBLE literal through doubles, as Value::Compare does. The
// page also holds a 0, so its zone [0, 2^53 + 1] cannot rule it out and
// the kernel decides.
TEST(ScanKernelTest, IntColumnComparesExactlyBeyondTwoToThe53) {
  constexpr int64_t kBig = int64_t{1} << 53;
  Table t("t", ZoneSchema());
  MAGICDB_CHECK_OK(
      t.Insert({Value::Int64(0), Value::Double(0.0), Value::String("s")}));
  MAGICDB_CHECK_OK(t.Insert(
      {Value::Int64(kBig + 1), Value::Double(0.0), Value::String("s")}));
  EXPECT_TRUE(
      FilteringScan(t, Cmp(CompareOp::kEq, ColA(), Int(kBig))).rows.empty());
  EXPECT_EQ(FilteringScan(t, Cmp(CompareOp::kEq, ColA(),
                                 Dbl(static_cast<double>(kBig))))
                .rows.size(),
            1u);
}

// ----- Bounds extraction -----

TEST(ColumnRangeTest, FoldsTheTightestBoundPerColumn) {
  std::vector<ExprPtr> conjuncts = {
      Cmp(CompareOp::kGe, ColA(), Int(10)),
      Cmp(CompareOp::kLt, Int(20), ColA()),  // a > 20
      Cmp(CompareOp::kLe, ColA(), Dbl(90.5)),
      Cmp(CompareOp::kNe, ColX(), Dbl(1)),
      Cmp(CompareOp::kEq, ColX(),
          MakeLiteral(Value::Null())),
      Cmp(CompareOp::kLt, ColA(), Int(90)),
  };
  std::vector<ColumnRange> ranges = ExtractColumnRanges(conjuncts);
  ASSERT_EQ(ranges.size(), 1u);
  const ColumnRange& r = ranges[0];
  EXPECT_EQ(r.column, 0);
  EXPECT_EQ(r.lo, Value::Int64(20));
  EXPECT_FALSE(r.lo_inclusive);
  EXPECT_EQ(r.hi, Value::Int64(90));
  EXPECT_FALSE(r.hi_inclusive);
  EXPECT_EQ(r.conjuncts, (std::vector<size_t>{0, 1, 2, 5}));
}

// ----- Statistics and the optimizer -----

// Emp(did, sal, age) in did order: 10,000 departments x 20 employees.
void LoadDidOrderedEmp(Database* db) {
  MAGICDB_CHECK_OK(
      db->Execute("CREATE TABLE Emp (did INT, sal DOUBLE, age INT)"));
  std::vector<Tuple> rows;
  rows.reserve(200000);
  for (int d = 0; d < 10000; ++d) {
    for (int e = 0; e < 20; ++e) {
      rows.push_back({Value::Int64(d),
                      Value::Double(50000.0 + (d * 7 + e) % 1000),
                      Value::Int64(e % 2 == 0 ? 25 : 45)});
    }
  }
  MAGICDB_CHECK_OK(db->LoadRows("Emp", std::move(rows)));
}

TEST(ZoneSpanTest, AnalyzeRecordsTheMeanPageSpan) {
  Database db;
  LoadDidOrderedEmp(&db);
  const TableStats& stats = (*db.catalog()->Lookup("Emp"))->stats;
  // 170 rows per page cover 8.5 departments of 20 rows.
  EXPECT_NEAR(stats.columns[0].zone_span, 8.0 / 9999.0, 1.0 / 9999.0);
  // Both ages occur on every page.
  EXPECT_DOUBLE_EQ(stats.columns[2].zone_span, 1.0);
}

TEST(RangeEstimateTest, TwoBoundsOnOneColumnAreOneInterval) {
  Database db;
  LoadDidOrderedEmp(&db);
  OptimizerOptions options = *db.mutable_optimizer_options();
  auto rows_of = [&](const std::string& where) {
    auto planned =
        db.PlanSelect("SELECT E.sal FROM Emp E WHERE " + where, options);
    MAGICDB_CHECK_OK(planned.status());
    return planned->est_rows;
  };
  const double both = rows_of("E.did >= 6454 AND E.did < 6654");
  EXPECT_GE(both, 4000.0 / 1.25);
  EXPECT_LE(both, 4000.0 * 1.25);
  // A column with one conjunct keeps its estimate bit for bit.
  const EquiDepthHistogram& h =
      (*db.catalog()->Lookup("Emp"))->stats.columns[0].histogram;
  EXPECT_EQ(rows_of("E.did >= 6454"),
            200000.0 * std::clamp(1.0 - h.FractionBelow(6454), 0.0, 1.0));
  EXPECT_EQ(rows_of("E.did < 6654"), 200000.0 * h.FractionBelow(6654));
  const EquiDepthHistogram& age =
      (*db.catalog()->Lookup("Emp"))->stats.columns[2].histogram;
  EXPECT_EQ(rows_of("E.did < 6654 AND E.age < 30"),
            200000.0 * (h.FractionBelow(6654) * age.FractionBelow(30)));
}

TEST(RangeEstimateTest, PageCostFollowsTheZoneSpan) {
  Database db;
  LoadDidOrderedEmp(&db);
  OptimizerOptions options = *db.mutable_optimizer_options();
  const std::string select = "SELECT E.did, E.sal, E.age FROM Emp E WHERE ";
  auto plan = [&](const std::string& where) {
    auto planned = db.PlanSelect(select + where, options);
    MAGICDB_CHECK_OK(planned.status());
    return std::move(*planned);
  };
  // Both ages occur on every page: the full scan's cost, as without zone
  // maps, plus the projection of three columns.
  PlannedSelect age = plan("E.age < 30");
  EXPECT_DOUBLE_EQ(age.est_cost, costs::SeqScan(200000, 24) +
                                     costs::ExprEval(200000) +
                                     costs::ExprEval(age.est_rows * 3));
  // 200 departments: ceil(1,177 x (0.02 + 8/9,999)) = 25 pages, and the
  // rows on them.
  const double f = 0.02 + 8.0 / 9999.0;
  PlannedSelect range = plan("E.did >= 8287 AND E.did < 8487");
  EXPECT_NEAR(range.est_cost,
              costs::SeqScan(200000, 24, 1, f) +
                  costs::ExprEval(f * 200000) +
                  costs::ExprEval(range.est_rows * 3),
              2.0);
  auto run = db.Run(select + "E.did >= 8287 AND E.did < 8487");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->rows.size(), 4000u);
  EXPECT_GE(run->counters.pages_read, 24);
  EXPECT_LE(run->counters.pages_read, 25);
  EXPECT_NE(run->explain.find("filter=((E.did >= 8287) AND (E.did < 8487))"),
            std::string::npos)
      << run->explain;
}

}  // namespace
}  // namespace magicdb
