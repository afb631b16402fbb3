#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/exec/basic_ops.h"
#include "src/exec/filter_join_op.h"
#include "src/exec/join_ops.h"
#include "src/exec/scan_ops.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

using testutil::SameMultiset;

Schema RSchema() {
  return Schema({{"r", "k", DataType::kInt64}, {"r", "x", DataType::kInt64}});
}
Schema SSchema() {
  return Schema({{"s", "k", DataType::kInt64}, {"s", "y", DataType::kInt64}});
}

std::unique_ptr<Table> MakeR(int n, int key_mod) {
  auto t = std::make_unique<Table>("r", RSchema());
  for (int i = 0; i < n; ++i) {
    MAGICDB_CHECK_OK(t->Insert({Value::Int64(i % key_mod), Value::Int64(i)}));
  }
  return t;
}

std::unique_ptr<Table> MakeS(int n, int key_mod) {
  auto t = std::make_unique<Table>("s", SSchema());
  for (int i = 0; i < n; ++i) {
    MAGICDB_CHECK_OK(
        t->Insert({Value::Int64(i % key_mod), Value::Int64(i * 10)}));
  }
  return t;
}

/// Reference result via brute force.
std::vector<Tuple> ReferenceJoin(const Table& r, const Table& s) {
  std::vector<Tuple> out;
  for (int64_t i = 0; i < r.NumRows(); ++i) {
    for (int64_t j = 0; j < s.NumRows(); ++j) {
      if (r.row(i)[0].Compare(s.row(j)[0]) == 0) {
        out.push_back(ConcatTuples(r.row(i), s.row(j)));
      }
    }
  }
  return out;
}

ExprPtr EqPredicate() {
  // r.k = s.k over concatenated schema (r.k at 0, s.k at 2).
  return MakeComparison(CompareOp::kEq, MakeColumnRef(0, DataType::kInt64),
                        MakeColumnRef(2, DataType::kInt64));
}

TEST(NestedLoopsJoinTest, MatchesReference) {
  auto r = MakeR(12, 5);
  auto s = MakeS(8, 5);
  ExecContext ctx;
  NestedLoopsJoinOp join(std::make_unique<SeqScanOp>(r.get()),
                         std::make_unique<SeqScanOp>(s.get()), EqPredicate());
  auto rows = ExecuteToVector(&join, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(SameMultiset(*rows, ReferenceJoin(*r, *s)));
}

TEST(NestedLoopsJoinTest, CrossProductWithNullPredicate) {
  auto r = MakeR(3, 3);
  auto s = MakeS(4, 4);
  ExecContext ctx;
  NestedLoopsJoinOp join(std::make_unique<SeqScanOp>(r.get()),
                         std::make_unique<SeqScanOp>(s.get()), nullptr);
  auto rows = ExecuteToVector(&join, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 12u);
}

TEST(NestedLoopsJoinTest, RescansInnerPerOuterTuple) {
  auto r = MakeR(4, 4);
  auto s = MakeS(4, 4);
  ExecContext ctx;
  NestedLoopsJoinOp join(std::make_unique<SeqScanOp>(r.get()),
                         std::make_unique<SeqScanOp>(s.get()), EqPredicate());
  ASSERT_TRUE(ExecuteToVector(&join, &ctx).ok());
  // 1 outer page + 4 inner rescans of 1 page each.
  EXPECT_EQ(ctx.counters().pages_read, 5);
}

TEST(NestedLoopsJoinTest, NonEquiJoinSupported) {
  auto r = MakeR(5, 5);
  auto s = MakeS(5, 5);
  ExecContext ctx;
  auto pred = MakeComparison(CompareOp::kLt, MakeColumnRef(1, DataType::kInt64),
                             MakeColumnRef(3, DataType::kInt64));
  NestedLoopsJoinOp join(std::make_unique<SeqScanOp>(r.get()),
                         std::make_unique<SeqScanOp>(s.get()), pred);
  auto rows = ExecuteToVector(&join, &ctx);
  ASSERT_TRUE(rows.ok());
  int expected = 0;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      if (i < j * 10) ++expected;
    }
  }
  EXPECT_EQ(static_cast<int>(rows->size()), expected);
}

TEST(HashJoinTest, MatchesReference) {
  auto r = MakeR(20, 7);
  auto s = MakeS(15, 7);
  ExecContext ctx;
  HashJoinOp join(std::make_unique<SeqScanOp>(r.get()),
                  std::make_unique<SeqScanOp>(s.get()), {0}, {0}, nullptr);
  auto rows = ExecuteToVector(&join, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(SameMultiset(*rows, ReferenceJoin(*r, *s)));
}

TEST(HashJoinTest, ResidualPredicateApplies) {
  auto r = MakeR(10, 5);
  auto s = MakeS(10, 5);
  ExecContext ctx;
  auto residual = MakeComparison(
      CompareOp::kGt, MakeColumnRef(3, DataType::kInt64),
      MakeLiteral(Value::Int64(40)));
  HashJoinOp join(std::make_unique<SeqScanOp>(r.get()),
                  std::make_unique<SeqScanOp>(s.get()), {0}, {0}, residual);
  auto rows = ExecuteToVector(&join, &ctx);
  ASSERT_TRUE(rows.ok());
  for (const Tuple& t : *rows) {
    EXPECT_GT(t[3].AsInt64(), 40);
  }
}

TEST(HashJoinTest, NoMatchesYieldsEmpty) {
  auto r = MakeR(5, 5);
  auto s = std::make_unique<Table>("s", SSchema());
  for (int i = 0; i < 5; ++i) {
    MAGICDB_CHECK_OK(
        s->Insert({Value::Int64(100 + i), Value::Int64(i)}));
  }
  ExecContext ctx;
  HashJoinOp join(std::make_unique<SeqScanOp>(r.get()),
                  std::make_unique<SeqScanOp>(s.get()), {0}, {0}, nullptr);
  auto rows = ExecuteToVector(&join, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(HashJoinTest, NullKeysNeverMatchViaPredicateSemantics) {
  // NULL keys: hash join on key equality uses Value::Compare which treats
  // NULL == NULL; SQL inner-join semantics exclude NULL matches, which the
  // planner enforces by a residual IS-NOT-NULL-style predicate. Here we
  // document the operator-level behaviour: NULLs do match structurally.
  Table r("r", RSchema());
  Table s("s", SSchema());
  MAGICDB_CHECK_OK(r.Insert({Value::Null(), Value::Int64(1)}));
  MAGICDB_CHECK_OK(s.Insert({Value::Null(), Value::Int64(2)}));
  ExecContext ctx;
  // With the SQL-level equality residual, NULL = NULL evaluates to NULL and
  // the pair is dropped.
  HashJoinOp join(std::make_unique<SeqScanOp>(&r),
                  std::make_unique<SeqScanOp>(&s), {0}, {0}, EqPredicate());
  auto rows = ExecuteToVector(&join, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(SortMergeJoinTest, MatchesReference) {
  auto r = MakeR(25, 6);
  auto s = MakeS(18, 6);
  ExecContext ctx;
  SortMergeJoinOp join(std::make_unique<SeqScanOp>(r.get()),
                       std::make_unique<SeqScanOp>(s.get()), {0}, {0},
                       nullptr);
  auto rows = ExecuteToVector(&join, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(SameMultiset(*rows, ReferenceJoin(*r, *s)));
}

TEST(SortMergeJoinTest, DuplicateGroupsCrossProduct) {
  Table r("r", RSchema());
  Table s("s", SSchema());
  for (int i = 0; i < 3; ++i) {
    MAGICDB_CHECK_OK(r.Insert({Value::Int64(1), Value::Int64(i)}));
  }
  for (int i = 0; i < 2; ++i) {
    MAGICDB_CHECK_OK(s.Insert({Value::Int64(1), Value::Int64(i)}));
  }
  ExecContext ctx;
  SortMergeJoinOp join(std::make_unique<SeqScanOp>(&r),
                       std::make_unique<SeqScanOp>(&s), {0}, {0}, nullptr);
  auto rows = ExecuteToVector(&join, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 6u);
}

TEST(IndexNestedLoopsJoinTest, MatchesReference) {
  auto r = MakeR(12, 4);
  auto s = MakeS(16, 4);
  s->CreateHashIndex({0});
  ExecContext ctx;
  IndexNestedLoopsJoinOp join(std::make_unique<SeqScanOp>(r.get()), s.get(),
                              s->FindHashIndex({0}), {0}, nullptr);
  auto rows = ExecuteToVector(&join, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(SameMultiset(*rows, ReferenceJoin(*r, *s)));
}

TEST(IndexNestedLoopsJoinTest, RemoteProbeChargesMessages) {
  auto r = MakeR(5, 5);
  auto s = MakeS(5, 5);
  s->CreateHashIndex({0});
  ExecContext ctx;
  IndexNestedLoopsJoinOp join(std::make_unique<SeqScanOp>(r.get()), s.get(),
                              s->FindHashIndex({0}), {0}, nullptr,
                              /*remote_probe=*/true);
  ASSERT_TRUE(ExecuteToVector(&join, &ctx).ok());
  EXPECT_EQ(ctx.counters().messages_sent, 10);  // 2 per probe
  EXPECT_GT(ctx.counters().bytes_shipped, 0);
}

// Index nested loops probes an outer batch and copies each match into the
// output columns, resuming mid-batch and mid-match-list: key 0 has 2,100
// inner rows, so one outer row's matches span several output batches even
// at 1,024 rows. NULL outer keys never probe, the residual keeps some
// matches, and every probe is remote. Rows, their order and every counter
// must be the same at any batch size, and equal the nested loops below.
TEST(IndexNestedLoopsJoinTest, MatchListsSpanBatchesIdenticallyAtAnySize) {
  Table r("r", RSchema());
  for (int i = 0; i < 30; ++i) {
    MAGICDB_CHECK_OK(r.Insert({i % 5 == 4 ? Value::Null() : Value::Int64(i % 4),
                               Value::Int64(i * 70)}));
  }
  Table s("s", SSchema());
  for (int i = 0; i < 3000; ++i) {
    MAGICDB_CHECK_OK(
        s.Insert({Value::Int64(i < 2100 ? 0 : 1 + i % 5), Value::Int64(i)}));
  }
  const HashIndex* index = s.CreateHashIndex({0});
  // s.y > r.x over r ++ s.
  const ExprPtr residual =
      MakeComparison(CompareOp::kGt, MakeColumnRef(3, DataType::kInt64),
                     MakeColumnRef(1, DataType::kInt64));
  // The reference: every (r, s) pair in index order, NULL keys dropped.
  std::vector<Tuple> expected;
  int64_t probes = 0;
  int64_t matches = 0;
  int64_t key_bytes = 0;
  int64_t match_bytes = 0;
  for (int64_t i = 0; i < r.NumRows(); ++i) {
    if (r.row(i)[0].is_null()) continue;
    ++probes;
    key_bytes += r.row(i)[0].ByteWidth();
    for (int64_t j = 0; j < s.NumRows(); ++j) {
      if (s.row(j)[0].Compare(r.row(i)[0]) != 0) continue;
      ++matches;
      match_bytes += TupleByteWidth(s.row(j));
      if (s.row(j)[1].AsInt64() > r.row(i)[1].AsInt64()) {
        expected.push_back(ConcatTuples(r.row(i), s.row(j)));
      }
    }
  }
  ASSERT_GT(matches, static_cast<int64_t>(expected.size()));
  for (int64_t batch : {1, 7, 1024}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    ExecContext ctx;
    ctx.set_batch_size(batch);
    IndexNestedLoopsJoinOp join(std::make_unique<SeqScanOp>(&r), &s, index,
                                {0}, residual, /*remote_probe=*/true);
    auto rows = ExecuteToVector(&join, &ctx);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(CompareTuples((*rows)[i], expected[i]), 0) << "row " << i;
    }
    const CostCounters& c = ctx.counters();
    EXPECT_EQ(c.hash_operations, probes);
    EXPECT_EQ(c.messages_sent, 2 * probes);
    EXPECT_EQ(c.bytes_shipped, key_bytes + match_bytes);
    // One page per probe and per match, plus the outer scan's one page.
    EXPECT_EQ(c.pages_read, probes + matches + r.NumPages());
    EXPECT_EQ(c.tuples_processed, r.NumRows() + matches);
    EXPECT_EQ(c.exprs_evaluated, matches);
  }
}

TEST(JoinAgreementTest, AllJoinMethodsAgreeOnRandomInputs) {
  Random rng(1234);
  for (int trial = 0; trial < 8; ++trial) {
    const int rn = 1 + static_cast<int>(rng.Uniform(40));
    const int sn = 1 + static_cast<int>(rng.Uniform(40));
    const int mod = 1 + static_cast<int>(rng.Uniform(10));
    auto r = MakeR(rn, mod);
    auto s = MakeS(sn, mod);
    s->CreateHashIndex({0});
    std::vector<Tuple> ref = ReferenceJoin(*r, *s);

    ExecContext ctx;
    NestedLoopsJoinOp nl(std::make_unique<SeqScanOp>(r.get()),
                         std::make_unique<SeqScanOp>(s.get()), EqPredicate());
    auto nl_rows = ExecuteToVector(&nl, &ctx);
    ASSERT_TRUE(nl_rows.ok());
    EXPECT_TRUE(SameMultiset(*nl_rows, ref)) << "NL trial " << trial;

    HashJoinOp hj(std::make_unique<SeqScanOp>(r.get()),
                  std::make_unique<SeqScanOp>(s.get()), {0}, {0}, nullptr);
    auto hj_rows = ExecuteToVector(&hj, &ctx);
    ASSERT_TRUE(hj_rows.ok());
    EXPECT_TRUE(SameMultiset(*hj_rows, ref)) << "HJ trial " << trial;

    SortMergeJoinOp smj(std::make_unique<SeqScanOp>(r.get()),
                        std::make_unique<SeqScanOp>(s.get()), {0}, {0},
                        nullptr);
    auto smj_rows = ExecuteToVector(&smj, &ctx);
    ASSERT_TRUE(smj_rows.ok());
    EXPECT_TRUE(SameMultiset(*smj_rows, ref)) << "SMJ trial " << trial;

    IndexNestedLoopsJoinOp inl(std::make_unique<SeqScanOp>(r.get()), s.get(),
                               s->FindHashIndex({0}), {0}, nullptr);
    auto inl_rows = ExecuteToVector(&inl, &ctx);
    ASSERT_TRUE(inl_rows.ok());
    EXPECT_TRUE(SameMultiset(*inl_rows, ref)) << "INL trial " << trial;
  }
}

}  // namespace
}  // namespace magicdb
