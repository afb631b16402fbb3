#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/exec/basic_ops.h"
#include "src/exec/exchange_op.h"
#include "src/exec/filter_join_op.h"
#include "src/exec/function_ops.h"
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

/// Builds a FilterJoin whose inner is Scan(s) restricted by the filter set —
/// the local-semijoin shape of §5.3.
std::unique_ptr<FilterJoinOp> MakeFilterJoin(const Table* r, const Table* s,
                                             FilterSetImpl impl,
                                             int ship_site = 0) {
  const std::string binding_id = "fs_test";
  auto inner = std::make_unique<FilterProbeOp>(std::make_unique<SeqScanOp>(s),
                                               binding_id, std::vector<int>{0});
  return std::make_unique<FilterJoinOp>(
      std::make_unique<SeqScanOp>(r), std::move(inner), binding_id,
      std::vector<int>{0}, std::vector<int>{0}, nullptr, impl, ship_site);
}

/// Probes `binding` with `row` the way FilterProbeOp does: as one row of a
/// batch.
bool MayContain(const FilterSetBinding& binding, Tuple row,
                const std::vector<int>& key_indexes) {
  RowBatch batch(1);
  batch.ResetForWrite(static_cast<int>(row.size()));
  batch.AppendTuple(std::move(row));
  return binding.MayContain(batch, 0, key_indexes);
}

TEST(FilterSetBindingTest, ExactMembership) {
  Schema ks({{"", "k", DataType::kInt64}});
  auto b = FilterSetBinding::Exact(
      ks, {{Value::Int64(1)}, {Value::Int64(3)}});
  EXPECT_EQ(b->NumKeys(), 2);
  EXPECT_TRUE(MayContain(*b, {Value::Int64(1)}, {0}));
  EXPECT_FALSE(MayContain(*b, {Value::Int64(2)}, {0}));
  EXPECT_FALSE(b->is_bloom());
}

TEST(FilterSetBindingTest, ProbeColumnsSelectFromWiderTuple) {
  Schema ks({{"", "k", DataType::kInt64}});
  auto b = FilterSetBinding::Exact(ks, {{Value::Int64(7)}});
  Tuple wide = {Value::String("pad"), Value::Int64(7), Value::Int64(9)};
  EXPECT_TRUE(MayContain(*b, wide, {1}));
  EXPECT_FALSE(MayContain(*b, wide, {2}));
}

TEST(FilterSetBindingTest, BloomNoFalseNegatives) {
  Schema ks({{"", "k", DataType::kInt64}});
  std::vector<Tuple> keys;
  for (int i = 0; i < 200; ++i) keys.push_back({Value::Int64(i * 3)});
  auto b = FilterSetBinding::Bloom(ks, keys, 10.0);
  EXPECT_TRUE(b->is_bloom());
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(MayContain(*b, {Value::Int64(i * 3)}, {0}));
  }
}

TEST(FilterSetBindingTest, BloomFalsePositiveRateBounded) {
  Schema ks({{"", "k", DataType::kInt64}});
  std::vector<Tuple> keys;
  for (int i = 0; i < 500; ++i) keys.push_back({Value::Int64(i)});
  auto b = FilterSetBinding::Bloom(ks, keys, 10.0);
  int fp = 0;
  const int probes = 2000;
  for (int i = 0; i < probes; ++i) {
    if (MayContain(*b, {Value::Int64(1000000 + i)}, {0})) ++fp;
  }
  EXPECT_LT(static_cast<double>(fp) / probes, 0.05);
}

TEST(FilterSetBindingTest, BloomSmallerThanExactForLargeSets) {
  Schema ks({{"", "k", DataType::kInt64}});
  std::vector<Tuple> keys;
  for (int i = 0; i < 10000; ++i) keys.push_back({Value::Int64(i)});
  auto exact = FilterSetBinding::Exact(ks, keys);
  auto bloom = FilterSetBinding::Bloom(ks, keys, 10.0);
  EXPECT_LT(bloom->SizeBytes(), exact->SizeBytes());
}

TEST(FilterProbeOpTest, RestrictsChildToFilterSet) {
  auto s = MakeS(10, 10);
  ExecContext ctx;
  Schema ks({{"", "k", DataType::kInt64}});
  ctx.BindFilterSet("f1", FilterSetBinding::Exact(
                              ks, {{Value::Int64(2)}, {Value::Int64(5)}}));
  FilterProbeOp op(std::make_unique<SeqScanOp>(s.get()), "f1", {0});
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(FilterProbeOpTest, MissingBindingFailsOpen) {
  auto s = MakeS(3, 3);
  ExecContext ctx;
  FilterProbeOp op(std::make_unique<SeqScanOp>(s.get()), "nope", {0});
  EXPECT_FALSE(op.Open(&ctx).ok());
}

TEST(FilterSetScanOpTest, ScansKeysAsRelation) {
  ExecContext ctx;
  Schema ks({{"F", "k", DataType::kInt64}});
  ctx.BindFilterSet("f2", FilterSetBinding::Exact(
                              ks, {{Value::Int64(1)}, {Value::Int64(2)}}));
  FilterSetScanOp op("f2", ks);
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(FilterSetScanOpTest, BloomBindingCannotBeScanned) {
  ExecContext ctx;
  Schema ks({{"F", "k", DataType::kInt64}});
  ctx.BindFilterSet("f3",
                    FilterSetBinding::Bloom(ks, {{Value::Int64(1)}}, 10.0));
  FilterSetScanOp op("f3", ks);
  EXPECT_FALSE(op.Open(&ctx).ok());
}

TEST(FilterJoinOpTest, ExactMatchesReference) {
  auto r = MakeR(20, 4);
  auto s = MakeS(30, 12);
  ExecContext ctx;
  auto join = MakeFilterJoin(r.get(), s.get(), FilterSetImpl::kExact);
  auto rows = ExecuteToVector(join.get(), &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(SameMultiset(*rows, ReferenceJoin(*r, *s)));
  EXPECT_EQ(join->last_filter_set_size(), 4);
}

TEST(FilterJoinOpTest, BloomMatchesReference) {
  // The Bloom filter set is lossy (superset) but the final join re-checks
  // key equality, so results are identical.
  auto r = MakeR(20, 4);
  auto s = MakeS(30, 12);
  ExecContext ctx;
  auto join = MakeFilterJoin(r.get(), s.get(), FilterSetImpl::kBloom);
  auto rows = ExecuteToVector(join.get(), &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(SameMultiset(*rows, ReferenceJoin(*r, *s)));
}

TEST(FilterJoinOpTest, EmptyOuterYieldsEmpty) {
  Table r("r", RSchema());
  auto s = MakeS(10, 10);
  ExecContext ctx;
  auto join = MakeFilterJoin(&r, s.get(), FilterSetImpl::kExact);
  auto rows = ExecuteToVector(join.get(), &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  EXPECT_EQ(join->last_filter_set_size(), 0);
}

TEST(FilterJoinOpTest, ShipsFilterWhenRemote) {
  auto r = MakeR(10, 5);
  auto s = MakeS(10, 5);
  ExecContext ctx;
  auto join = MakeFilterJoin(r.get(), s.get(), FilterSetImpl::kExact,
                             /*ship_site=*/2);
  ASSERT_TRUE(ExecuteToVector(join.get(), &ctx).ok());
  EXPECT_GE(ctx.counters().messages_sent, 1);
  EXPECT_GT(ctx.counters().bytes_shipped, 0);
}

TEST(FilterJoinOpTest, UnbindsFilterSetOnClose) {
  auto r = MakeR(5, 5);
  auto s = MakeS(5, 5);
  ExecContext ctx;
  auto join = MakeFilterJoin(r.get(), s.get(), FilterSetImpl::kExact);
  ASSERT_TRUE(ExecuteToVector(join.get(), &ctx).ok());
  EXPECT_FALSE(ctx.GetFilterSet("fs_test").ok());
}

TEST(FilterJoinOpTest, ResidualPredicateApplies) {
  auto r = MakeR(10, 5);
  auto s = MakeS(10, 5);
  ExecContext ctx;
  const std::string id = "fs_res";
  auto inner = std::make_unique<FilterProbeOp>(
      std::make_unique<SeqScanOp>(s.get()), id, std::vector<int>{0});
  auto residual = MakeComparison(CompareOp::kGt,
                                 MakeColumnRef(3, DataType::kInt64),
                                 MakeLiteral(Value::Int64(40)));
  FilterJoinOp join(std::make_unique<SeqScanOp>(r.get()), std::move(inner),
                    id, {0}, {0}, residual, FilterSetImpl::kExact);
  auto rows = ExecuteToVector(&join, &ctx);
  ASSERT_TRUE(rows.ok());
  for (const Tuple& t : *rows) EXPECT_GT(t[3].AsInt64(), 40);
}

TEST(FilterJoinOpTest, SemiJoinScansInnerOnce) {
  // §5.3: filter join = two scans of outer (production + final) and one of
  // inner.
  auto r = MakeR(100, 3);
  auto s = MakeS(100, 50);
  ExecContext ctx;
  auto join = MakeFilterJoin(r.get(), s.get(), FilterSetImpl::kExact);
  ASSERT_TRUE(ExecuteToVector(join.get(), &ctx).ok());
  // Pages: outer scan (1) + spool write/read + inner scan (1).
  EXPECT_LE(ctx.counters().pages_read, r->NumPages() + s->NumPages() +
                                           r->NumPages() + 1);
}

TEST(ShipOpTest, LocalShipIsFree) {
  auto r = MakeR(10, 5);
  ExecContext ctx;
  ShipOp op(std::make_unique<SeqScanOp>(r.get()), 1, 1);
  ASSERT_TRUE(ExecuteToVector(&op, &ctx).ok());
  EXPECT_EQ(ctx.counters().messages_sent, 0);
  EXPECT_EQ(ctx.counters().bytes_shipped, 0);
}

TEST(ShipOpTest, RemoteShipChargesBytesAndMessages) {
  auto r = MakeR(100, 5);
  ExecContext ctx;
  ShipOp op(std::make_unique<SeqScanOp>(r.get()), 1, 0);
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 100u);
  EXPECT_EQ(ctx.counters().bytes_shipped, 100 * 16);
  EXPECT_GE(ctx.counters().messages_sent, 1);
}

// ----- user-defined relation operators -----

std::unique_ptr<LambdaTableFunction> MakeSquareFn(int* invocations) {
  Schema args({{"", "v", DataType::kInt64}});
  Schema results({{"", "sq", DataType::kInt64}});
  return std::make_unique<LambdaTableFunction>(
      "square", args, results,
      [invocations](const Tuple& in, std::vector<Tuple>* out) {
        if (invocations != nullptr) ++*invocations;
        out->push_back({Value::Int64(in[0].AsInt64() * in[0].AsInt64())});
        return Status::OK();
      });
}

TEST(FunctionProbeJoinTest, NaiveInvokesPerOuterTuple) {
  auto r = MakeR(9, 3);  // keys 0,1,2 repeated 3x
  int invocations = 0;
  auto fn = MakeSquareFn(&invocations);
  ExecContext ctx;
  FunctionProbeJoinOp op(std::make_unique<SeqScanOp>(r.get()), fn.get(), {0},
                         nullptr, /*memoize=*/false);
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 9u);
  EXPECT_EQ(invocations, 9);
  EXPECT_EQ(ctx.counters().function_invocations, 9);
  // Output: r.k, r.x, args.v, result.sq
  EXPECT_EQ((*rows)[0][3], Value::Int64(0));
}

TEST(FunctionProbeJoinTest, MemoizedInvokesPerDistinctArgs) {
  auto r = MakeR(9, 3);
  int invocations = 0;
  auto fn = MakeSquareFn(&invocations);
  ExecContext ctx;
  FunctionProbeJoinOp op(std::make_unique<SeqScanOp>(r.get()), fn.get(), {0},
                         nullptr, /*memoize=*/true);
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 9u);
  EXPECT_EQ(invocations, 3);
  EXPECT_EQ(op.cache_hits(), 6);
}

TEST(FunctionCallOpTest, InvokesPerInputRow) {
  Table args("args", Schema({{"", "v", DataType::kInt64}}));
  MAGICDB_CHECK_OK(args.Insert({Value::Int64(2)}));
  MAGICDB_CHECK_OK(args.Insert({Value::Int64(4)}));
  int invocations = 0;
  auto fn = MakeSquareFn(&invocations);
  ExecContext ctx;
  FunctionCallOp op(std::make_unique<SeqScanOp>(&args), fn.get());
  auto rows = ExecuteToVector(&op, &ctx);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][1], Value::Int64(4));
  EXPECT_EQ((*rows)[1][1], Value::Int64(16));
  EXPECT_EQ(invocations, 2);
}

TEST(FunctionJoinEquivalenceTest, FilterJoinCompositionMatchesNaive) {
  // Filter-join shape for UDRs: distinct args -> FunctionCall -> hash join
  // back with the outer. Must agree with the naive probe join.
  auto r = MakeR(20, 4);
  auto fn = MakeSquareFn(nullptr);
  ExecContext ctx;

  FunctionProbeJoinOp naive(std::make_unique<SeqScanOp>(r.get()), fn.get(),
                            {0}, nullptr, false);
  auto naive_rows = ExecuteToVector(&naive, &ctx);
  ASSERT_TRUE(naive_rows.ok());

  // Composition: distinct keys of r -> call -> join back.
  std::vector<ExprPtr> key_exprs = {MakeColumnRef(0, DataType::kInt64, "k")};
  Schema key_schema({{"", "v", DataType::kInt64}});
  auto distinct = std::make_unique<DistinctOp>(std::make_unique<ProjectOp>(
      std::make_unique<SeqScanOp>(r.get()), key_exprs, key_schema));
  auto call = std::make_unique<FunctionCallOp>(std::move(distinct), fn.get());
  HashJoinOp composed(std::make_unique<SeqScanOp>(r.get()), std::move(call),
                      {0}, {0}, nullptr);
  auto composed_rows = ExecuteToVector(&composed, &ctx);
  ASSERT_TRUE(composed_rows.ok());
  EXPECT_TRUE(SameMultiset(*naive_rows, *composed_rows));
}

}  // namespace
}  // namespace magicdb
