// Tests for batch execution: RowBatch mechanics, chunked memory
// reservation, filter edge cases, row-at-a-time operators over
// batch children, projections that move columns, LIMIT doing no work past
// its rows, and the headline
// guarantee — results, result order, and cost counters byte-identical to
// batch size 1 (the exact-work reference) at any DoP and any batch size,
// with and without spilling.

#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "src/exec/basic_ops.h"
#include "src/exec/exec_context.h"
#include "src/exec/filter_join_op.h"
#include "src/exec/function_ops.h"
#include "src/exec/join_ops.h"
#include "src/exec/row_batch.h"
#include "src/exec/scan_ops.h"
#include "src/expr/expr.h"
#include "src/server/query_service.h"
#include "src/udr/table_function.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

// ----- RowBatch primitive -----

TEST(RowBatchTest, AppendSelectActiveRows) {
  RowBatch b(4);
  b.ResetForWrite(2);
  for (int i = 0; i < 3; ++i) {
    b.AppendTuple({Value::Int64(i), Value::String("r" + std::to_string(i))});
  }
  EXPECT_EQ(b.num_rows(), 3);
  EXPECT_FALSE(b.full());
  b.KeepRows({1, 0, 1});
  EXPECT_EQ(b.num_rows(), 2);  // every row of a batch is live
  std::vector<Tuple> out;
  b.MoveActiveToTuples(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0][0].AsInt64(), 0);
  EXPECT_EQ(out[1][0].AsInt64(), 2);
  EXPECT_EQ(out[1][1].AsString(), "r2");
}

TEST(RowBatchTest, CompactActiveGathersSurvivorsAndRanks) {
  RowBatch b(8);
  b.ResetForWrite(2);
  b.EnableRanks();
  for (int i = 0; i < 5; ++i) {
    b.AppendTuple({Value::Int64(i), Value::String("r" + std::to_string(i))});
    b.pos().push_back(100 + i);
    b.sub().push_back(i);
  }
  b.KeepRows({1, 0, 1, 0, 1});  // row 0 stays put; 2 and 4 gather down
  ASSERT_EQ(b.num_rows(), 3);
  ASSERT_EQ(b.column(0).size(), 3u);
  EXPECT_EQ(b.column(0)[0].AsInt64(), 0);
  EXPECT_EQ(b.column(0)[1].AsInt64(), 2);
  EXPECT_EQ(b.column(0)[2].AsInt64(), 4);
  EXPECT_EQ(b.column(1)[2].AsString(), "r4");
  ASSERT_EQ(b.pos().size(), 3u);
  EXPECT_EQ(b.pos()[1], 102);
  EXPECT_EQ(b.sub()[2], 4);
  // Keeping every row changes nothing.
  b.KeepRows({1, 1, 1});
  EXPECT_EQ(b.num_rows(), 3);
  EXPECT_EQ(b.column(0)[2].AsInt64(), 4);
  EXPECT_EQ(b.pos()[2], 104);

  // Keeping no row empties the columns and the ranks.
  b.KeepRows({0, 0, 0});
  EXPECT_EQ(b.num_rows(), 0);
  EXPECT_TRUE(b.column(0).empty());
  EXPECT_TRUE(b.pos().empty());
  EXPECT_TRUE(b.sub().empty());
}

TEST(RowBatchTest, EmptySelectionMeansNoActiveRows) {
  RowBatch b(4);
  b.ResetForWrite(1);
  b.AppendTuple({Value::Int64(7)});
  b.KeepRows({0});
  EXPECT_EQ(b.num_rows(), 0);
  EXPECT_FALSE(b.full());
  std::vector<Tuple> out;
  b.MoveActiveToTuples(&out);
  EXPECT_TRUE(out.empty());
}

TEST(RowBatchTest, ResetForWriteClearsSelectionAndRanks) {
  RowBatch b(2);
  b.ResetForWrite(1);
  b.EnableRanks();
  b.AppendTuple({Value::Int64(1)});
  b.pos().push_back(42);
  b.sub().push_back(0);
  b.AppendTuple({Value::Int64(2)});
  b.pos().push_back(43);
  b.sub().push_back(0);
  b.KeepRows({0, 1});
  ASSERT_EQ(b.num_rows(), 1);
  b.ResetForWrite(1);
  EXPECT_EQ(b.num_rows(), 0);
  EXPECT_TRUE(b.column(0).empty());
  EXPECT_FALSE(b.has_ranks());
  EXPECT_TRUE(b.pos().empty());
  EXPECT_TRUE(b.sub().empty());
  EXPECT_EQ(b.capacity(), 2);
}

TEST(RowBatchTest, HelpersMatchTupleCounterparts) {
  RowBatch b(4);
  b.ResetForWrite(3);
  const std::vector<Tuple> rows = {
      {Value::Int64(5), Value::Null(), Value::String("abc")},
      {Value::Null(), Value::Double(1.5), Value::String("")},
      {Value::Int64(-9), Value::Int64(3), Value::Null()},
  };
  for (const Tuple& t : rows) b.AppendTuple(Tuple(t));
  const std::vector<int> keys = {0, 2};
  for (int32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(BatchRowByteWidth(b, r), TupleByteWidth(rows[r])) << r;
    EXPECT_EQ(BatchRowHasNullAt(b, r, keys), TupleHasNullAt(rows[r], keys))
        << r;
    EXPECT_EQ(HashBatchRowColumns(b, r, keys),
              HashTupleColumns(rows[r], keys))
        << r;
  }
}

// ----- Selection-vector edge cases at the operator level -----

Schema EdgeSchema() {
  return Schema({{"t", "a", DataType::kInt64}, {"t", "b", DataType::kInt64}});
}

std::unique_ptr<Table> EdgeTable(int n, int null_every) {
  auto t = std::make_unique<Table>("t", EdgeSchema());
  for (int i = 0; i < n; ++i) {
    Value a = (null_every > 0 && i % null_every == 0) ? Value::Null()
                                                      : Value::Int64(i);
    MAGICDB_CHECK_OK(t->Insert({std::move(a), Value::Int64(i % 5)}));
  }
  return t;
}

StatusOr<std::vector<Tuple>> RunFilter(Table* t, int64_t batch_size,
                                       int64_t lt, CostCounters* counters) {
  ExecContext ctx;
  ctx.set_batch_size(batch_size);
  auto pred =
      MakeComparison(CompareOp::kLt, MakeColumnRef(0, DataType::kInt64),
                     MakeLiteral(Value::Int64(lt)));
  FilterOp op(std::make_unique<SeqScanOp>(t), pred);
  auto rows = ExecuteToVector(&op, &ctx);
  *counters = ctx.counters();
  return rows;
}

TEST(BatchEdgeCaseTest, EmptyInputProducesEmptyBatchStream) {
  auto t = EdgeTable(0, 0);
  for (int64_t batch : {1, 7, 1024}) {
    CostCounters batch_counters, row_counters;
    auto vec = RunFilter(t.get(), batch, 100, &batch_counters);
    auto row = RunFilter(t.get(), 1, 100, &row_counters);
    ASSERT_TRUE(vec.ok() && row.ok());
    EXPECT_TRUE(vec->empty());
    EXPECT_EQ(batch_counters.exprs_evaluated, row_counters.exprs_evaluated);
  }
}

TEST(BatchEdgeCaseTest, AllRowsFilteredStillTerminates) {
  auto t = EdgeTable(100, 0);
  for (int64_t batch : {1, 7, 1024}) {
    CostCounters batch_counters, row_counters;
    auto vec = RunFilter(t.get(), batch, -1, &batch_counters);  // none pass
    auto row = RunFilter(t.get(), 1, -1, &row_counters);
    ASSERT_TRUE(vec.ok() && row.ok());
    EXPECT_TRUE(vec->empty());
    EXPECT_EQ(batch_counters.exprs_evaluated, 100);
    EXPECT_EQ(batch_counters.exprs_evaluated, row_counters.exprs_evaluated);
    EXPECT_EQ(batch_counters.pages_read, row_counters.pages_read);
  }
}

TEST(BatchEdgeCaseTest, NullHeavyPredicateMatchesRowMode) {
  auto t = EdgeTable(101, /*null_every=*/2);  // half the rows NULL
  for (int64_t batch : {1, 7, 1024}) {
    CostCounters batch_counters, row_counters;
    auto vec = RunFilter(t.get(), batch, 50, &batch_counters);
    auto row = RunFilter(t.get(), 1, 50, &row_counters);
    ASSERT_TRUE(vec.ok() && row.ok());
    ASSERT_EQ(vec->size(), row->size());
    for (size_t i = 0; i < vec->size(); ++i) {
      EXPECT_EQ(CompareTuples((*vec)[i], (*row)[i]), 0) << "row " << i;
    }
    EXPECT_EQ(batch_counters.exprs_evaluated, row_counters.exprs_evaluated);
    EXPECT_EQ(batch_counters.tuples_processed, row_counters.tuples_processed);
  }
}

TEST(BatchEdgeCaseTest, RowOnlySortOverBatchFilterAdapts) {
  // SortOp is a row-at-a-time operator: it drains its batch child through
  // the shared breaker drain, and its own rows are batched by the
  // RowOperator base for ExecuteToVector — a mixed tree.
  auto t = EdgeTable(200, /*null_every=*/7);
  auto run = [&](int64_t batch_size) {
    ExecContext ctx;
    ctx.set_batch_size(batch_size);
    auto pred =
        MakeComparison(CompareOp::kLt, MakeColumnRef(0, DataType::kInt64),
                       MakeLiteral(Value::Int64(150)));
    auto filter =
        std::make_unique<FilterOp>(std::make_unique<SeqScanOp>(t.get()), pred);
    std::vector<SortOp::SortKey> keys;
    keys.push_back({MakeColumnRef(0, DataType::kInt64), /*ascending=*/false});
    SortOp sort(std::move(filter), std::move(keys));
    auto rows = ExecuteToVector(&sort, &ctx);
    MAGICDB_CHECK_OK(rows.status());
    return std::make_pair(*rows, ctx.counters());
  };
  auto [row_rows, row_counters] = run(1);
  ASSERT_FALSE(row_rows.empty());
  for (int64_t batch : {7, 1024}) {
    auto [vec_rows, vec_counters] = run(batch);
    ASSERT_EQ(vec_rows.size(), row_rows.size());
    for (size_t i = 0; i < vec_rows.size(); ++i) {
      EXPECT_EQ(CompareTuples(vec_rows[i], row_rows[i]), 0) << "row " << i;
    }
    EXPECT_EQ(vec_counters.exprs_evaluated, row_counters.exprs_evaluated);
  }
}

// ----- End-to-end byte-identity sweep -----

void ExpectCountersEqual(const CostCounters& a, const CostCounters& b) {
  EXPECT_EQ(a.pages_read, b.pages_read);
  EXPECT_EQ(a.pages_written, b.pages_written);
  EXPECT_EQ(a.tuples_processed, b.tuples_processed);
  EXPECT_EQ(a.exprs_evaluated, b.exprs_evaluated);
  EXPECT_EQ(a.hash_operations, b.hash_operations);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_shipped, b.bytes_shipped);
  EXPECT_EQ(a.function_invocations, b.function_invocations);
}

void ExpectRowsIdentical(const std::vector<Tuple>& a,
                         const std::vector<Tuple>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(CompareTuples(a[i], b[i]), 0) << "row " << i << " differs";
  }
}

// Emp/Dept/Bonus workload with NULL-ridden join/group keys and the DepComp
// aggregate view (plans a Filter Join under magic rewriting).
void MakeWorkload(Database* db_out) {
  Database& db = *db_out;
  MAGICDB_CHECK_OK(
      db.Execute("CREATE TABLE Emp (eid INT, did INT, sal DOUBLE, age INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Bonus (eid INT, amount DOUBLE)"));
  Random rng(29);
  std::vector<Tuple> emps, depts, bonuses;
  int64_t eid = 0;
  for (int d = 0; d < 120; ++d) {
    depts.push_back({Value::Int64(d),
                     Value::Double(rng.Bernoulli(0.05) ? 200000.0 : 50000.0)});
    for (int e = 0; e < 7; ++e, ++eid) {
      // ~10% NULL join keys exercise the batch null screening in hash
      // build, probe, and aggregation.
      Value did = rng.Bernoulli(0.1) ? Value::Null() : Value::Int64(d);
      emps.push_back({Value::Int64(eid), std::move(did),
                      Value::Double(50000.0 + rng.NextDouble() * 100000.0),
                      Value::Int64(rng.Bernoulli(0.1) ? 25 : 45)});
      bonuses.push_back(
          {Value::Int64(eid), Value::Double(rng.NextDouble() * 5000.0)});
    }
  }
  MAGICDB_CHECK_OK(db.LoadRows("Dept", std::move(depts)));
  MAGICDB_CHECK_OK(db.LoadRows("Emp", std::move(emps)));
  MAGICDB_CHECK_OK(db.LoadRows("Bonus", std::move(bonuses)));
  MAGICDB_CHECK_OK(db.Execute(
      "CREATE VIEW DepComp AS SELECT E.did, AVG(E.sal + B.amount) AS "
      "avgcomp FROM Emp E, Bonus B WHERE E.eid = B.eid GROUP BY E.did"));
  OptimizerOptions* opts = db.mutable_optimizer_options();
  opts->enable_nested_loops = false;
  opts->enable_index_nested_loops = false;
  opts->enable_sort_merge = false;
}

const char* const kRangeJoinQuery =
    "SELECT E.eid, E.sal, D.budget FROM Emp E, Dept D "
    "WHERE E.did = D.did AND E.did >= 60 AND 75 > E.did";

const char* const kSweepQueries[] = {
    // Scan -> filter -> project (pure pipeline).
    "SELECT E.eid, E.sal + 1000 FROM Emp E WHERE E.age < 30",
    // Hash join with a residual predicate.
    "SELECT E.eid, E.sal, D.budget FROM Emp E, Dept D "
    "WHERE E.did = D.did AND E.age < 30 AND D.budget > 100000",
    // GROUP BY aggregation over a join.
    "SELECT E.did, COUNT(*), AVG(E.sal) FROM Emp E, Dept D "
    "WHERE E.did = D.did GROUP BY E.did",
    // Filter Join (magic) + final ORDER BY through the row-at-a-time
    // SortOp.
    "SELECT E.did AS d, E.sal AS s, V.avgcomp FROM Emp E, Dept D, DepComp V "
    "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgcomp "
    "ORDER BY d, s",
    // 840 groups over an 840-row join build: the group table, the build
    // table and the partitioned merge grow through many steps.
    "SELECT E.eid, COUNT(*), MAX(B.amount) FROM Emp E, Bonus B "
    "WHERE E.eid = B.eid GROUP BY E.eid",
    // Clustered ranges on E.did (Emp is loaded in did order, 128 rows per
    // page): the scan skips every page outside the range, and morsels see
    // the same skips at dop 4. A range scan, a range hash join and a range
    // GROUP BY.
    "SELECT E.eid, E.did, E.sal FROM Emp E WHERE E.did >= 30 AND E.did < 50",
    kRangeJoinQuery,
    "SELECT E.did, COUNT(*), MAX(E.sal) FROM Emp E "
    "WHERE E.did >= 10 AND E.did <= 40 GROUP BY E.did",
    // A Filter Join without ORDER BY (the selective Dept filter makes magic
    // pay): at dop 4 its probe output reaches the gather merge through
    // rank-tagged batches.
    "SELECT E.did, E.sal, V.avgcomp FROM Emp E, Dept D, DepComp V "
    "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgcomp "
    "AND D.budget > 100000",
    // GROUP BY over that Filter Join: the parallel aggregate ranks its
    // groups by the Filter Join's rank tags.
    "SELECT E.did, COUNT(*), MAX(E.sal) FROM Emp E, Dept D, DepComp V "
    "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgcomp "
    "AND D.budget > 100000 GROUP BY E.did",
};

// The sweep queries from this index on must run as a parallel Filter Join
// pipeline at dop 4.
constexpr size_t kFirstParallelFilterJoinQuery = 8;

TEST(BatchIdentitySweepTest, DopTimesBatchSizeGridIsByteIdentical) {
  Database db;
  MakeWorkload(&db);
  for (size_t q = 0; q < std::size(kSweepQueries); ++q) {
    const char* query = kSweepQueries[q];
    SCOPED_TRACE(query);
    const bool parallel_filter_join = q >= kFirstParallelFilterJoinQuery;
    // Sequential execution at batch size 1 is the reference.
    db.set_exec_batch_size(1);
    auto reference = db.Run(query);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (int dop : {1, 4}) {
      for (int64_t batch : {1, 7, 1024}) {
        SCOPED_TRACE("dop=" + std::to_string(dop) +
                     " batch=" + std::to_string(batch));
        db.set_exec_batch_size(batch);
        auto result = db.Run(query, {.dop = dop});
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        if (parallel_filter_join && dop == 4) {
          EXPECT_EQ(result->used_dop, 4) << result->parallel_fallback_reason;
          EXPECT_NE(result->explain.find("FilterJoin"), std::string::npos)
              << result->explain;
        }
        ExpectRowsIdentical(result->rows, reference->rows);
        ExpectCountersEqual(result->counters, reference->counters);
      }
    }
  }
}

TEST(BatchIdentitySweepTest, SpillUnderTinyLimitIsByteIdentical) {
  const testutil::ScopedTempDir dir("batch");
  Database db;
  MakeWorkload(&db);
  QueryServiceOptions so;
  so.pool_threads = 4;
  so.spill_dir = dir.path();
  so.spill_batch_bytes = 1024;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();
  for (const char* query :
       {"SELECT E.did, COUNT(*), AVG(E.sal) FROM Emp E, Dept D "
        "WHERE E.did = D.did GROUP BY E.did",
        kRangeJoinQuery}) {
    SCOPED_TRACE(query);
    ExecOptions one_row_exec;
    one_row_exec.batch_size = 1;
    auto reference = session->Query(query, one_row_exec);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_FALSE(reference->rows.empty());
    for (int64_t limit : {int64_t{16} * 1024, int64_t{0}}) {
      for (int64_t batch : {1, 7, 1024}) {
        SCOPED_TRACE("limit=" + std::to_string(limit) +
                     " batch=" + std::to_string(batch));
        ExecOptions exec;
        exec.memory_limit_bytes = limit;
        exec.batch_size = batch;
        auto result = session->Query(query, exec);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ExpectRowsIdentical(result->rows, reference->rows);
      }
    }
  }
}

// The optimizer moves every base table's conjuncts into SeqScanOp, so no
// plan of the sweep has a Filter directly over a scan.
TEST(BatchIdentitySweepTest, BaseTableFiltersRunInsideTheScan) {
  Database db;
  MakeWorkload(&db);
  for (const char* query : kSweepQueries) {
    SCOPED_TRACE(query);
    auto planned = db.PlanSelect(query, *db.mutable_optimizer_options());
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    EXPECT_EQ(testutil::FilterOverSeqScan(*planned->root), "")
        << planned->explain;
  }
}

TEST(BatchIdentitySweepTest, PlanCacheKeysBatchSizesSeparately) {
  Database db;
  MakeWorkload(&db);
  QueryService service(&db, {});
  std::unique_ptr<Session> session = service.CreateSession();
  const char* query = "SELECT E.eid FROM Emp E WHERE E.age < 30";
  // Alternating batch sizes on one session must each execute correctly:
  // the effective batch size is part of the plan-cache key, so a tree
  // opened at one batch size is never resumed at another.
  std::vector<Tuple> reference;
  for (int round = 0; round < 2; ++round) {
    for (int64_t batch : {1, 1024, 7}) {
      SCOPED_TRACE("round=" + std::to_string(round) +
                   " batch=" + std::to_string(batch));
      ExecOptions exec;
      exec.batch_size = batch;
      auto result = session->Query(query, exec);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (reference.empty()) reference = result->rows;
      ExpectRowsIdentical(result->rows, reference);
    }
  }
}

// A consumer may change its pull size between calls (RowReader::Next takes
// a per-call row count). The hash join must go on probing the outer rows it
// already pulled, mid-batch and mid-bucket, instead of dropping them.
TEST(BatchEdgeCaseTest, HashJoinKeepsProbeRowsWhenPullSizeChanges) {
  Table r("r", Schema({{"r", "k", DataType::kInt64},
                       {"r", "x", DataType::kInt64}}));
  Table s("s", Schema({{"s", "k", DataType::kInt64},
                       {"s", "y", DataType::kInt64}}));
  for (int i = 0; i < 300; ++i) {
    MAGICDB_CHECK_OK(r.Insert({Value::Int64(i % 50), Value::Int64(i)}));
  }
  for (int i = 0; i < 400; ++i) {  // eight s rows per key
    MAGICDB_CHECK_OK(s.Insert({Value::Int64(i % 50), Value::Int64(i * 10)}));
  }
  auto drain = [&](const std::function<int32_t(int)>& capacity_of_call) {
    HashJoinOp join(std::make_unique<SeqScanOp>(&r),
                    std::make_unique<SeqScanOp>(&s), std::vector<int>{0},
                    std::vector<int>{0}, nullptr);
    ExecContext ctx;
    MAGICDB_CHECK_OK(join.Open(&ctx));
    std::vector<Tuple> rows;
    bool eof = false;
    for (int call = 0; !eof; ++call) {
      RowBatch out(capacity_of_call(call));
      MAGICDB_CHECK_OK(join.NextBatch(&out, &eof));
      out.MoveActiveToTuples(&rows);
    }
    MAGICDB_CHECK_OK(join.Close());
    return rows;
  };
  const std::vector<Tuple> fixed = drain([](int) { return 7; });
  ASSERT_EQ(fixed.size(), 300u * 8);
  ExpectRowsIdentical(drain([](int call) { return 7 - call % 7; }), fixed);
}

// ----- Projection moves a column it alone reads -----

// Serves fixed rows and records, at each pull, how long each column of the
// batch it filled the pull before still is: a consumer that moved a column
// out leaves it empty, one that copied it leaves it whole.
class LeftoverRecorder final : public Operator {
 public:
  LeftoverRecorder(Schema schema, std::vector<Tuple> rows)
      : Operator(std::move(schema)), rows_(std::move(rows)) {}

  Status Open(ExecContext*) override {
    next_ = 0;
    leftovers_.clear();
    return Status::OK();
  }
  Status NextBatch(RowBatch* out, bool* eof) override {
    if (next_ > 0) {
      std::vector<size_t> lengths;
      for (int c = 0; c < out->num_cols(); ++c) {
        lengths.push_back(out->column(c).size());
      }
      leftovers_.push_back(std::move(lengths));
    }
    out->ResetForWrite(schema_.num_columns());
    while (!out->full() && next_ < rows_.size()) {
      out->AppendTuple(Tuple(rows_[next_++]));
    }
    *eof = next_ == rows_.size();
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  std::string Describe() const override { return "LeftoverRecorder"; }

  const std::vector<std::vector<size_t>>& leftovers() const {
    return leftovers_;
  }

 private:
  std::vector<Tuple> rows_;
  size_t next_ = 0;
  std::vector<std::vector<size_t>> leftovers_;
};

// `SELECT a, a + 1, b, c, c`: `a` is read by two outputs and `c` twice,
// so both are copied; `b` is read only by its bare reference and moves.
TEST(ProjectMoveTest, MovesOnlyAColumnItsBareRefAloneReads) {
  const Schema in_schema({{"t", "a", DataType::kInt64},
                          {"t", "b", DataType::kString},
                          {"t", "c", DataType::kInt64}});
  std::vector<Tuple> rows;
  std::vector<Tuple> expected;
  for (int i = 0; i < 20; ++i) {
    rows.push_back({i % 3 == 0 ? Value::Null() : Value::Int64(i),
                    Value::String("b" + std::to_string(i)),
                    Value::Int64(i * 7)});
    const Value a1 = rows.back()[0].is_null()
                         ? Value::Null()
                         : Value::Int64(rows.back()[0].AsInt64() + 1);
    expected.push_back({rows.back()[0], a1, rows.back()[1], rows.back()[2],
                        rows.back()[2]});
  }
  auto a = [] { return MakeColumnRef(0, DataType::kInt64, "t.a"); };
  auto c = [] { return MakeColumnRef(2, DataType::kInt64, "t.c"); };
  const Schema out_schema({{"", "a", DataType::kInt64},
                           {"", "a1", DataType::kInt64},
                           {"", "b", DataType::kString},
                           {"", "c", DataType::kInt64},
                           {"", "c2", DataType::kInt64}});
  for (int64_t batch : {1, 7, 1024}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    auto source = std::make_unique<LeftoverRecorder>(in_schema, rows);
    const LeftoverRecorder* recorder = source.get();
    ProjectOp project(
        std::move(source),
        {a(), MakeArithmetic(ArithOp::kAdd, a(), MakeLiteral(Value::Int64(1))),
         MakeColumnRef(1, DataType::kString, "t.b"), c(), c()},
        out_schema);
    ExecContext ctx;
    ctx.set_batch_size(batch);
    auto got = ExecuteToVector(&project, &ctx);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectRowsIdentical(*got, expected);
    EXPECT_EQ(ctx.counters().exprs_evaluated, 20 * 5);
    // Each pull after the first sees what became of the full batch before.
    if (batch < 20) ASSERT_FALSE(recorder->leftovers().empty());
    for (const std::vector<size_t>& left : recorder->leftovers()) {
      EXPECT_EQ(left[0], static_cast<size_t>(batch));  // copied
      EXPECT_EQ(left[1], 0u);                          // moved
      EXPECT_EQ(left[2], static_cast<size_t>(batch));  // copied
    }
  }
}

// ----- LIMIT does no work past its rows -----

// LimitOp asks its child for one row at a time, and no streaming operator
// asks a child for more rows than it was asked for, so a LIMIT query does
// the same work — and charges the same counters — at any batch size. A
// design that fetched ahead (a full batch below the LIMIT) would charge
// the extra scan, probe and filter work at batch 7 and 1024. A join with a
// residual evaluates it over one-row batches here, one candidate at a time.
TEST(BatchLimitTest, LimitWorkIsBatchSizeInvariant) {
  Table r("r", Schema({{"r", "k", DataType::kInt64},
                       {"r", "x", DataType::kInt64}}));
  Table s("s", Schema({{"s", "k", DataType::kInt64},
                       {"s", "y", DataType::kInt64}}));
  for (int i = 0; i < 3000; ++i) {
    MAGICDB_CHECK_OK(r.Insert({Value::Int64(i % 50), Value::Int64(i)}));
  }
  for (int i = 0; i < 400; ++i) {  // eight s rows per key
    MAGICDB_CHECK_OK(s.Insert({Value::Int64(i % 50), Value::Int64(i * 10)}));
  }
  const HashIndex* s_index = s.CreateHashIndex({0});
  // r.x >= 1000: the first 1000 rows of r fail the filter.
  auto filtered_r = [&]() -> OpPtr {
    return std::make_unique<FilterOp>(
        std::make_unique<SeqScanOp>(&r),
        MakeComparison(CompareOp::kGe, MakeColumnRef(1, DataType::kInt64),
                       MakeLiteral(Value::Int64(1000))));
  };
  auto probe_s = [&](OpPtr outer, ExprPtr residual = nullptr) -> OpPtr {
    return std::make_unique<IndexNestedLoopsJoinOp>(
        std::move(outer), &s, s_index, std::vector<int>{0},
        std::move(residual));
  };
  // Over r ++ s (or r ++ the function's args ++ y): y < 1000 keeps two of
  // the eight inner rows of each key, so the join runs its residual loop.
  auto residual = [] {
    return MakeComparison(CompareOp::kLt, MakeColumnRef(3, DataType::kInt64),
                          MakeLiteral(Value::Int64(1000)));
  };
  auto filter_join = [&](ExprPtr fj_residual) -> OpPtr {
    const std::string binding = "fs_limit";
    auto inner = std::make_unique<FilterProbeOp>(
        std::make_unique<SeqScanOp>(&s), binding, std::vector<int>{0});
    return std::make_unique<FilterJoinOp>(
        filtered_r(), std::move(inner), binding, std::vector<int>{0},
        std::vector<int>{0}, std::move(fj_residual), FilterSetImpl::kExact);
  };
  // s as a function: the eight (y) rows of key k.
  LambdaTableFunction s_fn(
      "s_fn", Schema({{"", "k", DataType::kInt64}}),
      Schema({{"", "y", DataType::kInt64}}),
      [](const Tuple& in, std::vector<Tuple>* out) {
        for (int64_t j = 0; j < 8; ++j) {
          out->push_back({Value::Int64((in[0].AsInt64() + 50 * j) * 10)});
        }
        return Status::OK();
      });
  const std::vector<std::pair<std::string, std::function<OpPtr()>>> shapes = {
      {"filtered scan", filtered_r},
      {"hash join",
       [&]() -> OpPtr {
         return std::make_unique<HashJoinOp>(
             filtered_r(), std::make_unique<SeqScanOp>(&s),
             std::vector<int>{0}, std::vector<int>{0}, nullptr);
       }},
      // Eight inner matches per outer row.
      {"index nested loops", [&] { return probe_s(filtered_r()); }},
      {"filter join under index nested loops",
       [&] { return probe_s(filter_join(nullptr)); }},
      // A residual on each join method.
      {"hash join + residual",
       [&]() -> OpPtr {
         return std::make_unique<HashJoinOp>(
             filtered_r(), std::make_unique<SeqScanOp>(&s),
             std::vector<int>{0}, std::vector<int>{0}, residual());
       }},
      {"index nested loops + residual",
       [&] { return probe_s(filtered_r(), residual()); }},
      {"nested loops + residual",
       [&]() -> OpPtr {
         return std::make_unique<NestedLoopsJoinOp>(
             filtered_r(), std::make_unique<SeqScanOp>(&s),
             MakeAnd(MakeComparison(CompareOp::kEq,
                                    MakeColumnRef(0, DataType::kInt64),
                                    MakeColumnRef(2, DataType::kInt64)),
                     residual()));
       }},
      {"sort-merge + residual",
       [&]() -> OpPtr {
         return std::make_unique<SortMergeJoinOp>(
             filtered_r(), std::make_unique<SeqScanOp>(&s),
             std::vector<int>{0}, std::vector<int>{0}, residual());
       }},
      {"filter join + residual", [&] { return filter_join(residual()); }},
      {"function probe + residual",
       [&]() -> OpPtr {
         return std::make_unique<FunctionProbeJoinOp>(
             filtered_r(), &s_fn, std::vector<int>{0}, residual(),
             /*memoize=*/true);
       }},
  };
  for (const auto& [name, make] : shapes) {
    for (int64_t limit : {1, 13}) {
      SCOPED_TRACE(name + " LIMIT " + std::to_string(limit));
      auto run = [&](int64_t batch) {
        ExecContext ctx;
        ctx.set_batch_size(batch);
        LimitOp op(make(), limit);
        auto rows = ExecuteToVector(&op, &ctx);
        MAGICDB_CHECK_OK(rows.status());
        return std::make_pair(*rows, ctx.counters());
      };
      auto [ref_rows, ref_counters] = run(1);
      ASSERT_EQ(ref_rows.size(), static_cast<size_t>(limit));
      for (int64_t batch : {7, 1024}) {
        SCOPED_TRACE("batch=" + std::to_string(batch));
        auto [rows, counters] = run(batch);
        ExpectRowsIdentical(rows, ref_rows);
        ExpectCountersEqual(counters, ref_counters);
      }
    }
  }
}

}  // namespace
}  // namespace magicdb
