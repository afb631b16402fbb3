// Tests for the morsel-driven parallel execution subsystem: the
// work-stealing thread pool, morsel partitioning, and the end-to-end
// guarantees of ParallelExecutor / Database::Run at dop > 1 — results
// byte-identical to sequential execution at any DoP, and merged per-worker
// cost counters exactly equal to a single-threaded execution's.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "src/exec/agg_state.h"
#include "src/exec/aggregate_op.h"
#include "src/expr/expr.h"
#include "src/optimizer/cost_model.h"
#include "src/parallel/morsel.h"
#include "src/parallel/parallel_exec.h"
#include "src/parallel/thread_pool.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

// ----- ThreadPool -----

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 1000);
}

TEST(ThreadPoolTest, StealsUnderImbalance) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  // Pile all tasks onto worker 0's deque; the only way workers 1-3 can
  // contribute (and the pool drain in reasonable time) is by stealing.
  for (int i = 0; i < 64; ++i) {
    pool.SubmitTo(0, [&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 64);
  EXPECT_GT(pool.steal_count(), 0);
}

// ----- MorselSource -----

TEST(MorselTest, MorselsArePageAligned) {
  MorselSource source(100000, /*rows_per_page=*/7, /*target_rows=*/4096);
  EXPECT_EQ(source.morsel_rows() % 7, 0);
  EXPECT_GE(source.morsel_rows(), 4096);
  Morsel m;
  while (source.Next(&m)) {
    EXPECT_EQ(m.begin % 7, 0);  // every morsel starts on a page boundary
    EXPECT_LE(m.end, 100000);
  }
}

TEST(MorselTest, ConcurrentClaimsCoverEveryRowExactlyOnce) {
  constexpr int64_t kRows = 100001;  // deliberately not a round number
  MorselSource source(kRows, /*rows_per_page=*/13, /*target_rows=*/512);
  std::vector<std::atomic<int>> claimed(kRows);
  for (auto& c : claimed) c.store(0);
  std::vector<std::thread> threads;
  std::vector<std::vector<int64_t>> first_rows(4);  // per-thread claim order
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Morsel m;
      while (source.Next(&m)) {
        first_rows[t].push_back(m.begin);
        for (int64_t r = m.begin; r < m.end; ++r) {
          claimed[r].fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int64_t r = 0; r < kRows; ++r) {
    ASSERT_EQ(claimed[r].load(), 1) << "row " << r;
  }
  // Claims are monotonically increasing per thread — the property the
  // gather merge relies on.
  for (const auto& order : first_rows) {
    for (size_t i = 1; i < order.size(); ++i) {
      EXPECT_LT(order[i - 1], order[i]);
    }
  }
}

// ----- End-to-end parallel execution -----

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

// Emp/Dept/Bonus workload (no indexes, hash joins only) with the DepComp
// aggregate view from the paper's running example.
void MakeWorkload(Database* db_out) {
  Database& db = *db_out;
  MAGICDB_CHECK_OK(
      db.Execute("CREATE TABLE Emp (eid INT, did INT, sal DOUBLE, age INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Bonus (eid INT, amount DOUBLE)"));
  Random rng(17);
  std::vector<Tuple> emps, depts, bonuses;
  int64_t eid = 0;
  for (int d = 0; d < 200; ++d) {
    depts.push_back({Value::Int64(d),
                     Value::Double(rng.Bernoulli(0.05) ? 200000.0 : 50000.0)});
    for (int e = 0; e < 6; ++e, ++eid) {
      emps.push_back({Value::Int64(eid), Value::Int64(d),
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
  // Steer planning to hash joins (the parallel-safe join method); there
  // are no indexes, so index nested loops is out anyway.
  OptimizerOptions* opts = db.mutable_optimizer_options();
  opts->enable_nested_loops = false;
  opts->enable_index_nested_loops = false;
  opts->enable_sort_merge = false;
}

TEST(ParallelExecTest, HashJoinQueryIdenticalAtDop4) {
  Database db;
  MakeWorkload(&db);
  const char* query =
      "SELECT E.eid, E.sal, D.budget FROM Emp E, Dept D "
      "WHERE E.did = D.did AND E.age < 30 AND D.budget > 100000";
  auto seq = db.Run(query, {.dop = 1});
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(seq->used_dop, 1);
  auto par = db.Run(query, {.dop = 4});
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_EQ(par->used_dop, 4) << par->parallel_fallback_reason;
  ASSERT_FALSE(seq->rows.empty());
  ExpectRowsIdentical(par->rows, seq->rows);
  ExpectCountersEqual(par->counters, seq->counters);
  // The default-options Run must agree too (same plan, same order).
  auto plain = db.Run(query);
  ASSERT_TRUE(plain.ok());
  ExpectRowsIdentical(seq->rows, plain->rows);
  ExpectCountersEqual(seq->counters, plain->counters);
}

TEST(ParallelExecTest, FilterJoinQueryIdenticalAtEveryDop) {
  Database db;
  MakeWorkload(&db);
  // The optimizer plans this as HashJoin(FilterJoin(Dept, magic view),
  // Emp) — a Filter Join in the middle of the driving chain, exercising
  // the full parallel protocol: partitioned filter-set build, coordinator
  // inner, partitioned hash-join build, parallel probes.
  const char* query =
      "SELECT E.did, E.sal, V.avgcomp FROM Emp E, Dept D, DepComp V "
      "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgcomp "
      "AND E.age < 30 AND D.budget > 100000";
  auto seq = db.Run(query, {.dop = 1});
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_FALSE(seq->rows.empty());
  ASSERT_FALSE(seq->filter_join_measured.empty())
      << "workload regressed: expected a Filter Join in the plan";
  for (int dop : {2, 4, 8}) {
    auto par = db.Run(query, {.dop = dop});
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    EXPECT_EQ(par->used_dop, dop) << par->parallel_fallback_reason;
    ExpectRowsIdentical(par->rows, seq->rows);
    ExpectCountersEqual(par->counters, seq->counters);
    // The summed per-phase Filter Join measurements also match.
    ASSERT_EQ(par->filter_join_measured.size(),
              seq->filter_join_measured.size());
    for (size_t i = 0; i < par->filter_join_measured.size(); ++i) {
      EXPECT_NEAR(par->filter_join_measured[i].Total(),
                  seq->filter_join_measured[i].Total(), 1e-6);
    }
  }
}

TEST(ParallelExecTest, ViewBuildSideFallsBack) {
  Database db;
  MakeWorkload(&db);
  // Here the cheapest plan hash-joins Emp against the aggregated view
  // directly; a build side that is not a base-table scan chain cannot be
  // partitioned, so the executor must fall back — and stay correct.
  const char* query =
      "SELECT E.eid, V.avgcomp FROM Emp E, DepComp V "
      "WHERE E.did = V.did AND E.sal > V.avgcomp AND E.age < 30";
  auto par = db.Run(query, {.dop = 4});
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  auto plain = db.Run(query);
  ASSERT_TRUE(plain.ok());
  if (par->used_dop == 1) {
    EXPECT_FALSE(par->parallel_fallback_reason.empty());
  }
  ExpectRowsIdentical(par->rows, plain->rows);
  ExpectCountersEqual(par->counters, plain->counters);
}

TEST(ParallelExecTest, UnsafeShapesFallBackAndStayCorrect) {
  Database db;
  MakeWorkload(&db);
  // A Sort at the top is not a parallel-safe pipeline shape.
  const char* query =
      "SELECT E.eid, E.sal FROM Emp E WHERE E.age < 30 ORDER BY eid";
  auto par = db.Run(query, {.dop = 4});
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_EQ(par->used_dop, 1);
  EXPECT_FALSE(par->parallel_fallback_reason.empty());
  auto plain = db.Run(query);
  ASSERT_TRUE(plain.ok());
  ExpectRowsIdentical(par->rows, plain->rows);
  ExpectCountersEqual(par->counters, plain->counters);
}

// ----- Parallel aggregation -----

TEST(ParallelAggTest, GroupByIdenticalAtEveryDop) {
  Database db;
  MakeWorkload(&db);
  // COUNT / SUM(int) / MIN / MAX / AVG(int): every double addition the
  // merge performs is exact, so parallel results must be byte-identical to
  // sequential, not merely close.
  const char* query =
      "SELECT E.did, COUNT(*) AS c, SUM(E.eid) AS s, MIN(E.sal) AS mn, "
      "MAX(E.age) AS mx, AVG(E.eid) AS av FROM Emp E GROUP BY E.did";
  auto seq = db.Run(query, {.dop = 1});
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_EQ(seq->rows.size(), 200u);
  for (int dop : {2, 4, 8}) {
    auto par = db.Run(query, {.dop = dop});
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    EXPECT_EQ(par->used_dop, dop) << par->parallel_fallback_reason;
    ExpectRowsIdentical(par->rows, seq->rows);
    ExpectCountersEqual(par->counters, seq->counters);
  }
  // The plain sequential path agrees too (same first-seen output order).
  auto plain = db.Run(query);
  ASSERT_TRUE(plain.ok());
  ExpectRowsIdentical(seq->rows, plain->rows);
  ExpectCountersEqual(seq->counters, plain->counters);
}

TEST(ParallelAggTest, GroupByOverHashJoinIdenticalAtEveryDop) {
  Database db;
  MakeWorkload(&db);
  // Aggregation above a partitioned hash join: group first-seen order is
  // ranked by the join's probe positions (with fan-out disambiguated by
  // the per-position emission index).
  const char* query =
      "SELECT E.did, COUNT(*) AS c, SUM(E.eid) AS s, MIN(E.sal) AS m "
      "FROM Emp E, Dept D WHERE E.did = D.did AND D.budget > 100000 "
      "GROUP BY E.did";
  auto seq = db.Run(query, {.dop = 1});
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_FALSE(seq->rows.empty());
  for (int dop : {2, 4, 8}) {
    auto par = db.Run(query, {.dop = dop});
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    EXPECT_EQ(par->used_dop, dop) << par->parallel_fallback_reason;
    ExpectRowsIdentical(par->rows, seq->rows);
    ExpectCountersEqual(par->counters, seq->counters);
  }
}

TEST(ParallelAggTest, GroupByOverFilterJoinIdenticalAtEveryDop) {
  Database db;
  MakeWorkload(&db);
  // Aggregation above the magic Filter Join: the (pos, sub) ranks flow from
  // the filter join's probe positions through the aggregate's group
  // first-seen order.
  const char* query =
      "SELECT E.did, COUNT(*) AS c, MIN(E.sal) AS m "
      "FROM Emp E, Dept D, DepComp V "
      "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgcomp "
      "AND E.age < 30 AND D.budget > 100000 GROUP BY E.did";
  auto seq = db.Run(query, {.dop = 1});
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_FALSE(seq->rows.empty());
  ASSERT_FALSE(seq->filter_join_measured.empty())
      << "workload regressed: expected a Filter Join in the plan";
  for (int dop : {2, 4, 8}) {
    auto par = db.Run(query, {.dop = dop});
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    EXPECT_EQ(par->used_dop, dop) << par->parallel_fallback_reason;
    ExpectRowsIdentical(par->rows, seq->rows);
    ExpectCountersEqual(par->counters, seq->counters);
  }
}

TEST(ParallelAggTest, NullOnlyGroupsStayNullAtEveryDop) {
  Database db;
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE T (g INT, v DOUBLE)"));
  std::vector<Tuple> rows;
  for (int i = 0; i < 4000; ++i) {
    const int g = i % 8;
    // Groups 0..3 carry (integer-valued) doubles; groups 4..7 are
    // NULL-only and must finalize to NULL / COUNT 0 after the merge.
    rows.push_back({Value::Int64(g), g < 4 ? Value::Double(i)
                                           : Value::Null()});
  }
  MAGICDB_CHECK_OK(db.LoadRows("T", std::move(rows)));
  const char* query =
      "SELECT T.g, COUNT(T.v) AS c, SUM(T.v) AS s, MIN(T.v) AS mn, "
      "AVG(T.v) AS a FROM T GROUP BY T.g";
  auto seq = db.Run(query, {.dop = 1});
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_EQ(seq->rows.size(), 8u);
  for (const Tuple& row : seq->rows) {
    if (row[0].AsInt64() < 4) continue;
    EXPECT_EQ(row[1].AsInt64(), 0);
    EXPECT_TRUE(row[2].is_null());
    EXPECT_TRUE(row[3].is_null());
    EXPECT_TRUE(row[4].is_null());
  }
  for (int dop : {2, 4, 8}) {
    auto par = db.Run(query, {.dop = dop});
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    EXPECT_EQ(par->used_dop, dop) << par->parallel_fallback_reason;
    ExpectRowsIdentical(par->rows, seq->rows);
    ExpectCountersEqual(par->counters, seq->counters);
  }
}

TEST(ParallelAggTest, EmptyInputScalarAggregateOneRowAtEveryDop) {
  Database db;
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE T (g INT, v DOUBLE)"));
  // No rows loaded: a scalar aggregate still yields exactly one row, with
  // COUNT(*) = 0 and NULL for the value aggregates — at every DoP, even
  // though no worker ever claims a morsel.
  const char* query =
      "SELECT COUNT(*) AS c, COUNT(T.v) AS cv, SUM(T.v) AS s, "
      "MIN(T.v) AS m FROM T";
  auto seq = db.Run(query, {.dop = 1});
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_EQ(seq->rows.size(), 1u);
  EXPECT_EQ(seq->rows[0][0].AsInt64(), 0);
  EXPECT_EQ(seq->rows[0][1].AsInt64(), 0);
  EXPECT_TRUE(seq->rows[0][2].is_null());
  EXPECT_TRUE(seq->rows[0][3].is_null());
  for (int dop : {2, 4, 8}) {
    auto par = db.Run(query, {.dop = dop});
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    EXPECT_EQ(par->used_dop, dop) << par->parallel_fallback_reason;
    ExpectRowsIdentical(par->rows, seq->rows);
    ExpectCountersEqual(par->counters, seq->counters);
  }
}

// Builds a partial state over int64 inputs exactly as the operator's
// accumulate path does.
AggState MakeIntState(std::initializer_list<int64_t> vals) {
  AggState st;
  for (int64_t v : vals) {
    st.count += 1;
    st.sum += static_cast<double>(v);
    if (st.int_sum) st.isum += v;
    Value val = Value::Int64(v);
    if (st.min.is_null() || val.Compare(st.min) < 0) st.min = val;
    if (st.max.is_null() || val.Compare(st.max) > 0) st.max = val;
  }
  return st;
}

TEST(AggStateTest, CombineAddsExactlyAndEmptyIsIdentity) {
  AggState a = MakeIntState({1, 2, 3});
  AggState b = MakeIntState({10, -5});
  AggState merged = a;
  merged.CombineFrom(b);
  EXPECT_EQ(merged.count, 5);
  EXPECT_TRUE(merged.int_sum);
  EXPECT_EQ(merged.isum, 11);
  EXPECT_EQ(merged.sum, 11.0);
  EXPECT_EQ(merged.min.AsInt64(), -5);
  EXPECT_EQ(merged.max.AsInt64(), 10);

  // An empty (all-NULL / no-input) partial is the combine identity.
  AggState with_empty = a;
  with_empty.CombineFrom(AggState{});
  EXPECT_EQ(with_empty.count, a.count);
  EXPECT_EQ(with_empty.isum, a.isum);
  EXPECT_TRUE(with_empty.int_sum);
  EXPECT_EQ(with_empty.min.Compare(a.min), 0);
  EXPECT_EQ(with_empty.max.Compare(a.max), 0);
}

TEST(AggStateTest, Int64PromotionIdenticalUnderMergeOrder) {
  AggState ints = MakeIntState({1, 2, 3});
  AggState dbls;  // one double input: 2.5 forces SUM promotion
  dbls.count = 1;
  dbls.sum = 2.5;
  dbls.int_sum = false;
  dbls.min = Value::Double(2.5);
  dbls.max = Value::Double(2.5);

  AggState ab = ints;
  ab.CombineFrom(dbls);
  AggState ba = dbls;
  ba.CombineFrom(ints);
  // Either merge order demotes int64 exactness — exactly as a sequential
  // pass over the union of inputs would — and yields the same sum.
  EXPECT_FALSE(ab.int_sum);
  EXPECT_FALSE(ba.int_sum);
  EXPECT_EQ(ab.sum, 8.5);
  EXPECT_EQ(ba.sum, 8.5);
  EXPECT_EQ(ab.count, 4);
  EXPECT_EQ(ba.count, 4);
  EXPECT_EQ(ab.min.Compare(ba.min), 0);
  EXPECT_EQ(ab.max.Compare(ba.max), 0);
}

// Source operator that never checks the cancellation token, isolating the
// aggregate build loop's own checkpoint.
class UncheckedSourceOp final : public RowOperator {
 public:
  UncheckedSourceOp(Schema schema, int64_t rows)
      : RowOperator(std::move(schema)), rows_(rows) {}
  Status Open(ExecContext* /*ctx*/) override {
    next_ = 0;
    return Status::OK();
  }
  Status NextRow(Tuple* out, bool* eof) override {
    if (next_ >= rows_) {
      *eof = true;
      return Status::OK();
    }
    *out = {Value::Int64(next_ % 7), Value::Int64(next_)};
    ++next_;
    *eof = false;
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  std::string Describe() const override { return "UncheckedSource"; }

 private:
  int64_t rows_;
  int64_t next_ = 0;
};

TEST(ParallelAggTest, BuildLoopHitsCancellationCheckpoint) {
  Schema in(std::vector<Column>{{"t", "g", DataType::kInt64},
                                {"t", "v", DataType::kInt64}});
  std::vector<ExprPtr> group_by;
  group_by.push_back(MakeColumnRef(0, DataType::kInt64, "g"));
  std::vector<AggSpec> aggs;
  AggSpec spec;
  spec.func = AggFunc::kSum;
  spec.arg = MakeColumnRef(1, DataType::kInt64, "v");
  spec.output_name = "s";
  aggs.push_back(std::move(spec));
  Schema out(std::vector<Column>{{"", "g", DataType::kInt64},
                                 {"", "s", DataType::kInt64}});
  HashAggregateOp agg(std::make_unique<UncheckedSourceOp>(in, 100000),
                      std::move(group_by), std::move(aggs), out);
  ExecContext ctx;
  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  ctx.set_cancel_token(token);
  // The child never checks the token, so only the aggregate's build-loop
  // checkpoint can stop this 100k-row aggregation.
  Status st = agg.Open(&ctx);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

TEST(ParallelExecTest, LimitFallsBack) {
  Database db;
  MakeWorkload(&db);
  auto par = db.Run("SELECT E.eid FROM Emp E LIMIT 5", {.dop = 4});
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_EQ(par->used_dop, 1);
  EXPECT_EQ(par->parallel_fallback_reason, "LIMIT clause");
  EXPECT_EQ(par->rows.size(), 5u);
}

TEST(ParallelExecTest, DopCostingKnobDividesCpuTermsOnly) {
  const double seq_scan_1 = costs::SeqScan(10000, 8, 1);
  const double seq_scan_4 = costs::SeqScan(10000, 8, 4);
  EXPECT_LT(seq_scan_4, seq_scan_1);
  // Page term unchanged: the difference is exactly 3/4 of the CPU term.
  EXPECT_NEAR(seq_scan_1 - seq_scan_4,
              CostConstants::kCpuTupleCost * 10000 * 0.75, 1e-9);
  EXPECT_NEAR(costs::HashBuild(1000, 4), costs::HashBuild(1000) / 4.0, 1e-9);
  EXPECT_NEAR(costs::HashProbe(1000, 100, 2),
              costs::HashProbe(1000, 100) / 2.0, 1e-9);
  EXPECT_NEAR(costs::HashAggregate(1000, 3000, 50, 4),
              costs::HashAggregate(1000, 3000, 50) / 4.0, 1e-9);
  // At dop=1 the aggregate formula decomposes into the pre-existing terms,
  // so sequential plan costs are unchanged by the refactor.
  EXPECT_NEAR(costs::HashAggregate(1000, 3000, 50),
              costs::HashBuild(1000) + costs::ExprEval(3000) +
                  costs::TupleCpu(50),
              1e-12);

  // The knob flows through OptimizerOptions into plan cost estimates.
  Database db;
  MakeWorkload(&db);
  const char* query =
      "SELECT E.eid FROM Emp E, Dept D WHERE E.did = D.did";
  auto est1 = db.Run(query);
  ASSERT_TRUE(est1.ok());
  db.mutable_optimizer_options()->degree_of_parallelism = 4;
  auto est4 = db.Run(query);
  ASSERT_TRUE(est4.ok());
  EXPECT_LT(est4->est_cost, est1->est_cost);

  // GROUP BY plans are credited for parallel aggregation too.
  const char* agg_query =
      "SELECT E.did, COUNT(*) AS c FROM Emp E GROUP BY E.did";
  db.mutable_optimizer_options()->degree_of_parallelism = 1;
  auto agg1 = db.Run(agg_query);
  ASSERT_TRUE(agg1.ok());
  db.mutable_optimizer_options()->degree_of_parallelism = 4;
  auto agg4 = db.Run(agg_query);
  ASSERT_TRUE(agg4.ok());
  EXPECT_LT(agg4->est_cost, agg1->est_cost);
}

}  // namespace
}  // namespace magicdb
