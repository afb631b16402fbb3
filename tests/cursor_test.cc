// Tests for streaming result cursors: Session::Open/Cursor::Fetch must
// deliver, batch by batch out of a bounded backpressured queue, exactly the
// bytes Session::Query (and Database::Query) materialize — at any DoP,
// including GROUP BY and Filter Join plans — while enforcing deadlines and
// cancellation between fetches, bounding resident result memory by the
// queue's high-water mark, surviving abandonment, and failing cleanly when
// DDL stales a live stream at any DoP.

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/cancellation.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "src/server/cursor.h"
#include "src/server/query_service.h"
#include "src/server/session.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

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

// Emp/Dept/Bonus workload with the DepComp aggregate view (the paper's
// running example), restricted to hash joins so plans stay parallel-safe.
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
    for (int e = 0; e < 5; ++e, ++eid) {
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
  OptimizerOptions* opts = db.mutable_optimizer_options();
  opts->enable_nested_loops = false;
  opts->enable_index_nested_loops = false;
  opts->enable_sort_merge = false;
}

/// A table big enough that its full result dwarfs any cursor queue bound.
void LoadBigTable(Database* db, int64_t rows) {
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Big (k INT, v DOUBLE)"));
  Random rng(7);
  std::vector<Tuple> data;
  data.reserve(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    data.push_back({Value::Int64(i), Value::Double(rng.NextDouble())});
  }
  MAGICDB_CHECK_OK(db->LoadRows("Big", std::move(data)));
}

const char* kJoinQuery =
    "SELECT E.eid, E.sal, D.budget FROM Emp E, Dept D "
    "WHERE E.did = D.did AND E.age < 30 AND D.budget > 100000";
const char* kAggQuery =
    "SELECT E.did, COUNT(*) AS c, SUM(E.eid) AS s, MIN(E.sal) AS m "
    "FROM Emp E GROUP BY E.did";
const char* kFilterJoinQuery =
    "SELECT E.did, E.sal, V.avgcomp FROM Emp E, Dept D, DepComp V "
    "WHERE E.did = D.did AND D.did = V.did AND D.budget > 100000 "
    "AND E.sal > V.avgcomp";
const char* kBigQuery = "SELECT B.k, B.v FROM Big B";

/// Drains `cursor` with `batch_rows`-row fetches; returns the concatenation.
std::vector<Tuple> FetchAll(Cursor* cursor, int64_t batch_rows) {
  std::vector<Tuple> rows;
  while (true) {
    auto batch = cursor->Fetch(batch_rows);
    MAGICDB_CHECK_OK(batch.status());
    if (batch->empty()) break;
    for (Tuple& t : *batch) rows.push_back(std::move(t));
  }
  return rows;
}

// ----- Concat identity: streamed batches == materialized Query, any DoP -----

TEST(CursorTest, ConcatIdenticalToQueryAcrossDopSweep) {
  Database db;
  MakeWorkload(&db);
  // Plain join, parallel GROUP BY, and a Filter Join (magic) plan: the
  // three streaming shapes the identity guarantee is stated against.
  const std::vector<const char*> queries = {kJoinQuery, kAggQuery,
                                            kFilterJoinQuery};
  QueryServiceOptions so;
  so.pool_threads = 4;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();
  int64_t expected_completed = 0;
  for (const char* sql : queries) {
    auto baseline = db.Run(sql);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ASSERT_FALSE(baseline->rows.empty());
    for (int dop : {1, 2, 4}) {
      ExecOptions exec;
      exec.dop = dop;
      auto cursor = session->Open(sql, exec);
      ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
      EXPECT_EQ(cursor->explain(), baseline->explain);
      // Odd batch size so batch boundaries never align with quanta.
      std::vector<Tuple> rows = FetchAll(&*cursor, 7);
      ExpectRowsIdentical(rows, baseline->rows);
      EXPECT_TRUE(cursor->done());
      ExpectCountersEqual(cursor->counters(), baseline->counters);
      MAGICDB_CHECK_OK(cursor->Close());
      ++expected_completed;
    }
  }
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.queries_completed, expected_completed);
  EXPECT_EQ(stats.cursors_opened, expected_completed);
  EXPECT_EQ(stats.open_cursors, 0);
  EXPECT_GT(stats.rows_streamed, 0);
  EXPECT_EQ(stats.parallel_fallbacks, 0);
}

TEST(CursorTest, QueryIsFetchAllOverCursor) {
  Database db;
  MakeWorkload(&db);
  QueryService service(&db, {});
  std::unique_ptr<Session> session = service.CreateSession();
  auto materialized = session->Query(kFilterJoinQuery);
  ASSERT_TRUE(materialized.ok());
  auto cursor = session->Open(kFilterJoinQuery);
  ASSERT_TRUE(cursor.ok());
  std::vector<Tuple> rows = FetchAll(&*cursor, 100);
  ExpectRowsIdentical(rows, materialized->rows);
  ExpectCountersEqual(cursor->counters(), materialized->counters);
  EXPECT_EQ(cursor->filter_join_measured().size(),
            materialized->filter_join_measured.size());
  MAGICDB_CHECK_OK(cursor->Close());
  // Both executions (one through Query, one through Open) completed.
  EXPECT_EQ(service.StatsSnapshot().queries_completed, 2);
}

TEST(CursorTest, OpenPreparedStreamsLikeExecutePrepared) {
  Database db;
  MakeWorkload(&db);
  QueryService service(&db, {});
  std::unique_ptr<Session> session = service.CreateSession();
  MAGICDB_CHECK_OK(session->Prepare("q", kJoinQuery));
  auto materialized = session->ExecutePrepared("q");
  ASSERT_TRUE(materialized.ok());
  auto cursor = session->OpenPrepared("q");
  ASSERT_TRUE(cursor.ok());
  ExpectRowsIdentical(FetchAll(&*cursor, 33), materialized->rows);
  MAGICDB_CHECK_OK(cursor->Close());
  EXPECT_FALSE(session->OpenPrepared("missing").ok());
}

// ----- Bounded memory: queue high-water mark, not result cardinality -----

TEST(CursorTest, PeakBufferedRowsBoundedByHighWaterMark) {
  Database db;
  constexpr int64_t kRows = 20000;
  LoadBigTable(&db, kRows);
  QueryServiceOptions so;
  so.pool_threads = 2;
  so.scheduler_quantum_rows = 64;
  so.stream_queue_rows = 128;  // result is > 10x any queue bound
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  auto baseline = db.Run(kBigQuery);
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->rows.size(), static_cast<size_t>(kRows));

  auto cursor = session->Open(kBigQuery);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::vector<Tuple> rows = FetchAll(&*cursor, 50);
  ExpectRowsIdentical(rows, baseline->rows);

  // The producer may overshoot the high-water mark by at most one quantum;
  // it must have parked (engaged backpressure) on a result this large.
  EXPECT_LE(cursor->peak_buffered_rows(),
            so.stream_queue_rows + so.scheduler_quantum_rows);
  EXPECT_GT(cursor->producer_parks(), 0);
  MAGICDB_CHECK_OK(cursor->Close());
  EXPECT_GT(service.StatsSnapshot().cursor_producer_parks, 0);
}

TEST(CursorTest, PerQueryQueueOverrideWins) {
  Database db;
  LoadBigTable(&db, 5000);
  QueryServiceOptions so;
  so.scheduler_quantum_rows = 32;
  so.stream_queue_rows = 4096;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();
  ExecOptions exec;
  exec.stream_queue_rows = 64;  // much tighter than the service default
  auto cursor = session->Open(kBigQuery, exec);
  ASSERT_TRUE(cursor.ok());
  std::vector<Tuple> rows = FetchAll(&*cursor, 25);
  EXPECT_EQ(rows.size(), 5000u);
  EXPECT_LE(cursor->peak_buffered_rows(),
            exec.stream_queue_rows + so.scheduler_quantum_rows);
  MAGICDB_CHECK_OK(cursor->Close());
}

// ----- Deadlines and cancellation between fetches -----

TEST(CursorTest, MidStreamDeadlineFailsFetchAndFreesSlot) {
  Database db;
  LoadBigTable(&db, 20000);
  QueryServiceOptions so;
  so.pool_threads = 2;
  so.max_concurrent_queries = 1;  // the open cursor holds the only ticket
  so.scheduler_quantum_rows = 64;
  so.stream_queue_rows = 128;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  ExecOptions exec;
  exec.cancel_token = std::make_shared<CancelToken>();
  auto cursor = session->Open(kBigQuery, exec);
  ASSERT_TRUE(cursor.ok());
  auto first = cursor->Fetch(10);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->size(), 10u);

  // Deadline fires between fetches: the next Fetch must surface it even
  // though rows are buffered, and the producer unwinds within a quantum.
  exec.cancel_token->SetTimeout(std::chrono::nanoseconds(-1));
  auto failed = cursor->Fetch(10);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDeadlineExceeded);
  Status closed = cursor->Close();
  EXPECT_EQ(closed.code(), StatusCode::kDeadlineExceeded);

  // Close released the admission ticket: with max_concurrent_queries=1 a
  // follow-up query only runs if the dead cursor's slot was freed.
  EXPECT_TRUE(session->Query(kBigQuery).ok());
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_GE(stats.deadlines_exceeded, 1);
  EXPECT_EQ(stats.open_cursors, 0);
}

TEST(CursorTest, MidStreamCancellationBetweenFetches) {
  Database db;
  LoadBigTable(&db, 20000);
  QueryServiceOptions so;
  so.pool_threads = 2;
  so.scheduler_quantum_rows = 64;
  so.stream_queue_rows = 128;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  ExecOptions exec;
  exec.cancel_token = std::make_shared<CancelToken>();
  auto cursor = session->Open(kBigQuery, exec);
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(cursor->Fetch(100).ok());
  exec.cancel_token->Cancel();
  auto failed = cursor->Fetch(100);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(cursor->Close().code(), StatusCode::kCancelled);
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_GE(stats.queries_cancelled, 1);
  EXPECT_EQ(stats.open_cursors, 0);
}

TEST(CursorTest, AbandonedCursorDestructorReleasesResources) {
  Database db;
  LoadBigTable(&db, 20000);
  QueryServiceOptions so;
  so.pool_threads = 2;
  so.max_concurrent_queries = 1;
  so.scheduler_quantum_rows = 64;
  so.stream_queue_rows = 128;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();
  {
    auto cursor = session->Open(kBigQuery);
    ASSERT_TRUE(cursor.ok());
    ASSERT_TRUE(cursor->Fetch(10).ok());
    // Dropped without Close: the destructor cancels, drains, and releases.
  }
  EXPECT_TRUE(session->Query(kBigQuery).ok());  // ticket was freed
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.open_cursors, 0);
  EXPECT_GE(stats.queries_cancelled, 1);
}

TEST(CursorTest, FetchMisuseAndDoubleClose) {
  Database db;
  MakeWorkload(&db);
  QueryService service(&db, {});
  std::unique_ptr<Session> session = service.CreateSession();
  auto cursor = session->Open(kJoinQuery);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor->Fetch(0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cursor->Fetch(-3).status().code(), StatusCode::kInvalidArgument);
  std::vector<Tuple> rows = FetchAll(&*cursor, 1000);
  EXPECT_FALSE(rows.empty());
  // Fetch past end of stream keeps returning the empty marker.
  auto again = cursor->Fetch(10);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->empty());
  MAGICDB_CHECK_OK(cursor->Close());
  EXPECT_EQ(cursor->Fetch(10).status().code(), StatusCode::kInvalidArgument);
  // Double close is idempotent and repeats the terminal status.
  MAGICDB_CHECK_OK(cursor->Close());
  EXPECT_EQ(service.StatsSnapshot().queries_completed, 1);
}

// ----- Shared pool: two sessions interleaving open cursors -----

TEST(CursorTest, TwoSessionsInterleaveCursorsOnSharedPool) {
  Database db;
  MakeWorkload(&db);
  auto baseline_join = db.Run(kJoinQuery);
  auto baseline_fj = db.Run(kFilterJoinQuery);
  ASSERT_TRUE(baseline_join.ok());
  ASSERT_TRUE(baseline_fj.ok());

  QueryServiceOptions so;
  so.pool_threads = 2;
  so.scheduler_quantum_rows = 16;  // force many interleaved quanta
  so.stream_queue_rows = 32;
  QueryService service(&db, so);
  std::unique_ptr<Session> s1 = service.CreateSession();
  std::unique_ptr<Session> s2 = service.CreateSession();

  auto c1 = s1->Open(kJoinQuery);
  auto c2 = s2->Open(kFilterJoinQuery);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());

  // Alternate small fetches so both producers stay live simultaneously.
  std::vector<Tuple> rows1, rows2;
  bool done1 = false, done2 = false;
  while (!done1 || !done2) {
    if (!done1) {
      auto b = c1->Fetch(5);
      MAGICDB_CHECK_OK(b.status());
      if (b->empty()) done1 = true;
      for (Tuple& t : *b) rows1.push_back(std::move(t));
    }
    if (!done2) {
      auto b = c2->Fetch(5);
      MAGICDB_CHECK_OK(b.status());
      if (b->empty()) done2 = true;
      for (Tuple& t : *b) rows2.push_back(std::move(t));
    }
  }
  ExpectRowsIdentical(rows1, baseline_join->rows);
  ExpectRowsIdentical(rows2, baseline_fj->rows);
  MAGICDB_CHECK_OK(c1->Close());
  MAGICDB_CHECK_OK(c2->Close());
  EXPECT_EQ(service.StatsSnapshot().queries_completed, 2);
}

// ----- Cursor vs. DDL -----

TEST(CursorTest, SequentialCursorFailsCleanlyWhenDdlStalesPlan) {
  Database db;
  LoadBigTable(&db, 20000);
  QueryServiceOptions so;
  so.pool_threads = 2;
  so.scheduler_quantum_rows = 64;
  so.stream_queue_rows = 128;  // producer parks long before end of stream
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  auto cursor = session->Open(kBigQuery);
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(cursor->Fetch(10).ok());

  // DDL bumps the catalog epoch while the cursor is mid-stream. Already
  // buffered rows still arrive; the producer's next quantum then fails the
  // stream with a stale-plan error instead of reading replaced objects.
  MAGICDB_CHECK_OK(service.Execute("CREATE TABLE Zz (x INT)"));
  Status terminal = Status::OK();
  while (true) {
    auto batch = cursor->Fetch(50);
    if (!batch.ok()) {
      terminal = batch.status();
      break;
    }
    ASSERT_FALSE(batch->empty()) << "stream ended without stale-plan error";
  }
  EXPECT_EQ(terminal.code(), StatusCode::kFailedPrecondition) << terminal.ToString();
  EXPECT_EQ(cursor->Close().code(), StatusCode::kFailedPrecondition);
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.cursors_stale, 1);
  // The service stays healthy: re-planning serves the fresh epoch.
  EXPECT_TRUE(session->Query(kBigQuery).ok());
}

TEST(CursorTest, ParallelCursorFailsCleanlyWhenDdlStalesPlan) {
  Database db;
  LoadBigTable(&db, 20000);
  QueryServiceOptions so;
  so.pool_threads = 2;
  so.scheduler_quantum_rows = 64;
  so.stream_queue_rows = 128;  // the lanes park long before end of stream
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  ExecOptions exec;
  exec.dop = 2;
  auto cursor = session->Open(kBigQuery, exec);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor->used_dop(), 2) << cursor->parallel_fallback_reason();
  ASSERT_TRUE(cursor->Fetch(10).ok());

  // The gang's lanes stream after its Open phase, so a dop > 1 cursor goes
  // stale under DDL exactly like a sequential one: rows that may already go
  // out still arrive, then a lane's next quantum fails the stream.
  MAGICDB_CHECK_OK(service.Execute("CREATE TABLE Zz (x INT)"));
  Status terminal = Status::OK();
  while (true) {
    auto batch = cursor->Fetch(50);
    if (!batch.ok()) {
      terminal = batch.status();
      break;
    }
    ASSERT_FALSE(batch->empty()) << "stream ended without stale-plan error";
  }
  EXPECT_EQ(terminal.code(), StatusCode::kFailedPrecondition)
      << terminal.ToString();
  EXPECT_EQ(cursor->Close().code(), StatusCode::kFailedPrecondition);
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.cursors_stale, 1);  // once per cursor, not per lane
  EXPECT_EQ(stats.used_gang_slots, 0);
  // Query() replans at the fresh epoch, as it does for sequential streams.
  auto again = session->Query(kBigQuery, exec);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->used_dop, 2);
  EXPECT_EQ(again->rows.size(), 20000u);
}

TEST(CursorTest, ParallelCursorBuffersOnlyItsLanes) {
  Database db;
  LoadBigTable(&db, 20000);
  auto baseline = db.Run(kBigQuery);
  ASSERT_TRUE(baseline.ok());

  QueryServiceOptions so;
  so.pool_threads = 4;
  so.scheduler_quantum_rows = 64;
  so.stream_queue_rows = 128;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();
  ExecOptions exec;
  exec.dop = 4;
  exec.memory_limit_bytes = 1 << 20;
  auto cursor = session->Open(kBigQuery, exec);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_EQ(cursor->used_dop(), 4) << cursor->parallel_fallback_reason();
  std::vector<Tuple> rows = FetchAll(&*cursor, 50);
  ExpectRowsIdentical(rows, baseline->rows);
  ExpectCountersEqual(cursor->counters(), baseline->counters);

  // Nothing is staged: the governor only ever saw the rows queued in the
  // four lanes, at most the queue's mark plus one quantum per lane.
  const int64_t bound_rows =
      so.stream_queue_rows + 4 * so.scheduler_quantum_rows;
  EXPECT_LE(cursor->peak_buffered_rows(), bound_rows);
  EXPECT_GT(cursor->memory_peak_bytes(), 0);
  EXPECT_LE(cursor->memory_peak_bytes(),
            bound_rows * TupleByteWidth(baseline->rows[0]));
  MAGICDB_CHECK_OK(cursor->Close());
}

TEST(CursorTest, StoppedParallelConsumerHoldsNoPoolThread) {
  Database db;
  LoadBigTable(&db, 20000);
  QueryServiceOptions so;
  so.pool_threads = 2;
  so.scheduler_quantum_rows = 64;
  so.stream_queue_rows = 128;
  QueryService service(&db, so);
  std::unique_ptr<Session> stopped = service.CreateSession();
  ExecOptions dop2;
  dop2.dop = 2;
  auto cursor = stopped->Open(kBigQuery, dop2);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor->used_dop(), 2) << cursor->parallel_fallback_reason();
  ASSERT_TRUE(cursor->Fetch(10).ok());

  // Left alone, both lanes fill and park.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (cursor->producer_parks() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(cursor->producer_parks(), 2);
  EXPECT_EQ(service.StatsSnapshot().used_gang_slots, 0);

  // Parked lanes hold no pool thread, so a sequential and a parallel query
  // on other sessions still run on the two-thread pool.
  std::unique_ptr<Session> other = service.CreateSession();
  auto seq = other->Query(kBigQuery);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  auto par = other->Query(kBigQuery, dop2);
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_EQ(par->used_dop, 2);
  ExpectRowsIdentical(par->rows, seq->rows);

  EXPECT_EQ(cursor->Close().code(), StatusCode::kCancelled);
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.active_queries, 0);
  EXPECT_EQ(stats.used_gang_slots, 0);
  EXPECT_EQ(stats.open_cursors, 0);
}

TEST(CursorTest, MetricsTextExposesStreamingSeries) {
  Database db;
  MakeWorkload(&db);
  QueryService service(&db, {});
  std::unique_ptr<Session> session = service.CreateSession();
  auto cursor = session->Open(kJoinQuery);
  ASSERT_TRUE(cursor.ok());
  FetchAll(&*cursor, 64);
  MAGICDB_CHECK_OK(cursor->Close());
  const std::string dump = service.MetricsText();
  EXPECT_NE(dump.find("magicdb_server_cursors_opened_total 1"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("magicdb_server_open_cursors 0"), std::string::npos);
  EXPECT_NE(dump.find("magicdb_server_rows_streamed_total"),
            std::string::npos);
  EXPECT_NE(dump.find("magicdb_server_cursor_batch_wait_us"),
            std::string::npos);
  const ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.cursors_opened, 1);
  EXPECT_GT(stats.rows_streamed, 0);
  EXPECT_NE(stats.ToString().find("cursors_opened=1"), std::string::npos);
}

}  // namespace
}  // namespace magicdb
