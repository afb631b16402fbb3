// Multi-threaded stress tests for the query service: N concurrent sessions
// firing mixed sequential/parallel queries at one shared pool, asserting
// every result byte-identical to a sequential Database::Run() baseline
// with exactly equal cost counters; plus deadline enforcement on a
// deliberately slow query while its neighbors run to completion, and DDL
// racing queries.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/db/database.h"
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

bool RowsIdentical(const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (CompareTuples(a[i], b[i]) != 0) return false;
  }
  return true;
}

void MakeWorkload(Database* db_out) {
  Database& db = *db_out;
  MAGICDB_CHECK_OK(
      db.Execute("CREATE TABLE Emp (eid INT, did INT, sal DOUBLE, age INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Bonus (eid INT, amount DOUBLE)"));
  Random rng(41);
  std::vector<Tuple> emps, depts, bonuses;
  int64_t eid = 0;
  for (int d = 0; d < 150; ++d) {
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
  OptimizerOptions* opts = db.mutable_optimizer_options();
  opts->enable_nested_loops = false;
  opts->enable_index_nested_loops = false;
  opts->enable_sort_merge = false;
}

const char* kQueries[] = {
    "SELECT E.eid, E.sal, D.budget FROM Emp E, Dept D "
    "WHERE E.did = D.did AND E.age < 30 AND D.budget > 100000",
    "SELECT E.did, E.sal, V.avgcomp FROM Emp E, Dept D, DepComp V "
    "WHERE E.did = D.did AND D.did = V.did AND D.budget > 100000 "
    "AND E.sal > V.avgcomp",
    "SELECT E.eid, B.amount FROM Emp E, Bonus B "
    "WHERE E.eid = B.eid AND E.age < 30",
    "SELECT D.did, D.budget FROM Dept D WHERE D.budget > 100000",
};
constexpr int kNumQueries = 4;

TEST(ServerStressTest, ConcurrentSessionsMatchSequentialBaseline) {
  Database db;
  MakeWorkload(&db);

  // Sequential ground truth, computed before the service exists.
  std::vector<QueryResult> baselines;
  for (const char* q : kQueries) {
    auto r = db.Run(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    baselines.push_back(std::move(*r));
  }
  ASSERT_FALSE(baselines[0].rows.empty());
  ASSERT_FALSE(baselines[1].rows.empty());

  QueryServiceOptions so;
  so.pool_threads = 4;
  so.max_concurrent_queries = 6;
  QueryService service(&db, so);

  constexpr int kSessions = 6;
  constexpr int kRounds = 12;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(service.CreateSession());
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      Session* session = sessions[s].get();
      for (int round = 0; round < kRounds; ++round) {
        const int qi = (s + round) % kNumQueries;
        ExecOptions exec;
        // Mix sequential and gang-parallel executions on the shared pool.
        exec.dop = (s + round) % 3 == 0 ? 2 : 1;
        auto r = session->Query(kQueries[qi], exec);
        if (!r.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (!RowsIdentical(r->rows, baselines[qi].rows)) {
          mismatches.fetch_add(1);
          continue;
        }
        const CostCounters& a = r->counters;
        const CostCounters& b = baselines[qi].counters;
        if (a.pages_read != b.pages_read ||
            a.tuples_processed != b.tuples_processed ||
            a.exprs_evaluated != b.exprs_evaluated ||
            a.hash_operations != b.hash_operations ||
            a.function_invocations != b.function_invocations) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.queries_submitted, kSessions * kRounds);
  EXPECT_EQ(stats.queries_completed, kSessions * kRounds);
  EXPECT_EQ(stats.queries_failed, 0);
  // 4 distinct statements, every session shares one options fingerprint.
  // Concurrent first executions of the same statement can race to plan it
  // (both miss, the cache keeps one result), so the miss count is bounded,
  // not exact: at least one per statement, at most one per statement per
  // session; every remaining execution must hit.
  EXPECT_GE(stats.plan_cache_misses, kNumQueries);
  EXPECT_LE(stats.plan_cache_misses, kNumQueries * kSessions);
  EXPECT_EQ(stats.plan_cache_hits + stats.plan_cache_misses,
            kSessions * kRounds);
}

TEST(ServerStressTest, SlowQueryHitsDeadlineWhileNeighborsComplete) {
  Database db;
  MakeWorkload(&db);
  // A join that fans out ~100x per probe row: Big1 x Big2 on a key with 30
  // distinct values over 3000/3000 rows -> ~300k output rows, comfortably
  // slower than the deadline below at any machine speed we run on.
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Big1 (k INT, v INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Big2 (k INT, w INT)"));
  std::vector<Tuple> b1, b2;
  for (int i = 0; i < 3000; ++i) {
    b1.push_back({Value::Int64(i % 30), Value::Int64(i)});
    b2.push_back({Value::Int64(i % 30), Value::Int64(i)});
  }
  MAGICDB_CHECK_OK(db.LoadRows("Big1", std::move(b1)));
  MAGICDB_CHECK_OK(db.LoadRows("Big2", std::move(b2)));
  const char* slow_query =
      "SELECT A.v, B.w FROM Big1 A, Big2 B WHERE A.k = B.k";
  const char* fast_query =
      "SELECT D.did, D.budget FROM Dept D WHERE D.budget > 100000";
  auto fast_baseline = db.Run(fast_query);
  ASSERT_TRUE(fast_baseline.ok());

  QueryServiceOptions so;
  so.pool_threads = 2;
  QueryService service(&db, so);
  std::unique_ptr<Session> slow_session = service.CreateSession();
  std::unique_ptr<Session> fast_session = service.CreateSession();

  std::atomic<int> fast_failures{0};
  std::atomic<bool> stop{false};
  std::thread neighbor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = fast_session->Query(fast_query);
      if (!r.ok() || !RowsIdentical(r->rows, fast_baseline->rows)) {
        fast_failures.fetch_add(1);
      }
    }
  });

  for (int i = 0; i < 3; ++i) {
    ExecOptions exec;
    exec.timeout = std::chrono::microseconds(2000);
    auto r = slow_session->Query(slow_query, exec);
    ASSERT_FALSE(r.ok()) << "slow query finished under its deadline";
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << r.status().ToString();
  }
  // Cancellation from another thread, mid-execution.
  {
    ExecOptions exec;
    exec.cancel_token = std::make_shared<CancelToken>();
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      exec.cancel_token->Cancel();
    });
    auto r = slow_session->Query(slow_query, exec);
    canceller.join();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
        << r.status().ToString();
  }
  stop.store(true);
  neighbor.join();
  EXPECT_EQ(fast_failures.load(), 0);

  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.deadlines_exceeded, 3);
  EXPECT_EQ(stats.queries_cancelled, 1);

  // The pool is healthy afterwards: the slow query without a deadline
  // completes and matches a direct execution.
  auto full = slow_session->Query(slow_query);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto direct = db.Run(slow_query);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(RowsIdentical(full->rows, direct->rows));
  ExpectCountersEqual(full->counters, direct->counters);
}

TEST(ServerStressTest, ConcurrentCursorsStreamIdenticalResults) {
  Database db;
  MakeWorkload(&db);
  std::vector<QueryResult> baselines;
  for (const char* q : kQueries) {
    auto r = db.Run(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    baselines.push_back(std::move(*r));
  }

  QueryServiceOptions so;
  so.pool_threads = 4;
  so.max_concurrent_queries = 6;
  so.scheduler_quantum_rows = 32;  // many quanta per query
  so.stream_queue_rows = 64;       // tight queues: backpressure engages
  QueryService service(&db, so);

  constexpr int kSessions = 6;
  constexpr int kRounds = 10;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(service.CreateSession());
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      Session* session = sessions[s].get();
      for (int round = 0; round < kRounds; ++round) {
        const int qi = (s + round) % kNumQueries;
        ExecOptions exec;
        exec.dop = (s + round) % 3 == 0 ? 2 : 1;
        auto cursor = session->Open(kQueries[qi], exec);
        if (!cursor.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (round % 5 == 4) {
          // Every fifth round: abandon mid-stream. The destructor must
          // cancel + drain + release without disturbing the neighbors.
          auto b = cursor->Fetch(3);
          if (!b.ok()) failures.fetch_add(1);
          continue;
        }
        std::vector<Tuple> rows;
        bool ok = true;
        while (true) {
          auto batch = cursor->Fetch(1 + (s + round) % 17);
          if (!batch.ok()) {
            failures.fetch_add(1);
            ok = false;
            break;
          }
          if (batch->empty()) break;
          for (Tuple& t : *batch) rows.push_back(std::move(t));
        }
        if (ok && !RowsIdentical(rows, baselines[qi].rows)) {
          mismatches.fetch_add(1);
        }
        if (!cursor->Close().ok() && ok) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.open_cursors, 0);
  EXPECT_EQ(stats.cursors_opened, kSessions * kRounds);
  EXPECT_GT(stats.rows_streamed, 0);
}

TEST(ServerStressTest, DdlRacingQueriesStaysConsistent) {
  Database db;
  MakeWorkload(&db);
  QueryServiceOptions so;
  so.pool_threads = 2;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();
  const char* query =
      "SELECT E.eid, E.sal, D.budget FROM Emp E, Dept D "
      "WHERE E.did = D.did AND E.age < 30 AND D.budget > 100000";
  auto baseline = db.Run(query);
  ASSERT_TRUE(baseline.ok());

  std::atomic<int> bad{0};
  std::thread querier([&] {
    for (int i = 0; i < 40; ++i) {
      auto r = session->Query(query);
      if (!r.ok() || !RowsIdentical(r->rows, baseline->rows)) {
        bad.fetch_add(1);
      }
    }
  });
  // DDL storms in parallel; the epoch moves, cached plans die, results
  // must never change (the new tables/views are unrelated).
  for (int i = 0; i < 10; ++i) {
    MAGICDB_CHECK_OK(service.Execute("CREATE TABLE Junk" + std::to_string(i) +
                                     " (x INT)"));
  }
  querier.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(service.StatsSnapshot().ddl_epoch, 10);
}

}  // namespace
}  // namespace magicdb
