// Chaos hardening of the query service: per-query memory governance (always
// compiled) and failpoint-driven fault injection (MAGICDB_FAILPOINTS builds).
//
// The invariant under test: a fault injected at ANY site — storage page
// reads, join/aggregate builds, the parallel merge barrier, sink push,
// plan-cache insert, cursor fetch, gang startup — must leave the service
// consistent: the failing query surfaces the injected Status, admission
// tickets and gang slots return to zero, no cursor stays open, and the very
// next query on the same service succeeds with byte-identical results.

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/common/memory_tracker.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "src/server/query_service.h"
#include "src/server/session.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

// ----- MemoryTracker primitive -----

TEST(MemoryTrackerTest, ChargeReleaseAndPeak) {
  MemoryTracker tracker(/*limit_bytes=*/1000);
  EXPECT_TRUE(tracker.Charge(400).ok());
  EXPECT_TRUE(tracker.Charge(500).ok());
  EXPECT_EQ(tracker.used_bytes(), 900);
  EXPECT_EQ(tracker.peak_bytes(), 900);
  tracker.Release(600);
  EXPECT_EQ(tracker.used_bytes(), 300);
  EXPECT_EQ(tracker.peak_bytes(), 900);  // peak is sticky
}

TEST(MemoryTrackerTest, BreachRollsBackAndReportsResourceExhausted) {
  MemoryTracker tracker(/*limit_bytes=*/100);
  EXPECT_TRUE(tracker.Charge(90).ok());
  Status s = tracker.Charge(20);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  // The failed charge must not stick: the query unwinds, but the tracker
  // still reflects only successfully charged bytes.
  EXPECT_EQ(tracker.used_bytes(), 90);
  EXPECT_EQ(tracker.peak_bytes(), 90);
  // The limit is inclusive, so a rerun at the observed peak succeeds.
  EXPECT_TRUE(tracker.Charge(10).ok());
  EXPECT_EQ(tracker.peak_bytes(), 100);
}

TEST(MemoryTrackerTest, NonPositiveLimitIsUnlimited) {
  MemoryTracker tracker(/*limit_bytes=*/0);
  EXPECT_TRUE(tracker.Charge(int64_t{1} << 40).ok());
  EXPECT_EQ(tracker.limit_bytes(), 0);
}

// ----- Shared workload (the paper's Emp/Dept/Bonus running example) -----

void MakeWorkload(Database* db_out) {
  Database& db = *db_out;
  MAGICDB_CHECK_OK(
      db.Execute("CREATE TABLE Emp (eid INT, did INT, sal DOUBLE, age INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Bonus (eid INT, amount DOUBLE)"));
  Random rng(31);
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

const char* kJoinQuery =
    "SELECT E.eid, E.sal, D.budget FROM Emp E, Dept D "
    "WHERE E.did = D.did AND D.budget > 100000";
const char* kMagicQuery =
    "SELECT E.did, E.sal, V.avgcomp FROM Emp E, Dept D, DepComp V "
    "WHERE E.did = D.did AND D.did = V.did AND D.budget > 100000 "
    "AND E.sal > V.avgcomp";
// High-cardinality GROUP BY: every Emp row is its own group, so the
// aggregate's retained state scales with the input — the shape a memory
// governor exists for.
const char* kWideAggQuery =
    "SELECT E.eid, AVG(E.sal + B.amount) AS comp FROM Emp E, Bonus B "
    "WHERE E.eid = B.eid GROUP BY E.eid";

void ExpectRowsIdentical(const std::vector<Tuple>& a,
                         const std::vector<Tuple>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(CompareTuples(a[i], b[i]), 0) << "row " << i << " differs";
  }
}

// ----- Memory governance through the service -----

TEST(MemoryGovernorTest, OverLimitQueryFailsResourceExhausted) {
  Database db;
  MakeWorkload(&db);
  QueryServiceOptions so;
  so.pool_threads = 4;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  for (int dop : {1, 4}) {
    ExecOptions exec;
    exec.dop = dop;
    exec.memory_limit_bytes = 1024;  // far below the build/aggregate state
    auto r = session->Query(kWideAggQuery, exec);
    ASSERT_FALSE(r.ok()) << "dop=" << dop;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << "dop=" << dop << ": " << r.status().ToString();
  }
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.queries_resource_exhausted, 2);
  EXPECT_EQ(stats.active_queries, 0);
  EXPECT_EQ(stats.used_gang_slots, 0);
  EXPECT_EQ(stats.open_cursors, 0);

  // The same query without a limit still succeeds on the same service.
  auto ok = session->Query(kWideAggQuery);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FALSE(ok->rows.empty());
}

TEST(MemoryGovernorTest, ServiceDefaultLimitAppliesAndCanBeOverridden) {
  Database db;
  MakeWorkload(&db);
  QueryServiceOptions so;
  so.pool_threads = 2;
  so.query_memory_limit_bytes = 1024;  // default governs every query
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  auto r = session->Query(kWideAggQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);

  // Negative per-query limit = explicitly ungoverned despite the default.
  ExecOptions exec;
  exec.memory_limit_bytes = -1;
  auto ok = session->Query(kWideAggQuery, exec);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();

  // A generous per-query override also beats the tiny default.
  exec.memory_limit_bytes = 64 * 1024 * 1024;
  auto ok2 = session->Query(kWideAggQuery, exec);
  ASSERT_TRUE(ok2.ok()) << ok2.status().ToString();
  ExpectRowsIdentical(ok2->rows, ok->rows);
}

TEST(MemoryGovernorTest, ConcurrentUnderLimitQueriesCompleteWhileOneBreaches) {
  Database db;
  MakeWorkload(&db);
  auto baseline = db.Run(kJoinQuery);
  ASSERT_TRUE(baseline.ok());

  QueryServiceOptions so;
  so.pool_threads = 4;
  QueryService service(&db, so);

  constexpr int kThreads = 4;
  std::vector<Status> breach_status(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      std::unique_ptr<Session> session = service.CreateSession();
      for (int round = 0; round < 5; ++round) {
        if (i == 0) {
          // One session keeps breaching its tiny limit...
          ExecOptions exec;
          exec.memory_limit_bytes = 512;
          auto r = session->Query(kWideAggQuery, exec);
          breach_status[i] =
              r.ok() ? Status::Internal("breach unexpectedly succeeded")
                     : r.status();
        } else {
          // ...while everyone else runs governed-but-roomy queries.
          ExecOptions exec;
          exec.memory_limit_bytes = 64 * 1024 * 1024;
          auto r = session->Query(kJoinQuery, exec);
          if (!r.ok()) {
            breach_status[i] = r.status();
            return;
          }
          if (r->rows.size() != baseline->rows.size()) {
            breach_status[i] = Status::Internal("row count diverged");
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(breach_status[0].code(), StatusCode::kResourceExhausted)
      << breach_status[0].ToString();
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_TRUE(breach_status[i].ok()) << "thread " << i << ": "
                                       << breach_status[i].ToString();
  }
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.active_queries, 0);
  EXPECT_EQ(stats.used_gang_slots, 0);
  EXPECT_EQ(stats.open_cursors, 0);
}

TEST(MemoryGovernorTest, UngovernedResultsByteIdenticalToDatabaseQuery) {
  Database db;
  MakeWorkload(&db);
  auto baseline = db.Run(kMagicQuery);
  ASSERT_TRUE(baseline.ok());

  QueryServiceOptions so;
  so.pool_threads = 2;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();
  auto ungoverned = session->Query(kMagicQuery);
  ASSERT_TRUE(ungoverned.ok());
  ExpectRowsIdentical(ungoverned->rows, baseline->rows);

  // Governance with headroom must not perturb results either.
  ExecOptions exec;
  exec.memory_limit_bytes = 256 * 1024 * 1024;
  auto governed = session->Query(kMagicQuery, exec);
  ASSERT_TRUE(governed.ok());
  ExpectRowsIdentical(governed->rows, baseline->rows);
}

#ifdef MAGICDB_FAILPOINTS

// ----- Failpoint-driven chaos sweep -----

// Every fault-capable site threaded through the stack. The park/resume
// sites are hit-only (they cannot fail) and are exercised by the delay
// test below instead.
const char* kFaultSites[] = {
    "storage.page_read",       "exec.hash_join.build",
    "exec.filter_join.build",  "exec.aggregate.build",
    "parallel.aggregate.merge", "parallel.gang.start",
    "server.sink.push",        "server.plan_cache.insert",
    "server.cursor.fetch",
};

// Runs the mixed workload once. With an empty `injected_msg` every result
// must succeed; otherwise each individual result must either succeed or
// fail with exactly the injected chaos status.
void RunMixedWorkload(Session* session, const std::string& injected_msg) {
  auto check = [&](const Status& s, const char* what) {
    if (s.ok()) return;
    if (injected_msg.empty()) {
      ADD_FAILURE() << what << " failed in a fault-free run: " << s.ToString();
      return;
    }
    EXPECT_NE(s.ToString().find(injected_msg), std::string::npos)
        << what << " failed with a status other than the injected one: "
        << s.ToString();
  };
  {
    auto r = session->Query(kJoinQuery);
    check(r.status(), "sequential join");
  }
  {
    ExecOptions exec;
    exec.dop = 4;
    auto r = session->Query(kMagicQuery, exec);
    check(r.status(), "parallel magic query");
  }
  {
    ExecOptions exec;
    exec.dop = 4;
    auto r = session->Query(kWideAggQuery, exec);
    check(r.status(), "parallel wide aggregate");
  }
  {
    auto cursor = session->Open(kJoinQuery);
    if (!cursor.ok()) {
      check(cursor.status(), "cursor open");
      return;
    }
    bool fetch_failed = false;
    while (true) {
      auto batch = cursor->Fetch(64);
      if (!batch.ok()) {
        check(batch.status(), "cursor fetch");
        fetch_failed = true;
        break;
      }
      if (batch->empty()) break;
    }
    // After a mid-stream fault, Close classifies the cursor as closed
    // before end-of-stream — any terminal status is acceptable there; a
    // fully drained stream must close cleanly or with the injected fault.
    Status close_status = cursor->Close();
    if (!fetch_failed) check(close_status, "cursor close");
  }
}

TEST(ChaosTest, AnyInjectedFaultLeavesServiceConsistent) {
  Database db;
  MakeWorkload(&db);
  auto baseline = db.Run(kMagicQuery);
  ASSERT_TRUE(baseline.ok());

  QueryServiceOptions so;
  so.pool_threads = 4;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  // Warm up every query shape once, fault-free, so each site's static
  // registration has run and the plan cache is populated (the sweep then
  // also covers cached-plan paths).
  RunMixedWorkload(session.get(), /*injected_msg=*/"");

  for (const char* site : kFaultSites) {
    SCOPED_TRACE(site);
    const std::string msg = std::string("chaos: ") + site;
    FailpointConfig config;
    config.inject = Status::Internal(msg);
    {
      ScopedFailpoint armed(site, config);
      RunMixedWorkload(session.get(), msg);
    }

    // The chaos invariant: whatever the fault tore down mid-flight, every
    // ticket, gang slot, and cursor must be back.
    ServiceStats stats = service.StatsSnapshot();
    EXPECT_EQ(stats.active_queries, 0);
    EXPECT_EQ(stats.used_gang_slots, 0);
    EXPECT_EQ(stats.open_cursors, 0);

    // And the service still answers correctly once disarmed.
    auto after = session->Query(kMagicQuery);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    ExpectRowsIdentical(after->rows, baseline->rows);
  }

  // The sweep must have actually injected faults, not tiptoed around the
  // sites: every site in the list was executed at least once.
  EXPECT_GT(FailpointRegistry::Instance().TotalFires(), 0);
  for (const char* site : kFaultSites) {
    EXPECT_GT(FailpointRegistry::Instance().Site(site)->hits(), 0)
        << site << " was never executed by the mixed workload";
  }
}

TEST(ChaosTest, ProbabilisticFaultsUnderConcurrencyRecover) {
  Database db;
  MakeWorkload(&db);
  QueryServiceOptions so;
  so.pool_threads = 4;
  QueryService service(&db, so);

  FailpointConfig config;
  config.inject = Status::Internal("chaos: coinflip");
  config.probability = 0.3;
  config.seed = 7;
  {
    ScopedFailpoint page(std::string("storage.page_read"), config);
    ScopedFailpoint push(std::string("server.sink.push"), config);
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i) {
      threads.emplace_back([&service, i] {
        std::unique_ptr<Session> session = service.CreateSession();
        for (int round = 0; round < 8; ++round) {
          ExecOptions exec;
          exec.dop = (i % 2 == 0) ? 1 : 4;
          auto r = session->Query(kJoinQuery, exec);
          if (!r.ok()) {
            // Only the injected fault may surface.
            EXPECT_NE(r.status().ToString().find("chaos: coinflip"),
                      std::string::npos)
                << r.status().ToString();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.active_queries, 0);
  EXPECT_EQ(stats.used_gang_slots, 0);
  EXPECT_EQ(stats.open_cursors, 0);
  std::unique_ptr<Session> session = service.CreateSession();
  EXPECT_TRUE(session->Query(kJoinQuery).ok());
}

TEST(ChaosTest, ParkResumeDelayInjectionKeepsStreamExact) {
  Database db;
  MakeWorkload(&db);
  auto baseline = db.Run(kJoinQuery);
  ASSERT_TRUE(baseline.ok());

  QueryServiceOptions so;
  so.pool_threads = 2;
  // Tiny quanta so a producer re-checks its lane's capacity every few rows
  // — with a 4-row high-water mark below, it parks over and over.
  so.scheduler_quantum_rows = 2;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  // At dop 2 the gang's lanes park and resume through the same sites.
  for (int dop : {1, 2}) {
    SCOPED_TRACE("dop=" + std::to_string(dop));
    // Stretch the park -> resume handoff with injected latency on both
    // sides while a tiny queue forces the producers to park constantly.
    // The stream must still deliver every row exactly once, in order.
    FailpointConfig delay;
    delay.delay_micros = 500;
    delay.max_fires = 25;  // bound injected latency, parks keep counting
    ScopedFailpoint park(std::string("server.sink.park"), delay);
    ScopedFailpoint resume(std::string("server.sink.resume"), delay);

    ExecOptions exec;
    exec.dop = dop;
    exec.stream_queue_rows = 4;
    auto cursor = session->Open(kJoinQuery, exec);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    EXPECT_EQ(cursor->used_dop(), dop) << cursor->parallel_fallback_reason();
    // Park before the first Fetch: with nobody fetching, a result larger
    // than the queue plus a quantum per lane must fill a lane.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (cursor->producer_parks() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<Tuple> streamed;
    while (true) {
      auto batch = cursor->Fetch(3);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      if (batch->empty()) break;
      for (Tuple& t : *batch) streamed.push_back(std::move(t));
    }
    EXPECT_GT(cursor->producer_parks(), 0);
    ASSERT_TRUE(cursor->Close().ok());
    ExpectRowsIdentical(streamed, baseline->rows);
    EXPECT_EQ(service.StatsSnapshot().open_cursors, 0);
  }
}

TEST(ChaosTest, DeterministicTriggersFireOnSchedule) {
  // Trigger semantics on a bare site: fire from the 3rd eligible hit, every
  // 2nd hit after that, capped at 2 fires.
  Failpoint* site =
      FailpointRegistry::Instance().Site("test.chaos.trigger_schedule");
  FailpointConfig config;
  config.fire_from_hit = 3;
  config.every_k = 2;
  config.max_fires = 2;
  config.inject = Status::Internal("scheduled");
  ScopedFailpoint armed(std::string("test.chaos.trigger_schedule"), config);

  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(!site->Evaluate().ok());
  // Hits:   1      2      3     4      5     6      7      8
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, true, false,
                                      false, false}));
}

TEST(ChaosTest, MetricsTextExportsFailpointFires) {
  Database db;
  MakeWorkload(&db);
  QueryService service(&db, {});
  std::unique_ptr<Session> session = service.CreateSession();
  FailpointConfig config;
  config.inject = Status::Internal("chaos: metrics");
  {
    ScopedFailpoint armed(std::string("storage.page_read"), config);
    auto r = session->Query(kJoinQuery);
    ASSERT_FALSE(r.ok());
  }
  std::string dump = service.MetricsText();
  EXPECT_NE(
      dump.find("magicdb_failpoint_fires_total{site=\"storage.page_read\"}"),
      std::string::npos)
      << dump;
}

#endif  // MAGICDB_FAILPOINTS

}  // namespace
}  // namespace magicdb
