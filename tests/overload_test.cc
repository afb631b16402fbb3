// Overload resilience of the query service: weighted-fair admission across
// priority classes, load shedding with machine-readable retry hints, the
// service-wide memory ceiling and spill disk budget, the stuck-query
// watchdog, and graceful drain.
//
// The invariants under test: under overload the service sheds (bounded
// queue) instead of queueing unboundedly, high-priority work is never shed
// and cannot be starved by background work, every rejection carries enough
// information for the client to retry sensibly, and no overload outcome —
// shed, budget exhaustion, watchdog kill, drain — leaks an admission
// ticket, gang slot, open cursor, memory-ceiling claim, or disk-budget
// byte. Surviving queries stay byte-identical to the sequential baseline.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/backoff.h"
#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "src/server/query_service.h"
#include "src/server/session.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

using std::chrono::milliseconds;

// ----- shared workload (the paper's Emp/Dept/Bonus running example) -----

void MakeWorkload(Database* db_out) {
  Database& db = *db_out;
  MAGICDB_CHECK_OK(
      db.Execute("CREATE TABLE Emp (eid INT, did INT, sal DOUBLE, age INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Bonus (eid INT, amount DOUBLE)"));
  Random rng(53);
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

const char* kJoinQuery =
    "SELECT E.eid, E.sal, D.budget FROM Emp E, Dept D "
    "WHERE E.did = D.did AND E.age < 30 AND D.budget > 100000";
const char* kViewQuery =
    "SELECT E.did, E.sal, V.avgcomp FROM Emp E, Dept D, DepComp V "
    "WHERE E.did = D.did AND D.did = V.did AND D.budget > 100000 "
    "AND E.sal > V.avgcomp";
const char* kScanQuery = "SELECT E.eid, E.did, E.sal FROM Emp E "
                         "WHERE E.age >= 0";

void ExpectRowsIdentical(const std::vector<Tuple>& a,
                         const std::vector<Tuple>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(CompareTuples(a[i], b[i]), 0) << "row " << i << " differs";
  }
}

void ExpectNoLeaks(QueryService* service) {
  // Producer teardown (spill-file destructors releasing disk-budget
  // charges) completes with the pool task that finished the stream; wait
  // for the pool so the zero-leak invariant is checked against a quiesced
  // service, not a race.
  service->pool()->WaitIdle();
  ServiceStats stats = service->StatsSnapshot();
  EXPECT_EQ(stats.active_queries, 0);
  EXPECT_EQ(stats.used_gang_slots, 0);
  EXPECT_EQ(stats.open_cursors, 0);
  EXPECT_EQ(stats.queued_queries, 0);
  EXPECT_EQ(stats.memory_ceiling_claimed_bytes, 0);
  EXPECT_EQ(stats.spill_disk_used_bytes, 0);
}

/// Drains and closes a cursor, ignoring errors (helper for waiter threads
/// whose outcome is asserted elsewhere).
void DrainAndClose(Cursor* cursor) {
  while (true) {
    auto batch = cursor->Fetch(4096);
    if (!batch.ok() || batch->empty()) break;
  }
  cursor->Close();
}

/// Spins until the service reports `n` queued admission waiters (bounded).
void AwaitQueuedDepth(QueryService* service, int n) {
  for (int i = 0; i < 2000; ++i) {
    if (service->StatsSnapshot().queued_queries >= n) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "admission queue never reached depth " << n;
}

// ----- retry-after hint plumbing (src/common/backoff.h) -----

TEST(OverloadTest, RetryAfterHintRoundTrips) {
  const std::string msg =
      "server overloaded (queue_depth): admission queue is saturated; " +
      FormatRetryAfterHint(12345);
  EXPECT_EQ(ParseRetryAfterUs(msg), 12345);
  EXPECT_EQ(ParseRetryAfterUs("service is draining"), -1);
  EXPECT_EQ(ParseRetryAfterUs("retry_after_us=oops"), -1);
  EXPECT_EQ(ParseRetryAfterUs(""), -1);
}

// ----- load shedding -----

TEST(OverloadTest, ShedsNonHighUnderQueuePressureWithRetryHint) {
  Database db;
  MakeWorkload(&db);
  QueryServiceOptions so;
  so.pool_threads = 2;
  so.max_concurrent_queries = 1;
  so.shed_queue_depth = 1;  // pinned: independent of the env sweep
  QueryService service(&db, so);

  SessionOptions high;
  high.priority = SessionPriority::kHigh;
  SessionOptions background;
  background.priority = SessionPriority::kBackground;
  std::unique_ptr<Session> blocker = service.CreateSession(high);
  std::unique_ptr<Session> waiter = service.CreateSession();  // normal
  std::unique_ptr<Session> shed_me = service.CreateSession(background);
  std::unique_ptr<Session> vip = service.CreateSession(high);

  // Occupy the single admission ticket, then queue one normal waiter.
  auto held = blocker->Open(kJoinQuery);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  std::thread waiter_thread([&] {
    auto cursor = waiter->Open(kJoinQuery);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    DrainAndClose(&*cursor);
  });
  AwaitQueuedDepth(&service, 1);

  // A background submission at the high-water mark is rejected immediately
  // with a usable retry hint — it never joins the queue.
  auto shed = shed_me->Open(kJoinQuery);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(ParseRetryAfterUs(shed.status().message()), 100);

  // A high-priority submission is never shed: it queues (and here runs into
  // its own deadline instead, proving it reached the admission wait).
  ExecOptions short_deadline;
  short_deadline.timeout = milliseconds(60);
  auto queued_vip = vip->Open(kJoinQuery, short_deadline);
  ASSERT_FALSE(queued_vip.ok());
  EXPECT_EQ(queued_vip.status().code(), StatusCode::kDeadlineExceeded);

  DrainAndClose(&*held);
  waiter_thread.join();

  ServiceStats stats = service.StatsSnapshot();
  EXPECT_GE(stats.queries_shed, 1);
  EXPECT_GE(stats.shed_reasons.at("queue_depth"), 1);
  ExpectNoLeaks(&service);
}

TEST(OverloadTest, QueryRetriesAfterShedAndSucceeds) {
  Database db;
  MakeWorkload(&db);
  auto baseline = db.Run(kJoinQuery);
  ASSERT_TRUE(baseline.ok());

  QueryServiceOptions so;
  so.pool_threads = 2;
  so.max_concurrent_queries = 1;
  so.shed_queue_depth = 1;
  QueryService service(&db, so);

  SessionOptions high;
  high.priority = SessionPriority::kHigh;
  SessionOptions background;
  background.priority = SessionPriority::kBackground;
  std::unique_ptr<Session> blocker = service.CreateSession(high);
  std::unique_ptr<Session> waiter = service.CreateSession();
  std::unique_ptr<Session> retrier = service.CreateSession(background);

  auto held = blocker->Open(kJoinQuery);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  std::thread waiter_thread([&] {
    auto cursor = waiter->Open(kJoinQuery);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    DrainAndClose(&*cursor);
  });
  AwaitQueuedDepth(&service, 1);

  // Release the blocker shortly after the retrier starts shedding, so its
  // backoff loop observes the drained queue and succeeds transparently.
  std::thread closer([&] {
    std::this_thread::sleep_for(milliseconds(40));
    DrainAndClose(&*held);
  });
  auto result = retrier->Query(kJoinQuery);
  closer.join();
  waiter_thread.join();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectRowsIdentical(result->rows, baseline->rows);
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_GE(stats.queries_shed, 1);
  EXPECT_GE(stats.query_shed_retries, 1);
  ExpectNoLeaks(&service);
}

// ----- service-wide memory ceiling -----

TEST(OverloadTest, ServiceMemoryCeilingGatesAdmission) {
  Database db;
  MakeWorkload(&db);
  QueryServiceOptions so;
  so.pool_threads = 2;
  so.max_concurrent_queries = 4;
  so.shed_queue_depth = -1;  // explicitly off
  so.service_memory_ceiling_bytes = 1 << 20;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  // A single query whose limit alone exceeds the ceiling can never be
  // admitted: fail fast, not forever-queued.
  ExecOptions huge;
  huge.memory_limit_bytes = 2 << 20;
  auto rejected = session->Open(kJoinQuery, huge);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.status().message().find("ceiling"), std::string::npos);

  // Two 700 KB claims do not fit under a 1 MB ceiling: the second blocks at
  // admission (and here trips its deadline) while the first holds its claim.
  ExecOptions governed;
  governed.memory_limit_bytes = 700 * 1024;
  auto first = session->Open(kJoinQuery, governed);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(service.StatsSnapshot().memory_ceiling_claimed_bytes, 700 * 1024);

  ExecOptions governed_deadline = governed;
  governed_deadline.timeout = milliseconds(60);
  auto second = session->Open(kJoinQuery, governed_deadline);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kDeadlineExceeded);

  // Closing the first frees its claim; the same submission now admits.
  DrainAndClose(&*first);
  auto third = session->Open(kJoinQuery, governed);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  DrainAndClose(&*third);
  ExpectNoLeaks(&service);
}

// ----- spill disk budget -----

/// A workload whose hash-join build (~64 KB of Fact rows) cannot fit a
/// 48 KB per-query limit — the query must spill to finish, which is what
/// makes the disk budget bite. MakeWorkload's 150-row tables never spill.
void MakeSpillHeavyWorkload(Database* db_out) {
  Database& db = *db_out;
  MAGICDB_CHECK_OK(
      db.Execute("CREATE TABLE Fact (k INT, v DOUBLE, pad INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Dim (k INT, w DOUBLE)"));
  Random rng(17);
  std::vector<Tuple> fact, dim;
  for (int i = 0; i < 4000; ++i) {
    fact.push_back({Value::Int64(i % 1000),
                    Value::Double(rng.NextDouble() * 1e6),
                    Value::Int64(rng.UniformInt(0, 1 << 20))});
    dim.push_back({Value::Int64(i % 1000), Value::Double(i * 0.5)});
  }
  MAGICDB_CHECK_OK(db.LoadRows("Fact", std::move(fact)));
  MAGICDB_CHECK_OK(db.LoadRows("Dim", std::move(dim)));
  OptimizerOptions* opts = db.mutable_optimizer_options();
  opts->enable_nested_loops = false;
  opts->enable_index_nested_loops = false;
  opts->enable_sort_merge = false;
}

const char* kSpillJoinQuery =
    "SELECT F.k, F.v, D.w FROM Fact F, Dim D WHERE F.k = D.k";

TEST(OverloadTest, SpillDiskBudgetFailsRequesterNotBystanders) {
  Database db;
  MakeSpillHeavyWorkload(&db);
  auto baseline = db.Run(kSpillJoinQuery);
  ASSERT_TRUE(baseline.ok());

  const testutil::ScopedTempDir dir("overload");
  QueryServiceOptions so;
  so.pool_threads = 2;
  so.shed_queue_depth = -1;
  so.spill_dir = dir.path();
  so.spill_batch_bytes = 1024;
  so.scheduler_quantum_rows = 128;
  so.stream_queue_rows = 256;
  so.spill_disk_budget_bytes = 2048;  // two frames, then exhausted
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  // The governed query spills past the tiny budget and fails with
  // kResourceExhausted — the victim is the requester, nobody else.
  ExecOptions tiny;
  tiny.memory_limit_bytes = 48 * 1024;
  auto victim = session->Query(kSpillJoinQuery, tiny);
  ASSERT_FALSE(victim.ok());
  EXPECT_EQ(victim.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(victim.status().message().find("disk budget"), std::string::npos);

  // An ungoverned bystander on the same service is unaffected, and the
  // failed query's charges were all released (zero-leak invariant).
  auto bystander = session->Query(kSpillJoinQuery);
  ASSERT_TRUE(bystander.ok()) << bystander.status().ToString();
  ExpectRowsIdentical(bystander->rows, baseline->rows);

  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.spill_disk_budget_bytes, 2048);
  EXPECT_GE(stats.spill_disk_rejections, 1);
  ExpectNoLeaks(&service);

  // Under a generous budget the same governed query completes by spilling,
  // byte-identical, and its disk usage returns to zero at close.
  const testutil::ScopedTempDir generous_dir("overload");
  QueryServiceOptions generous = so;
  generous.spill_dir = generous_dir.path();
  generous.spill_disk_budget_bytes = 1 << 30;
  QueryService service2(&db, generous);
  std::unique_ptr<Session> session2 = service2.CreateSession();
  auto spilled = session2->Query(kSpillJoinQuery, tiny);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  ExpectRowsIdentical(spilled->rows, baseline->rows);
  ServiceStats stats2 = service2.StatsSnapshot();
  EXPECT_GT(stats2.spill_bytes_written, 0);
  ExpectNoLeaks(&service2);
}

// ----- stuck-query watchdog -----

TEST(OverloadTest, WatchdogSparesParkedAndFinishedProducers) {
  Database db;
  MakeWorkload(&db);
  auto baseline = db.Run(kScanQuery);
  ASSERT_TRUE(baseline.ok());

  QueryServiceOptions so;
  so.pool_threads = 2;
  so.shed_queue_depth = -1;
  so.scheduler_quantum_rows = 64;
  so.stream_queue_rows = 64;  // producer parks almost immediately
  so.watchdog_stall_timeout = milliseconds(80);
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  auto cursor = session->Open(kScanQuery);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  // Don't fetch: the producer fills the queue and parks on backpressure.
  // Several stall timeouts pass — a parked producer is a slow consumer, not
  // a stuck query, so the watchdog must not fire.
  std::this_thread::sleep_for(milliseconds(400));
  EXPECT_EQ(service.StatsSnapshot().watchdog_cancels, 0);

  std::vector<Tuple> rows;
  while (true) {
    auto batch = cursor->Fetch(4096);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (batch->empty()) break;
    rows.insert(rows.end(), std::make_move_iterator(batch->begin()),
                std::make_move_iterator(batch->end()));
  }
  EXPECT_TRUE(cursor->Close().ok());
  ExpectRowsIdentical(rows, baseline->rows);
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.watchdog_cancels, 0);
  ExpectNoLeaks(&service);
}

// ----- graceful drain -----

TEST(OverloadTest, ShutdownDrainsRejectsAndCancelsStragglers) {
  Database db;
  MakeWorkload(&db);
  QueryServiceOptions so;
  so.pool_threads = 2;
  so.shed_queue_depth = -1;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();
  std::unique_ptr<Session> late = service.CreateSession();

  // A straggler: open, never drained by its client until cancelled.
  auto cursor = session->Open(kViewQuery);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();

  std::atomic<bool> drained{false};
  std::thread shutdown_thread([&] {
    Status s = service.Shutdown(/*grace=*/milliseconds(250));
    EXPECT_TRUE(s.ok()) << s.ToString();
    drained.store(true);
  });

  // New submissions are rejected outright while draining — with NO retry
  // hint, so Query()'s shed-retry loop surfaces the error instead of
  // spinning against a service that will not come back.
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_TRUE(service.StatsSnapshot().draining);
  auto refused = late->Query(kJoinQuery);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(ParseRetryAfterUs(refused.status().message()), -1);

  // Phase 2 cancels the straggler's token; its client observes the
  // cancellation at the next Fetch and closes, letting the drain complete.
  // Wait out the grace period first so the straggler is still open when
  // phase 2 fires (Fetch checks the token before delivering buffered rows).
  std::this_thread::sleep_for(milliseconds(300));
  Status fetch_status = Status::OK();
  while (fetch_status.ok()) {
    auto batch = cursor->Fetch(512);
    if (!batch.ok()) {
      fetch_status = batch.status();
    } else if (batch->empty()) {
      break;  // unexpectedly reached end-of-stream before cancellation
    }
  }
  EXPECT_EQ(fetch_status.code(), StatusCode::kCancelled)
      << fetch_status.ToString();
  cursor->Close();
  shutdown_thread.join();
  EXPECT_TRUE(drained.load());

  ServiceStats stats = service.StatsSnapshot();
  EXPECT_TRUE(stats.draining);
  ExpectNoLeaks(&service);
  // Idempotent: a drained, idle service shuts down again immediately.
  EXPECT_TRUE(service.Shutdown(milliseconds(10)).ok());
}

// ----- observability -----

/// Parses `name value` out of a Prometheus-style text dump; -1 if absent.
int64_t MetricValue(const std::string& text, const std::string& name) {
  const std::string needle = name + " ";
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::strtoll(text.c_str() + pos + needle.size(), nullptr, 10);
    }
    pos += needle.size();
  }
  return -1;
}

TEST(OverloadTest, MetricsTextExposesOverloadSeries) {
  Database db;
  MakeWorkload(&db);
  QueryServiceOptions so;
  so.pool_threads = 2;
  so.max_concurrent_queries = 1;
  so.shed_queue_depth = 1;
  QueryService service(&db, so);

  SessionOptions high;
  high.priority = SessionPriority::kHigh;
  SessionOptions background;
  background.priority = SessionPriority::kBackground;
  std::unique_ptr<Session> blocker = service.CreateSession(high);
  std::unique_ptr<Session> waiter = service.CreateSession();
  std::unique_ptr<Session> shed_me = service.CreateSession(background);

  auto held = blocker->Open(kJoinQuery);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  std::thread waiter_thread([&] {
    auto cursor = waiter->Open(kJoinQuery);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    DrainAndClose(&*cursor);
  });
  AwaitQueuedDepth(&service, 1);
  auto shed = shed_me->Open(kJoinQuery);
  ASSERT_FALSE(shed.ok());
  DrainAndClose(&*held);
  waiter_thread.join();

  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.shed_reasons.at("queue_depth"), 1);
  EXPECT_GE(stats.admitted_by_priority.at("high"), 1);
  EXPECT_GE(stats.admitted_by_priority.at("normal"), 1);
  EXPECT_GE(stats.admission_wait_us_p95_by_priority.at("normal"), 0.0);
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("shed[queue_depth]=1"), std::string::npos);
  EXPECT_NE(text.find("draining=0"), std::string::npos);

  // The same series, parsed back out of the Prometheus text dump.
  const std::string dump = service.MetricsText();
  EXPECT_EQ(MetricValue(dump, "magicdb_server_sheds_total"), 1);
  EXPECT_EQ(
      MetricValue(dump, "magicdb_server_sheds_total{reason=queue_depth}"), 1);
  EXPECT_GE(
      MetricValue(dump,
                  "magicdb_server_queries_admitted_total{priority=high}"),
      1);
  EXPECT_EQ(MetricValue(dump, "magicdb_server_watchdog_cancels_total"), 0);
  EXPECT_EQ(
      MetricValue(dump, "magicdb_server_memory_ceiling_claimed_bytes"), 0);
  EXPECT_NE(dump.find("magicdb_server_admission_wait_us{priority=normal}"),
            std::string::npos);
}

// ----- weighted-fair admission under saturation -----

void RunFairnessWorkload(int dop) {
  SCOPED_TRACE("dop=" + std::to_string(dop));
  Database db;
  MakeWorkload(&db);
  auto baseline = db.Run(kJoinQuery);
  ASSERT_TRUE(baseline.ok());

  QueryServiceOptions so;
  so.pool_threads = 4;
  so.max_concurrent_queries = 2;  // forces a persistent admission queue
  so.shed_queue_depth = -1;       // fairness test must not shed
  QueryService service(&db, so);

  SessionOptions high;
  high.priority = SessionPriority::kHigh;
  SessionOptions background;
  background.priority = SessionPriority::kBackground;
  // One high closed-loop client against six background ones. The high
  // client is never backlogged (one query outstanding), so the observable
  // WFQ guarantee is latency: whenever it asks, it goes to the head of the
  // line and completes at close to a full slot's rate, while the background
  // sessions split what remains. Per-session throughput then separates
  // decisively; under FIFO all seven sessions would converge to parity.
  std::unique_ptr<Session> high_session = service.CreateSession(high);
  constexpr int kBackgroundSessions = 6;
  std::vector<std::unique_ptr<Session>> bg_sessions;
  for (int i = 0; i < kBackgroundSessions; ++i) {
    bg_sessions.push_back(service.CreateSession(background));
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  std::atomic<int64_t> high_completed{0};
  std::atomic<int64_t> bg_completed{0};
  std::atomic<int> mismatches{0};
  auto run_loop = [&](Session* session, std::atomic<int64_t>* completed) {
    ExecOptions exec;
    exec.dop = dop;
    while (std::chrono::steady_clock::now() < deadline) {
      auto r = session->Query(kJoinQuery, exec);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      if (r->rows.size() != baseline->rows.size()) mismatches.fetch_add(1);
      completed->fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(run_loop, high_session.get(), &high_completed);
  for (auto& s : bg_sessions) {
    threads.emplace_back(run_loop, s.get(), &bg_completed);
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  // Weighted fairness, one-sided: the high-priority session must complete
  // at least twice as much as the average background session (under FIFO
  // the seven closed-loop sessions converge to parity). Weight 1 still
  // guarantees service: background must progress too.
  const int64_t per_bg_best =
      (bg_completed.load() + kBackgroundSessions - 1) / kBackgroundSessions;
  EXPECT_GE(high_completed.load(), 2 * std::max<int64_t>(1, per_bg_best))
      << "high=" << high_completed.load() << " bg_total=" << bg_completed.load();
  EXPECT_GE(bg_completed.load(), 1) << "background starved outright";

  ServiceStats stats = service.StatsSnapshot();
  EXPECT_GE(stats.admitted_by_priority.at("high"), high_completed.load());
  EXPECT_GE(stats.admitted_by_priority.at("background"), bg_completed.load());
  // Priority buys shorter admission waits, visible in the histograms.
  EXPECT_LE(stats.admission_wait_us_p95_by_priority.at("high"),
            stats.admission_wait_us_p95_by_priority.at("background"));
  ExpectNoLeaks(&service);
}

TEST(OverloadFairnessTest, HighOutrunsBackgroundUnderSaturationDop1) {
  RunFairnessWorkload(1);
}

TEST(OverloadFairnessTest, HighOutrunsBackgroundUnderSaturationDop4) {
  RunFairnessWorkload(4);
}

// ----- failpoint-driven overload chaos (MAGICDB_FAILPOINTS builds) -----

#ifdef MAGICDB_FAILPOINTS

TEST(OverloadChaosTest, WatchdogCancelsStalledQueryAndLeaksNothing) {
  Database db;
  MakeWorkload(&db);
  auto baseline = db.Run(kScanQuery);
  ASSERT_TRUE(baseline.ok());

  QueryServiceOptions so;
  so.pool_threads = 2;
  so.shed_queue_depth = -1;
  so.scheduler_quantum_rows = 64;
  so.watchdog_stall_timeout = milliseconds(150);
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  {
    // Freeze the producer inside its second push for far longer than the
    // stall timeout: rows stop, the heartbeat stops, the producer is
    // neither parked nor finished — exactly a stuck query.
    FailpointConfig stall_config;
    stall_config.fire_from_hit = 2;
    stall_config.max_fires = 1;
    stall_config.delay_micros = 1000000;
    ScopedFailpoint stall("server.sink.push", stall_config);
    auto result = session->Query(kScanQuery);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    EXPECT_NE(result.status().message().find("watchdog"), std::string::npos);
  }

  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.watchdog_cancels, 1);
  EXPECT_GE(stats.watchdog_cancel_reasons.at("mid_stream"), 1);
  ExpectNoLeaks(&service);

  // The killed query freed everything; the service keeps serving.
  auto next = session->Query(kScanQuery);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ExpectRowsIdentical(next->rows, baseline->rows);
}

TEST(OverloadChaosTest, MixedPriorityOversubscriptionLeaksNothing) {
  Database db;
  MakeWorkload(&db);
  const char* queries[] = {kJoinQuery, kViewQuery, kScanQuery};
  std::vector<QueryResult> baselines;
  for (const char* q : queries) {
    auto r = db.Run(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    baselines.push_back(std::move(*r));
  }

  for (int dop : {1, 4}) {
    SCOPED_TRACE("dop=" + std::to_string(dop));
    const testutil::ScopedTempDir dir("overload");
    QueryServiceOptions so;
    so.pool_threads = 4;
    so.max_concurrent_queries = 3;
    so.shed_queue_depth = 2;  // small high-water: real sheds under the storm
    so.spill_dir = dir.path();
    so.spill_batch_bytes = 1024;
    so.spill_disk_budget_bytes = 1 << 20;
    so.scheduler_quantum_rows = 128;
    so.stream_queue_rows = 256;
    QueryService service(&db, so);

    ScopedFailpoint shed_fp(
        "admission.shed", [] {
          FailpointConfig c;
          c.probability = 0.25;
          c.seed = 97;
          c.inject = Status::Unavailable("injected overload shed");
          return c;
        }());
    ScopedFailpoint budget_fp(
        "spill.budget.charge", [] {
          FailpointConfig c;
          c.probability = 0.05;
          c.seed = 131;
          c.inject =
              Status::ResourceExhausted("injected spill disk budget refusal");
          return c;
        }());

    constexpr int kSessions = 6;
    constexpr int kRounds = 10;
    const SessionPriority priorities[kSessions] = {
        SessionPriority::kHigh,       SessionPriority::kHigh,
        SessionPriority::kNormal,     SessionPriority::kNormal,
        SessionPriority::kBackground, SessionPriority::kBackground};
    std::vector<std::unique_ptr<Session>> sessions;
    for (int s = 0; s < kSessions; ++s) {
      SessionOptions opt;
      opt.priority = priorities[s];
      sessions.push_back(service.CreateSession(opt));
    }

    std::atomic<int> survivors{0};
    std::atomic<int> rejected{0};
    std::atomic<int> unexpected{0};
    std::vector<std::thread> threads;
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        Session* session = sessions[s].get();
        for (int round = 0; round < kRounds; ++round) {
          const int qi = (s + round) % 3;
          ExecOptions exec;
          exec.dop = dop;
          // Alternate governed (spilling, budget-exposed) and ungoverned.
          exec.memory_limit_bytes = round % 2 == 0 ? 96 * 1024 : -1;
          auto cursor = session->Open(queries[qi], exec);
          Status outcome = cursor.status();
          std::vector<Tuple> rows;
          if (cursor.ok()) {
            while (true) {
              auto batch = cursor->Fetch(4096);
              if (!batch.ok()) {
                outcome = batch.status();
                break;
              }
              if (batch->empty()) break;
              rows.insert(rows.end(), std::make_move_iterator(batch->begin()),
                          std::make_move_iterator(batch->end()));
            }
            cursor->Close();
          }
          if (outcome.ok()) {
            // Survivors must be byte-identical at any DoP.
            if (rows.size() != baselines[qi].rows.size()) {
              unexpected.fetch_add(1);
            } else {
              for (size_t i = 0; i < rows.size(); ++i) {
                if (CompareTuples(rows[i], baselines[qi].rows[i]) != 0) {
                  unexpected.fetch_add(1);
                  break;
                }
              }
            }
            survivors.fetch_add(1);
          } else if (outcome.code() == StatusCode::kUnavailable ||
                     outcome.code() == StatusCode::kResourceExhausted) {
            rejected.fetch_add(1);  // shed or budget refusal: expected storm
          } else {
            ADD_FAILURE() << "unexpected failure: " << outcome.ToString();
            unexpected.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();

    EXPECT_EQ(unexpected.load(), 0);
    EXPECT_GT(survivors.load(), 0);
    ServiceStats stats = service.StatsSnapshot();
    ExpectNoLeaks(&service);

    // Chaos off: the drained service still answers correctly.
    FailpointRegistry::Instance().DisableAll();
    std::unique_ptr<Session> after = service.CreateSession();
    auto final_result = after->Query(kViewQuery);
    ASSERT_TRUE(final_result.ok()) << final_result.status().ToString();
    ExpectRowsIdentical(final_result->rows, baselines[1].rows);
  }
}

#endif  // MAGICDB_FAILPOINTS

}  // namespace
}  // namespace magicdb
