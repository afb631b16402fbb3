// Tests for the query-service subsystem: metrics primitives, cancellation
// tokens, the plan cache's epoch-keyed invalidation, sessions/prepared
// statements, deadlines, and — the core guarantee — that every service
// execution path returns results byte-identical to Database::Run() with
// exactly equal cost counters.

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/cancellation.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "src/parallel/thread_pool.h"
#include "src/server/plan_cache.h"
#include "src/server/query_service.h"
#include "src/server/session.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

// ----- Metrics primitives -----

TEST(MetricsTest, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42);
  c.Set(7);
  EXPECT_EQ(c.Value(), 7);
}

TEST(MetricsTest, HistogramQuantilesBracketObservations) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Observe(i);
  EXPECT_EQ(h.Count(), 1000);
  EXPECT_EQ(h.Sum(), 1000 * 1001 / 2);
  // Bucket resolution is a factor of two; quantiles must land within it.
  EXPECT_GE(h.Quantile(0.5), 250.0);
  EXPECT_LE(h.Quantile(0.5), 1024.0);
  EXPECT_GE(h.Quantile(0.99), h.Quantile(0.5));
  EXPECT_LE(h.Quantile(0.99), 1024.0);
}

TEST(MetricsTest, RegistryReturnsStablePointersAndDumps) {
  MetricsRegistry reg;
  Counter* a = reg.counter("magicdb_test_a_total");
  EXPECT_EQ(a, reg.counter("magicdb_test_a_total"));
  a->Add(3);
  reg.histogram("magicdb_test_lat_us")->Observe(100);
  std::string dump = reg.TextDump();
  EXPECT_NE(dump.find("magicdb_test_a_total 3"), std::string::npos) << dump;
  EXPECT_NE(dump.find("magicdb_test_lat_us"), std::string::npos) << dump;
  EXPECT_EQ(reg.CounterValues().at("magicdb_test_a_total"), 3);
}

// ----- CancelToken -----

TEST(CancelTokenTest, CancelIsSticky) {
  CancelToken token;
  EXPECT_TRUE(token.Check().ok());
  token.Cancel();
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, ExpiredDeadlineReportsDeadlineExceeded) {
  CancelToken token;
  token.SetTimeout(std::chrono::nanoseconds(-1));
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
  // First observed cause sticks: a later Cancel() cannot re-label it.
  token.Cancel();
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, FutureDeadlineStaysLive) {
  CancelToken token;
  token.SetTimeout(std::chrono::hours(1));
  EXPECT_TRUE(token.Check().ok());
  EXPECT_TRUE(token.has_deadline());
}

// ----- ThreadPool::RunGang -----

TEST(ThreadPoolTest, RunGangRunsAllMembersAndCollectsStatuses) {
  ThreadPool pool(2);
  std::vector<Status> statuses = pool.RunGang(4, [](int i) -> Status {
    return i == 2 ? Status::Internal("member 2 fails") : Status::OK();
  });
  ASSERT_EQ(statuses.size(), 4u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_FALSE(statuses[2].ok());
  EXPECT_TRUE(statuses[3].ok());
}

// ----- PlanCache -----

PlanMeta MetaWithCost(double cost) {
  PlanMeta meta;
  meta.est_cost = cost;
  return meta;
}

TEST(PlanCacheTest, MissThenHit) {
  PlanCache cache;
  PlanMeta meta;
  EXPECT_FALSE(cache.Lookup("q1", /*epoch=*/0, &meta, nullptr));
  cache.Insert("q1", 0, MetaWithCost(7.0));
  ASSERT_TRUE(cache.Lookup("q1", 0, &meta, nullptr));
  EXPECT_DOUBLE_EQ(meta.est_cost, 7.0);
}

TEST(PlanCacheTest, EpochMismatchDropsEntry) {
  PlanCache cache;
  cache.Insert("q1", /*epoch=*/3, MetaWithCost(7.0));
  PlanMeta meta;
  // A newer catalog epoch makes the entry stale: miss, and the entry is
  // gone so it can never be served again.
  EXPECT_FALSE(cache.Lookup("q1", /*epoch=*/4, &meta, nullptr));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup("q1", 3, &meta, nullptr));
}

TEST(PlanCacheTest, StaleCheckInIsDropped) {
  PlanCache cache;
  cache.Insert("q1", 5, MetaWithCost(1.0));
  cache.CheckIn("q1", /*epoch=*/4, nullptr);  // null instance: no-op
  PlanMeta meta;
  OpPtr instance;
  ASSERT_TRUE(cache.Lookup("q1", 5, &meta, &instance));
  EXPECT_EQ(instance, nullptr);  // nothing was pooled
}

// A tree that never ran: pooling moves it without touching it.
OpPtr IdleInstance() {
  return std::make_unique<FilterSetScanOp>("fs_unused", Schema());
}

TEST(PlanCacheTest, PoolsOnlyIntoAnEntryThatWasHit) {
  PlanCache cache;
  PlanMeta meta;
  OpPtr instance;
  EXPECT_FALSE(cache.Lookup("q1", 0, &meta, &instance));
  cache.Insert("q1", 0, MetaWithCost(1.0));
  // Never hit: the statement may never repeat, so its tree is dropped.
  cache.CheckIn("q1", 0, IdleInstance());
  ASSERT_TRUE(cache.Lookup("q1", 0, &meta, &instance));
  EXPECT_EQ(instance, nullptr);
  // Hit once: the next check-in pools and the next hit reuses it.
  cache.CheckIn("q1", 0, IdleInstance());
  ASSERT_TRUE(cache.Lookup("q1", 0, &meta, &instance));
  EXPECT_NE(instance, nullptr);
}

TEST(PlanCacheTest, LruEvictsOldest) {
  PlanCache cache(/*max_entries=*/2);
  cache.Insert("a", 0, MetaWithCost(1.0));
  cache.Insert("b", 0, MetaWithCost(2.0));
  PlanMeta meta;
  ASSERT_TRUE(cache.Lookup("a", 0, &meta, nullptr));  // refresh a
  cache.Insert("c", 0, MetaWithCost(3.0));            // evicts b
  EXPECT_TRUE(cache.Lookup("a", 0, &meta, nullptr));
  EXPECT_FALSE(cache.Lookup("b", 0, &meta, nullptr));
  EXPECT_TRUE(cache.Lookup("c", 0, &meta, nullptr));
  EXPECT_EQ(cache.evictions(), 1);
}

// ----- Catalog DDL epoch -----

TEST(CatalogEpochTest, DdlAndAnalyzeBumpEpoch) {
  Database db;
  const int64_t e0 = db.catalog()->ddl_epoch();
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE T (a INT, b DOUBLE)"));
  const int64_t e1 = db.catalog()->ddl_epoch();
  EXPECT_GT(e1, e0);
  // LoadRows runs ANALYZE, which also bumps (stats steer plan choice).
  MAGICDB_CHECK_OK(
      db.LoadRows("T", {{Value::Int64(1), Value::Double(2.0)}}));
  const int64_t e2 = db.catalog()->ddl_epoch();
  EXPECT_GT(e2, e1);
  MAGICDB_CHECK_OK(
      db.Execute("CREATE VIEW V AS SELECT a FROM T WHERE b > 0.0"));
  EXPECT_GT(db.catalog()->ddl_epoch(), e2);
}

// A load that fails part way keeps the rows before the bad one, so it must
// refresh the statistics and bump the epoch like a clean load: an open
// cursor then goes stale rather than reading index lists that moved. A
// load that inserts nothing leaves the epoch alone.
TEST(CatalogEpochTest, PartialLoadBumpsEpoch) {
  Database db;
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE T (a INT, b DOUBLE)"));
  const int64_t e0 = db.catalog()->ddl_epoch();
  EXPECT_FALSE(db.LoadRows("T", {{Value::String("bad"), Value::Double(1.0)}})
                   .ok());
  EXPECT_EQ(db.catalog()->ddl_epoch(), e0);
  EXPECT_FALSE(db.LoadRows("T", {{Value::Int64(1), Value::Double(2.0)},
                                 {Value::String("bad"), Value::Double(1.0)}})
                   .ok());
  EXPECT_GT(db.catalog()->ddl_epoch(), e0);
  auto result = db.Run("SELECT a FROM T");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u);
  EXPECT_EQ((*db.catalog()->Lookup("T"))->stats.num_rows, 1);
}

// ----- QueryService / Session -----

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

const char* kJoinQuery =
    "SELECT E.eid, E.sal, D.budget FROM Emp E, Dept D "
    "WHERE E.did = D.did AND E.age < 30 AND D.budget > 100000";
const char* kMagicQuery =
    "SELECT E.did, E.sal, V.avgcomp FROM Emp E, Dept D, DepComp V "
    "WHERE E.did = D.did AND D.did = V.did AND D.budget > 100000 "
    "AND E.sal > V.avgcomp";

TEST(QueryServiceTest, ResultsByteIdenticalToDatabaseQuery) {
  Database db;
  MakeWorkload(&db);
  auto baseline_join = db.Run(kJoinQuery);
  auto baseline_magic = db.Run(kMagicQuery);
  ASSERT_TRUE(baseline_join.ok());
  ASSERT_TRUE(baseline_magic.ok());
  ASSERT_FALSE(baseline_join->rows.empty());

  QueryServiceOptions so;
  so.pool_threads = 2;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();
  for (int round = 0; round < 3; ++round) {
    auto r1 = session->Query(kJoinQuery);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ExpectRowsIdentical(r1->rows, baseline_join->rows);
    ExpectCountersEqual(r1->counters, baseline_join->counters);
    EXPECT_EQ(r1->explain, baseline_join->explain);
    auto r2 = session->Query(kMagicQuery);
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    ExpectRowsIdentical(r2->rows, baseline_magic->rows);
    ExpectCountersEqual(r2->counters, baseline_magic->counters);
  }
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.queries_completed, 6);
  // Round 1 misses both statements; rounds 2 and 3 hit.
  EXPECT_EQ(stats.plan_cache_misses, 2);
  EXPECT_EQ(stats.plan_cache_hits, 4);
  if (ResolveReoptQErrorThreshold(-1.0) <= 0) {
    // A forced re-optimization sweep (MAGICDB_TEST_REOPT_QERROR) replaces
    // cached instances with attempt-specific plans, which are never checked
    // back in — the reuse count is only deterministic without it. An entry
    // pools only after its first hit: round 1's trees are dropped, round 2
    // builds fresh ones from the cached plan and checks them in, and only
    // round 3 reuses.
    EXPECT_EQ(stats.plan_instance_reuses, 2);
  }
}

TEST(QueryServiceTest, ParallelQueryIdenticalOnSharedPool) {
  Database db;
  MakeWorkload(&db);
  auto baseline = db.Run(kJoinQuery);
  ASSERT_TRUE(baseline.ok());

  QueryServiceOptions so;
  so.pool_threads = 4;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();
  ExecOptions exec;
  exec.dop = 4;
  auto par = session->Query(kJoinQuery, exec);
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_EQ(par->used_dop, 4) << par->parallel_fallback_reason;
  ExpectRowsIdentical(par->rows, baseline->rows);
  ExpectCountersEqual(par->counters, baseline->counters);
}

TEST(QueryServiceTest, GroupByRunsParallelOnSharedPool) {
  Database db;
  MakeWorkload(&db);
  const char* agg_query =
      "SELECT E.did, COUNT(*) AS c, SUM(E.eid) AS s, MIN(E.sal) AS m "
      "FROM Emp E GROUP BY E.did";
  auto baseline = db.Run(agg_query);
  ASSERT_TRUE(baseline.ok());

  QueryServiceOptions so;
  so.pool_threads = 2;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();
  ExecOptions exec;
  exec.dop = 2;
  auto par = session->Query(agg_query, exec);
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_EQ(par->used_dop, 2) << par->parallel_fallback_reason;
  ExpectRowsIdentical(par->rows, baseline->rows);
  ExpectCountersEqual(par->counters, baseline->counters);
  EXPECT_EQ(service.StatsSnapshot().parallel_fallbacks, 0);
}

TEST(QueryServiceTest, ParallelFallbacksAreCounted) {
  Database db;
  MakeWorkload(&db);
  QueryServiceOptions so;
  so.pool_threads = 4;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();
  ExecOptions exec;
  exec.dop = 4;
  // A Sort is an unsupported pipeline shape; LIMIT falls back before
  // planning replicas. Both must surface in the fallback metrics.
  auto sorted =
      session->Query("SELECT E.eid, E.sal FROM Emp E ORDER BY eid", exec);
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  EXPECT_EQ(sorted->used_dop, 1);
  EXPECT_FALSE(sorted->parallel_fallback_reason.empty());
  auto limited = session->Query("SELECT E.eid FROM Emp E LIMIT 5", exec);
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  EXPECT_EQ(limited->used_dop, 1);

  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.parallel_fallbacks, 2);
  ASSERT_EQ(stats.parallel_fallback_reasons.size(), 2u);
  EXPECT_EQ(
      stats.parallel_fallback_reasons.at("unsupported_operator_in_pipeline"),
      1);
  EXPECT_EQ(stats.parallel_fallback_reasons.at("limit_clause"), 1);
  EXPECT_NE(stats.ToString().find("parallel_fallbacks=2"), std::string::npos);
  EXPECT_NE(service.MetricsText().find(
                "magicdb_server_parallel_fallbacks_total{reason="
                "limit_clause}"),
            std::string::npos);
}

TEST(QueryServiceTest, DdlInvalidatesCachedPlans) {
  Database db;
  MakeWorkload(&db);
  QueryService service(&db, {});
  std::unique_ptr<Session> session = service.CreateSession();

  ASSERT_TRUE(session->Query(kJoinQuery).ok());
  ASSERT_TRUE(session->Query(kJoinQuery).ok());
  ServiceStats before = service.StatsSnapshot();
  EXPECT_EQ(before.plan_cache_hits, 1);
  EXPECT_EQ(before.plan_cache_misses, 1);

  // CREATE TABLE bumps the catalog epoch: the cached entry is stale and the
  // next execution must re-plan (a miss), never reuse the old plan.
  MAGICDB_CHECK_OK(service.Execute("CREATE TABLE Extra (x INT)"));
  ServiceStats after_ddl = service.StatsSnapshot();
  EXPECT_GT(after_ddl.ddl_epoch, before.ddl_epoch);

  auto r = session->Query(kJoinQuery);
  ASSERT_TRUE(r.ok());
  ServiceStats after = service.StatsSnapshot();
  EXPECT_EQ(after.plan_cache_misses, 2);
  EXPECT_EQ(after.plan_cache_hits, 1);

  // CREATE VIEW invalidates too.
  MAGICDB_CHECK_OK(service.Execute(
      "CREATE VIEW Cheap AS SELECT did FROM Dept WHERE budget < 100000"));
  ASSERT_TRUE(session->Query(kJoinQuery).ok());
  EXPECT_EQ(service.StatsSnapshot().plan_cache_misses, 3);
}

TEST(QueryServiceTest, LoadRowsInvalidatesAndMatchesFreshPlanning) {
  Database db;
  MakeWorkload(&db);
  QueryService service(&db, {});
  std::unique_ptr<Session> session = service.CreateSession();
  ASSERT_TRUE(session->Query(kJoinQuery).ok());

  // New data changes statistics and possibly plan choice; the service must
  // serve exactly what a fresh Database::Run() would.
  Random rng(99);
  std::vector<Tuple> more;
  for (int i = 0; i < 400; ++i) {
    more.push_back({Value::Int64(10000 + i), Value::Int64(i % 120),
                    Value::Double(60000.0 + rng.NextDouble() * 50000.0),
                    Value::Int64(25)});
  }
  MAGICDB_CHECK_OK(service.LoadRows("Emp", std::move(more)));

  auto fresh = db.Run(kJoinQuery);
  ASSERT_TRUE(fresh.ok());
  auto served = session->Query(kJoinQuery);
  ASSERT_TRUE(served.ok());
  ExpectRowsIdentical(served->rows, fresh->rows);
  ExpectCountersEqual(served->counters, fresh->counters);
  EXPECT_EQ(served->explain, fresh->explain);
}

TEST(QueryServiceTest, SessionOptionsAreCacheKeyed) {
  Database db;
  MakeWorkload(&db);
  QueryService service(&db, {});
  std::unique_ptr<Session> a = service.CreateSession();
  std::unique_ptr<Session> b = service.CreateSession();
  b->mutable_options()->magic_mode = OptimizerOptions::MagicMode::kNever;

  ASSERT_TRUE(a->Query(kMagicQuery).ok());
  // Different options fingerprint -> different key -> no cross-session hit.
  ASSERT_TRUE(b->Query(kMagicQuery).ok());
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.plan_cache_misses, 2);
  EXPECT_EQ(stats.plan_cache_hits, 0);

  // Same session, options changed in place: also a new key.
  a->mutable_options()->memory_budget_bytes *= 2;
  ASSERT_TRUE(a->Query(kMagicQuery).ok());
  EXPECT_EQ(service.StatsSnapshot().plan_cache_misses, 3);
}

TEST(QueryServiceTest, PreparedStatements) {
  Database db;
  MakeWorkload(&db);
  QueryService service(&db, {});
  std::unique_ptr<Session> session = service.CreateSession();

  EXPECT_FALSE(session->Prepare("bad", "SELECT nope FROM Nowhere").ok());
  MAGICDB_CHECK_OK(session->Prepare("q", kJoinQuery));
  auto baseline = db.Run(kJoinQuery);
  ASSERT_TRUE(baseline.ok());
  auto r1 = session->ExecutePrepared("q");
  ASSERT_TRUE(r1.ok());
  ExpectRowsIdentical(r1->rows, baseline->rows);
  auto r2 = session->ExecutePrepared("q");
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(session->ExecutePrepared("missing").ok());
  EXPECT_EQ(service.StatsSnapshot().plan_cache_hits, 1);
}

TEST(QueryServiceTest, CancelledTokenRejectsQuery) {
  Database db;
  MakeWorkload(&db);
  QueryService service(&db, {});
  std::unique_ptr<Session> session = service.CreateSession();
  ExecOptions exec;
  exec.cancel_token = std::make_shared<CancelToken>();
  exec.cancel_token->Cancel();
  auto r = session->Query(kJoinQuery, exec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(service.StatsSnapshot().queries_cancelled, 1);
}

TEST(QueryServiceTest, ExpiredDeadlineRejectsQuery) {
  Database db;
  MakeWorkload(&db);
  QueryService service(&db, {});
  std::unique_ptr<Session> session = service.CreateSession();
  ExecOptions exec;
  exec.timeout = std::chrono::microseconds(-1);  // expires immediately
  auto r = session->Query(kJoinQuery, exec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.StatsSnapshot().deadlines_exceeded, 1);
  // The service recovers: the next query without a deadline succeeds.
  EXPECT_TRUE(session->Query(kJoinQuery).ok());
}

TEST(QueryServiceTest, ExplainAndMetricsText) {
  Database db;
  MakeWorkload(&db);
  QueryService service(&db, {});
  std::unique_ptr<Session> session = service.CreateSession();
  auto explain = session->Explain(kJoinQuery);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("HashJoin"), std::string::npos) << *explain;
  ASSERT_TRUE(session->Query(kJoinQuery).ok());
  std::string dump = service.MetricsText();
  EXPECT_NE(dump.find("magicdb_server_queries_completed_total 1"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("magicdb_server_query_latency_us"), std::string::npos);
  EXPECT_NE(dump.find("magicdb_server_plan_cache_misses_total 1"),
            std::string::npos);
  // Governance/retry series are registered (and zero) even when unused.
  EXPECT_NE(dump.find("magicdb_server_queries_resource_exhausted_total 0"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("magicdb_server_query_ddl_retries_total 0"),
            std::string::npos)
      << dump;
}

TEST(QueryServiceTest, MemoryGovernanceMetricsExported) {
  Database db;
  MakeWorkload(&db);
  QueryService service(&db, {});
  std::unique_ptr<Session> session = service.CreateSession();

  // A governed query that completes records its peak memory.
  ExecOptions roomy;
  roomy.memory_limit_bytes = 256 * 1024 * 1024;
  ASSERT_TRUE(session->Query(kMagicQuery, roomy).ok());

  // A governed query that breaches counts as resource-exhausted.
  ExecOptions tiny;
  tiny.memory_limit_bytes = 256;
  auto r = session->Query(kMagicQuery, tiny);
  ASSERT_FALSE(r.ok());
  ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted);

  std::string dump = service.MetricsText();
  EXPECT_NE(dump.find("magicdb_server_queries_resource_exhausted_total 1"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("magicdb_server_query_memory_bytes count=2"),
            std::string::npos)
      << dump;
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.queries_resource_exhausted, 1);
  EXPECT_EQ(stats.active_queries, 0);
  EXPECT_EQ(stats.used_gang_slots, 0);
}

TEST(QueryServiceTest, ReoptimizationSurfacesInStatsAndResult) {
  // Fact.a == Fact.b on every row: the independence assumption puts the
  // filtered Fact at ~1% when ~10% qualifies, so the hash-join build above
  // it observes a ~10x q-error. Dim listed first keeps Fact on the build
  // side.
  Database db;
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Fact (k INT, a INT, b INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Dim (k INT, tag INT)"));
  std::vector<Tuple> facts, dims;
  for (int i = 0; i < 4000; ++i) {
    facts.push_back({Value::Int64(i % 30), Value::Int64(i % 10),
                     Value::Int64(i % 10)});
  }
  for (int k = 0; k < 30; ++k) {
    dims.push_back({Value::Int64(k), Value::Int64(k * 7)});
  }
  MAGICDB_CHECK_OK(db.LoadRows("Fact", std::move(facts)));
  MAGICDB_CHECK_OK(db.LoadRows("Dim", std::move(dims)));
  MAGICDB_CHECK_OK(db.catalog()->AnalyzeAll());
  const char* sql =
      "SELECT F.k, D.tag FROM Dim D, Fact F "
      "WHERE F.k = D.k AND F.a < 1 AND F.b < 1";

  QueryServiceOptions so;
  so.pool_threads = 4;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  ExecOptions off;
  off.reoptimize_qerror_threshold = 0.0;  // immune to the env-var sweep
  auto plain = session->Query(sql, off);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->reoptimizations, 0);

  ExecOptions adaptive;
  adaptive.reoptimize_qerror_threshold = 2.0;
  auto seq = session->Query(sql, adaptive);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_GE(seq->reoptimizations, 1);
  ASSERT_EQ(seq->rows.size(), plain->rows.size());
  EXPECT_FALSE(seq->feedback.empty());

  ExecOptions parallel = adaptive;
  parallel.dop = 4;
  auto par = session->Query(sql, parallel);
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_GE(par->reoptimizations, 1);
  ExpectRowsIdentical(par->rows, seq->rows);

  // A dop-4 query that falls back to sequential (LIMIT, or a Sort the gang
  // cannot run) re-plans exactly as Database::Run does: same number of
  // re-plans, same final plan, same rows and counters.
  int64_t fallback_replans = 0;
  for (const std::string& variant :
       {std::string(sql) + " LIMIT 100000", std::string(sql) + " ORDER BY k"}) {
    SCOPED_TRACE(variant);
    auto embedded = db.Run(variant, parallel);
    ASSERT_TRUE(embedded.ok()) << embedded.status().ToString();
    auto served = session->Query(variant, parallel);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_GE(embedded->reoptimizations, 1);
    EXPECT_EQ(served->reoptimizations, embedded->reoptimizations);
    EXPECT_EQ(served->explain, embedded->explain);
    EXPECT_EQ(served->used_dop, 1);
    EXPECT_EQ(served->parallel_fallback_reason,
              embedded->parallel_fallback_reason);
    ExpectRowsIdentical(served->rows, embedded->rows);
    ExpectCountersEqual(served->counters, embedded->counters);
    fallback_replans += served->reoptimizations;
  }

  ServiceStats stats = service.StatsSnapshot();
  EXPECT_GE(stats.reoptimizations, 2);
  EXPECT_EQ(stats.reoptimizations,
            seq->reoptimizations + par->reoptimizations + fallback_replans);
  // The trigger site is the metric's reason label.
  EXPECT_GT(stats.reoptimization_reasons.count("hash_join_build"), 0u)
      << stats.ToString();
  // Plan-cache traffic is attributed to the join-order backend in use.
  int64_t dp_cache_traffic = 0;
  for (const auto& [backend, n] : stats.plan_cache_hits_by_backend) {
    if (backend == "dp") dp_cache_traffic += n;
  }
  for (const auto& [backend, n] : stats.plan_cache_misses_by_backend) {
    if (backend == "dp") dp_cache_traffic += n;
  }
  EXPECT_EQ(dp_cache_traffic,
            stats.plan_cache_hits + stats.plan_cache_misses);

  std::string dump = service.MetricsText();
  EXPECT_NE(dump.find("magicdb_server_reoptimizations_total{reason="),
            std::string::npos)
      << dump;
}

}  // namespace
}  // namespace magicdb
