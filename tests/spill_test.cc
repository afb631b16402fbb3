// Out-of-core execution: the spill subsystem end to end.
//
// The contract under test: a governed query whose retained state exceeds
// memory_limit_bytes completes by spilling (Grace hash join, hybrid hash
// aggregation, external merge sort) with rows
// byte-identical to an ungoverned run at any DoP, while the MemoryTracker
// peak stays at or under the limit and the magicdb_spill_* counters record
// the I/O. Without a spill area — or with ExecOptions::allow_spill=false —
// the same queries keep failing fast with kResourceExhausted.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "src/exec/exec_context.h"
#include "src/server/query_service.h"
#include "src/server/session.h"
#include "src/spill/row_serde.h"
#include "src/spill/sorted_runs.h"
#include "src/spill/spill_manager.h"
#include "src/spill/spill_partition_set.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

// ----- serialization primitives -----

TEST(RowSerdeTest, ValueRoundTripPreservesVariant) {
  const Value values[] = {Value::Null(), Value::Bool(true),
                          Value::Bool(false), Value::Int64(-42),
                          Value::Int64(int64_t{1} << 60), Value::Double(2.5),
                          Value::Double(-0.0), Value::String(""),
                          Value::String(std::string("spill\0bin", 9))};
  std::string buf;
  for (const Value& v : values) spill::AppendValue(&buf, v);
  spill::RecordReader reader(buf.data(), buf.size());
  for (const Value& expected : values) {
    Value got;
    ASSERT_TRUE(reader.ReadValue(&got).ok());
    EXPECT_EQ(got.Compare(expected), 0);
    EXPECT_EQ(got.is_null(), expected.is_null());
  }
  EXPECT_TRUE(reader.done());
}

TEST(RowSerdeTest, TupleRoundTripIsExact) {
  const Tuple t = {Value::Int64(7), Value::Null(), Value::Double(3.25),
                   Value::String("dept")};
  std::string buf;
  spill::AppendTuple(&buf, t);
  spill::RecordReader reader(buf.data(), buf.size());
  Tuple got;
  ASSERT_TRUE(reader.ReadTuple(&got).ok());
  ASSERT_EQ(got.size(), t.size());
  EXPECT_EQ(CompareTuples(got, t), 0);
  EXPECT_TRUE(got[1].is_null());
}

TEST(RowSerdeTest, StagedGroupRoundTripKeepsRankAndStates) {
  StagedGroup g;
  g.pos = 123;
  g.sub = 4;
  g.hash = 0xdeadbeefcafeULL;
  g.key = {Value::Int64(9)};
  AggState st;
  st.count = 5;
  st.sum = 12.5;
  st.isum = 12;
  st.int_sum = false;
  st.min = Value::Int64(1);
  st.max = Value::Int64(9);
  g.states = {st, AggState{}};

  std::string buf;
  spill::AppendStagedGroup(&buf, g);
  spill::RecordReader reader(buf.data(), buf.size());
  StagedGroup got;
  ASSERT_TRUE(reader.ReadStagedGroup(&got).ok());
  EXPECT_EQ(got.pos, g.pos);
  EXPECT_EQ(got.sub, g.sub);
  EXPECT_EQ(got.hash, g.hash);
  EXPECT_EQ(CompareTuples(got.key, g.key), 0);
  ASSERT_EQ(got.states.size(), 2u);
  EXPECT_EQ(got.states[0].count, 5);
  EXPECT_DOUBLE_EQ(got.states[0].sum, 12.5);
  EXPECT_EQ(got.states[0].isum, 12);
  EXPECT_FALSE(got.states[0].int_sum);
  EXPECT_EQ(got.states[0].min.Compare(st.min), 0);
  EXPECT_EQ(got.states[0].max.Compare(st.max), 0);
  EXPECT_EQ(got.states[1].count, 0);
  EXPECT_TRUE(got.states[1].min.is_null());
}

TEST(RowSerdeTest, TruncatedBufferSurfacesStatusNotUB) {
  std::string buf;
  spill::AppendTuple(&buf, {Value::String("long enough to truncate")});
  for (size_t len = 0; len < buf.size(); ++len) {
    spill::RecordReader reader(buf.data(), len);
    Tuple got;
    EXPECT_FALSE(reader.ReadTuple(&got).ok()) << "len=" << len;
  }
}

TEST(SpillPartitionTest, RouterRedistributesAcrossDepths) {
  // The same set of hashes must not all land in one child at the next
  // depth — the property that makes recursive partitioning converge.
  Random rng(99);
  std::vector<uint64_t> hashes;
  for (int i = 0; i < 512; ++i) {
    hashes.push_back(static_cast<uint64_t>(rng.UniformInt(0, 1 << 30)) * 2654435761ULL);
  }
  for (int depth = 0; depth < 4; ++depth) {
    std::vector<int> counts(8, 0);
    for (uint64_t h : hashes) {
      const uint64_t p = SpillPartitionOf(h, depth, 8);
      ASSERT_LT(p, 8u);
      counts[p]++;
    }
    for (int c : counts) EXPECT_LT(c, 512) << "depth " << depth;
  }
}

// ----- sorted runs and the partitioner -----

// Rows ordered by `key` alone, so equal keys expose how the merge breaks
// ties; `tag` names each row.
struct KeyTag {
  int64_t key = 0;
  int64_t tag = 0;
};

struct KeyTagCodec {
  using Row = KeyTag;
  void Encode(const KeyTag& r, std::string* out) const {
    spill::AppendI64(out, r.key);
    spill::AppendI64(out, r.tag);
  }
  Status Decode(std::string_view record, KeyTag* r) const {
    spill::RecordReader reader(record.data(), record.size());
    MAGICDB_RETURN_IF_ERROR(reader.ReadI64(&r->key));
    return reader.ReadI64(&r->tag);
  }
  bool Less(const KeyTag& a, const KeyTag& b) const { return a.key < b.key; }
};

// The smallest spill batch: 256-byte frames, so a set reserves 8 x 256.
std::shared_ptr<SpillManager> MakeTestSpillManager(const std::string& dir) {
  SpillConfig config;
  config.dir = dir;
  config.batch_bytes = 256;
  return std::make_shared<SpillManager>(config);
}

std::unique_ptr<SpillFile> FileRun(SpillManager* mgr,
                                   const std::vector<KeyTag>& rows,
                                   ExecContext* ctx) {
  RunWriter<KeyTagCodec> writer(mgr, "test-run");
  for (const KeyTag& r : rows) MAGICDB_CHECK_OK(writer.Append(r, ctx));
  StatusOr<std::unique_ptr<SpillFile>> file = writer.FinishWrite(ctx);
  MAGICDB_CHECK(file.ok());
  return std::move(*file);
}

std::vector<int64_t> DrainTags(RunMerge<KeyTagCodec>* merge) {
  std::vector<int64_t> tags;
  while (true) {
    KeyTag row;
    bool has = false;
    MAGICDB_CHECK_OK(merge->Next(&row, &has));
    if (!has) return tags;
    tags.push_back(row.tag);
  }
}

TEST(SortedRunsTest, MergeBreaksTiesByRunIndexThenFifo) {
  const testutil::ScopedTempDir dir("spill");
  auto mgr = MakeTestSpillManager(dir.path());
  RunMerge<KeyTagCodec> merge;
  merge.Add(FileRun(mgr.get(), {{1, 10}, {3, 11}, {3, 12}, {5, 13}}, nullptr));
  merge.Add(FileRun(mgr.get(), {{0, 20}, {3, 21}, {5, 22}}, nullptr));
  merge.Add(FileRun(mgr.get(), {}, nullptr));
  ASSERT_TRUE(merge.Open(nullptr).ok());
  EXPECT_EQ(DrainTags(&merge),
            (std::vector<int64_t>{20, 10, 11, 12, 21, 13, 22}));
}

TEST(SortedRunsTest, OpenReservesOneFramePerFileRun) {
  const testutil::ScopedTempDir dir("spill");
  auto mgr = MakeTestSpillManager(dir.path());
  auto tracker = std::make_shared<MemoryTracker>(0);
  ExecContext ctx;
  ctx.set_memory_tracker(tracker);
  ctx.set_spill_manager(mgr);
  RunMerge<KeyTagCodec> merge;
  merge.Add(FileRun(mgr.get(), {{1, 1}, {4, 4}}, nullptr));
  merge.Add(FileRun(mgr.get(), {{2, 2}}, nullptr));
  merge.Add(FileRun(mgr.get(), {{3, 3}}, nullptr));
  ASSERT_TRUE(merge.Open(&ctx).ok());
  EXPECT_EQ(tracker->used_bytes(), 3 * 256);
  EXPECT_EQ(DrainTags(&merge), (std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(tracker->used_bytes(), 0);
  EXPECT_GT(ctx.counters().spill_bytes_read, 0);
}

TEST(SortedRunsTest, NullContextMergeChargesNothing) {
  const testutil::ScopedTempDir dir("spill");
  auto mgr = MakeTestSpillManager(dir.path());
  auto tracker = std::make_shared<MemoryTracker>(0);
  ExecContext ctx;
  ctx.set_memory_tracker(tracker);
  ctx.set_spill_manager(mgr);
  RunMerge<KeyTagCodec> merge;
  merge.Add(FileRun(mgr.get(), {{1, 1}, {3, 3}}, &ctx));
  merge.Add(FileRun(mgr.get(), {{2, 2}}, &ctx));
  const CostCounters written = ctx.counters();
  ASSERT_GT(written.spill_bytes_written, 0);
  ASSERT_TRUE(merge.Open(nullptr).ok());
  EXPECT_EQ(DrainTags(&merge), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_GT(mgr->bytes_read(), 0);
  EXPECT_EQ(tracker->peak_bytes(), 0);
  EXPECT_EQ(ctx.counters().pages_read, written.pages_read);
  EXPECT_EQ(ctx.counters().spill_bytes_read, written.spill_bytes_read);
  EXPECT_EQ(ctx.counters().TotalCost(), written.TotalCost());
}

// A partitioned record: its hash first, then a tag.
std::string HashRecord(uint64_t hash, int64_t tag) {
  std::string record;
  spill::AppendU64(&record, hash);
  spill::AppendI64(&record, tag);
  return record;
}

TEST(SpillPartitionTest, LaterInputsDropRecordsOfDeadPartitions) {
  const testutil::ScopedTempDir dir("spill");
  auto mgr = MakeTestSpillManager(dir.path());
  ExecContext ctx;
  SpillPartitioner parts(mgr.get(), {"in0", "in1"});
  ASSERT_TRUE(parts.input(0).Reserve(&ctx).ok());
  ASSERT_TRUE(parts.input(1).Reserve(&ctx).ok());
  // Input 0 fills one partition; input 1 also sends records to another.
  const int live = parts.input(0).PartitionFor(1);
  std::vector<uint64_t> live_hashes, dead_hashes;
  for (uint64_t h = 1; live_hashes.size() < 2 || dead_hashes.size() < 3; ++h) {
    (parts.input(0).PartitionFor(h) == live ? live_hashes : dead_hashes)
        .push_back(h);
  }
  for (uint64_t h : live_hashes) {
    ASSERT_TRUE(parts.Add(0, h, HashRecord(h, 0), &ctx).ok());
  }
  for (uint64_t h : live_hashes) {
    ASSERT_TRUE(parts.Add(1, h, HashRecord(h, 1), &ctx).ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        parts.Add(1, dead_hashes[i], HashRecord(dead_hashes[i], 1), &ctx).ok());
  }
  for (int p = 0; p < parts.input(1).fanout(); ++p) {
    EXPECT_EQ(parts.input(1).records(p), p == live ? 2 : 0)
        << "partition " << p;
  }

  int leaves = 0;
  ASSERT_TRUE(parts
                  .Run(&ctx,
                       [&](const SpillPartitioner::Leaf& leaf, bool*) {
                         ++leaves;
                         EXPECT_EQ(leaf.depth, 0);
                         EXPECT_EQ(leaf.files[0]->records(), 2);
                         EXPECT_EQ(leaf.files[1]->records(), 2);
                         return Status::OK();
                       })
                  .ok());
  EXPECT_EQ(leaves, 1);
}

TEST(SpillPartitionTest, SplitReservesAfterTheLeafReleases) {
  const testutil::ScopedTempDir dir("spill");
  auto mgr = MakeTestSpillManager(dir.path());
  const int64_t set_bytes = 8 * 256;
  const int64_t leaf_bytes = 1024;
  // Room for a set's write buffers or a leaf's frames, not for both.
  auto tracker = std::make_shared<MemoryTracker>(set_bytes + leaf_bytes / 2);
  ExecContext ctx;
  ctx.set_memory_tracker(tracker);
  SpillPartitioner parts(mgr.get(), {"in0"});
  ASSERT_TRUE(parts.input(0).Reserve(&ctx).ok());
  for (uint64_t h = 0; h < 64; ++h) {
    ASSERT_TRUE(parts.Add(0, h * 0x9e3779b97f4a7c15ULL, HashRecord(h, 0), &ctx)
                    .ok());
  }
  int64_t depth1_records = 0;
  Status st = parts.Run(&ctx, [&](const SpillPartitioner::Leaf& leaf,
                                  bool* split) {
    SpillReservation frames;
    MAGICDB_RETURN_IF_ERROR(frames.Acquire(&ctx, leaf_bytes));
    if (leaf.depth == 0) {
      *split = true;
    } else {
      depth1_records += leaf.files[0]->records();
    }
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(depth1_records, 64);
  EXPECT_EQ(tracker->peak_bytes(), set_bytes);
  EXPECT_EQ(tracker->used_bytes(), 0);
}

// ----- shared workload -----

void MakeSpillWorkload(Database* db_out) {
  Database& db = *db_out;
  MAGICDB_CHECK_OK(
      db.Execute("CREATE TABLE Fact (k INT, grp INT, v DOUBLE, pad INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Dim (k INT, w DOUBLE)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Skew (c INT, u DOUBLE)"));
  Random rng(17);
  std::vector<Tuple> fact, dim, skew;
  for (int i = 0; i < 4000; ++i) {
    fact.push_back({Value::Int64(i % 1000), Value::Int64(i % 37),
                    Value::Double(rng.NextDouble() * 1e6),
                    Value::Int64(rng.UniformInt(0, 1 << 20))});
    dim.push_back({Value::Int64(i % 1000), Value::Double(i * 0.5)});
  }
  // One giant duplicate key: the build-side shape recursion cannot split.
  for (int i = 0; i < 2000; ++i) {
    skew.push_back({Value::Int64(7), Value::Double(i * 1.0)});
  }
  MAGICDB_CHECK_OK(db.LoadRows("Fact", std::move(fact)));
  MAGICDB_CHECK_OK(db.LoadRows("Dim", std::move(dim)));
  MAGICDB_CHECK_OK(db.LoadRows("Skew", std::move(skew)));
  OptimizerOptions* opts = db.mutable_optimizer_options();
  opts->enable_nested_loops = false;
  opts->enable_index_nested_loops = false;
  opts->enable_sort_merge = false;
}

// Each of the first three shapes retains far more state than the tiny
// limits below allow: a ~64 KB hash-join build, ~1000 aggregate groups and
// a full-input sort. The 4000-row scan retains nothing but its unfetched
// result, which the cursor's queue bounds at any dop.
const char* kSpillJoinQuery =
    "SELECT F.k, F.v, D.w FROM Fact F, Dim D WHERE F.k = D.k";
const char* kSpillAggQuery =
    "SELECT F.k, COUNT(*) AS c, AVG(F.v) AS a FROM Fact F GROUP BY F.k";
const char* kSpillSortQuery =
    "SELECT F.k, F.v FROM Fact F ORDER BY v DESC, k";
const char* kSpillScanQuery = "SELECT F.k, F.grp, F.v FROM Fact F "
                              "WHERE F.pad >= 0";
const char* kSkewJoinQuery =
    "SELECT F.grp, S.u FROM Fact F, Skew S WHERE F.grp = S.c";

constexpr int64_t kTinyLimit = 48 * 1024;

QueryServiceOptions SpillServiceOptions(const std::string& dir) {
  QueryServiceOptions so;
  so.pool_threads = 4;
  so.spill_dir = dir;
  so.spill_batch_bytes = 1024;
  // Small quanta + queues keep the streamed-result charge well under the
  // tiny per-query limits (the sink cannot spill; only operators can).
  so.scheduler_quantum_rows = 128;
  so.stream_queue_rows = 256;
  return so;
}

void ExpectRowsIdentical(const std::vector<Tuple>& a,
                         const std::vector<Tuple>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(CompareTuples(a[i], b[i]), 0) << "row " << i << " differs";
  }
}

// ----- the acceptance matrix -----

TEST(SpillExecutionTest, JoinAggSortCompleteUnderTinyLimitAtAnyDop) {
  Database db;
  MakeSpillWorkload(&db);
  const testutil::ScopedTempDir dir("spill");
  QueryService service(&db, SpillServiceOptions(dir.path()));
  std::unique_ptr<Session> session = service.CreateSession();

  // The pure scan is exercised separately: it retains no state and
  // correctly never spills, at dop=1 or at dop=4.
  for (const char* query :
       {kSpillJoinQuery, kSpillAggQuery, kSpillSortQuery}) {
    SCOPED_TRACE(query);
    // Ungoverned reference.
    auto baseline = session->Query(query);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ASSERT_FALSE(baseline->rows.empty());

    for (int dop : {1, 4}) {
      SCOPED_TRACE("dop=" + std::to_string(dop));
      ExecOptions exec;
      exec.dop = dop;
      exec.memory_limit_bytes = kTinyLimit;
      auto governed = session->Query(query, exec);
      ASSERT_TRUE(governed.ok()) << governed.status().ToString();
      ExpectRowsIdentical(governed->rows, baseline->rows);
      EXPECT_GT(governed->counters.spill_bytes_written, 0);
      EXPECT_GT(governed->counters.spill_bytes_read, 0);
    }
  }

  ServiceStats stats = service.StatsSnapshot();
  EXPECT_GT(stats.spill_bytes_written, 0);
  EXPECT_GT(stats.spill_bytes_read, 0);
  EXPECT_GT(stats.spill_files_created, 0);
  EXPECT_GT(stats.spilled_queries, 0);
  EXPECT_EQ(stats.active_queries, 0);
  EXPECT_EQ(stats.used_gang_slots, 0);
  const std::string metrics = service.MetricsText();
  EXPECT_NE(metrics.find("magicdb_spill_bytes_written_total"),
            std::string::npos);
  EXPECT_TRUE(dir.empty());  // every spill file is unlinked by now
}

TEST(SpillExecutionTest, PeakStaysUnderLimitWhileSpilling) {
  Database db;
  MakeSpillWorkload(&db);
  const testutil::ScopedTempDir dir("spill");
  QueryService service(&db, SpillServiceOptions(dir.path()));
  std::unique_ptr<Session> session = service.CreateSession();

  for (const char* query : {kSpillJoinQuery, kSpillAggQuery, kSpillSortQuery}) {
    SCOPED_TRACE(query);
    ExecOptions exec;
    exec.memory_limit_bytes = kTinyLimit;
    auto cursor = session->Open(query, exec);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    int64_t rows = 0;
    while (true) {
      auto batch = cursor->Fetch(128);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      if (batch->empty()) break;
      rows += static_cast<int64_t>(batch->size());
    }
    EXPECT_GT(rows, 0);
    EXPECT_GT(cursor->counters().spill_bytes_written, 0);
    EXPECT_GT(cursor->memory_peak_bytes(), 0);
    EXPECT_LE(cursor->memory_peak_bytes(), kTinyLimit);
    ASSERT_TRUE(cursor->Close().ok());
  }
}

TEST(SpillExecutionTest, ParallelBreachDegradesToSequentialSpill) {
  Database db;
  MakeSpillWorkload(&db);
  const testutil::ScopedTempDir dir("spill");
  QueryService service(&db, SpillServiceOptions(dir.path()));
  std::unique_ptr<Session> session = service.CreateSession();

  auto baseline = session->Query(kSpillJoinQuery);
  ASSERT_TRUE(baseline.ok());

  ExecOptions exec;
  exec.dop = 4;
  exec.memory_limit_bytes = kTinyLimit;
  auto governed = session->Query(kSpillJoinQuery, exec);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  ExpectRowsIdentical(governed->rows, baseline->rows);
  // The shared hash build cannot spill, so the gang's breach degrades the
  // query to the sequential out-of-core path — visible in the fallback
  // accounting, not in the results.
  EXPECT_EQ(governed->used_dop, 1);
  EXPECT_NE(governed->parallel_fallback_reason.find("memory pressure"),
            std::string::npos)
      << governed->parallel_fallback_reason;
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_GE(stats.parallel_fallbacks, 1);
  EXPECT_EQ(stats.used_gang_slots, 0);
}

TEST(SpillExecutionTest, ParallelScanStreamsUnderTinyLimitWithoutSpilling) {
  Database db;
  MakeSpillWorkload(&db);
  const testutil::ScopedTempDir dir("spill");
  QueryService service(&db, SpillServiceOptions(dir.path()));
  std::unique_ptr<Session> session = service.CreateSession();

  ExecOptions wide;
  wide.dop = 4;
  auto baseline = session->Query(kSpillScanQuery, wide);
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->used_dop, 4);

  ExecOptions governed = wide;
  governed.memory_limit_bytes = kTinyLimit;
  auto cursor = session->Open(kSpillScanQuery, governed);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::vector<Tuple> rows;
  while (true) {
    auto batch = cursor->Fetch(128);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (batch->empty()) break;
    for (Tuple& t : *batch) rows.push_back(std::move(t));
  }
  // The workers stream their rows through the sink's lanes, which bound the
  // result memory: nothing is staged, so nothing spills, and the query
  // keeps its parallelism.
  EXPECT_EQ(cursor->used_dop(), 4);
  ExpectRowsIdentical(rows, baseline->rows);
  EXPECT_EQ(cursor->counters().spill_bytes_written, 0);
  EXPECT_GT(cursor->memory_peak_bytes(), 0);
  EXPECT_LE(cursor->memory_peak_bytes(), kTinyLimit);
  ASSERT_TRUE(cursor->Close().ok());
}

// ----- opting out -----

TEST(SpillExecutionTest, AllowSpillFalseKeepsVerbatimResourceExhausted) {
  Database db;
  MakeSpillWorkload(&db);

  // Reference failure from a service with no spill area at all.
  Status no_spill_area;
  {
    QueryServiceOptions so;
    so.pool_threads = 2;
    QueryService service(&db, so);
    std::unique_ptr<Session> session = service.CreateSession();
    ExecOptions exec;
    exec.memory_limit_bytes = kTinyLimit;
    // Robust against a spill area injected via MAGICDB_TEST_SPILL_DIR
    // (the chaos build): the reference must stay a hard failure.
    exec.allow_spill = false;
    auto r = session->Query(kSpillAggQuery, exec);
    ASSERT_FALSE(r.ok());
    no_spill_area = r.status();
    EXPECT_EQ(no_spill_area.code(), StatusCode::kResourceExhausted);
  }

  // Same failure — same code, same message — when a spill area exists but
  // the query opted out.
  const testutil::ScopedTempDir dir("spill");
  QueryService service(&db, SpillServiceOptions(dir.path()));
  std::unique_ptr<Session> session = service.CreateSession();
  for (int dop : {1, 4}) {
    SCOPED_TRACE("dop=" + std::to_string(dop));
    ExecOptions exec;
    exec.dop = dop;
    exec.memory_limit_bytes = kTinyLimit;
    exec.allow_spill = false;
    auto r = session->Query(kSpillAggQuery, exec);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(r.status().ToString(), no_spill_area.ToString());
  }
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.spilled_queries, 0);
  EXPECT_EQ(stats.spill_bytes_written, 0);
  EXPECT_EQ(stats.active_queries, 0);
}

// ----- governor boundary semantics -----

TEST(SpillExecutionTest, LimitExactlyAtPeakSucceedsWithoutSpilling) {
  Database db;
  MakeSpillWorkload(&db);
  // Below the COUNT(*), the view's streaming DISTINCT charges each new row
  // while the aggregate above it holds its one group: two operators charge
  // the tracker in the same pipeline.
  MAGICDB_CHECK_OK(db.Execute(
      "CREATE VIEW DistinctFact AS SELECT DISTINCT F.k, F.v FROM Fact F"));
  QueryServiceOptions so;
  so.pool_threads = 2;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  auto drain = [&](const char* query, int64_t batch_size, int64_t limit,
                   int64_t* peak) -> Status {
    ExecOptions exec;
    exec.memory_limit_bytes = limit;
    exec.batch_size = batch_size;
    // The boundary semantics under test are the hard-failure ones, even
    // when the chaos build injects a spill area via MAGICDB_TEST_SPILL_DIR.
    exec.allow_spill = false;
    auto cursor = session->Open(query, exec);
    if (!cursor.ok()) return cursor.status();
    while (true) {
      auto batch = cursor->Fetch(512);
      if (!batch.ok()) {
        cursor->Close();
        return batch.status();
      }
      if (batch->empty()) break;
    }
    *peak = cursor->memory_peak_bytes();
    return cursor->Close();
  };

  // Sequential execution is deterministic, so a rerun with the limit set to
  // the observed peak charges exactly the same bytes — and a limit equal to
  // the peak must succeed (the governor rejects only charges that would
  // exceed the limit).
  for (const char* query :
       {kSpillAggQuery, "SELECT COUNT(*) AS c FROM DistinctFact D"}) {
    for (int64_t batch : {1, 7, 1024}) {
      SCOPED_TRACE(std::string(query) + " batch=" + std::to_string(batch));
      int64_t peak = 0;
      ASSERT_TRUE(drain(query, batch, 256 * 1024 * 1024, &peak).ok());
      ASSERT_GT(peak, 0);
      int64_t rerun_peak = 0;
      Status at_peak = drain(query, batch, peak, &rerun_peak);
      ASSERT_TRUE(at_peak.ok()) << at_peak.ToString();
      EXPECT_EQ(rerun_peak, peak);
      // One byte less must fail.
      int64_t unused = 0;
      Status below = drain(query, batch, peak - 1, &unused);
      ASSERT_FALSE(below.ok());
      EXPECT_EQ(below.code(), StatusCode::kResourceExhausted);
    }
  }
}

// A finished in-memory sort holds only its rows: it releases the key
// tuples when it drops them and each row's bytes as the row is emitted, so
// the rows move into the result queue instead of being counted twice. A
// limit between rows+keys and rows+keys plus one scheduler quantum of
// queued rows therefore completes, without spilling.
TEST(SpillExecutionTest, SortReleasesKeysAndEmittedRows) {
  Database db;
  MakeSpillWorkload(&db);
  const testutil::ScopedTempDir dir("spill");
  QueryServiceOptions so;  // the default 1024-row scheduler quantum
  so.pool_threads = 2;
  so.spill_dir = dir.path();
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();
  ExecOptions ungoverned;
  ungoverned.memory_limit_bytes = -1;
  auto reference = session->Query(kSpillSortQuery, ungoverned);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->rows.size(), 4000u);
  int64_t row_bytes = 0;
  for (const Tuple& t : reference->rows) row_bytes += TupleByteWidth(t);
  // The sort keys (v, k) are the projected row's own values, so the key
  // tuples weigh exactly as much as the rows.
  const int64_t rows_and_keys = 2 * row_bytes;
  const int64_t quantum_bytes =
      so.scheduler_quantum_rows * row_bytes /
      static_cast<int64_t>(reference->rows.size());
  ExecOptions exec;
  exec.memory_limit_bytes = rows_and_keys + quantum_bytes / 2;
  auto result = session->Query(kSpillSortQuery, exec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectRowsIdentical(result->rows, reference->rows);
}

// Once the sort has spilled, its last buffer spills too: nothing it
// buffered stays charged through the merge, where the result sink charges
// its first batch against the same limit.
TEST(SpillExecutionTest, SpilledSortHoldsNoBufferThroughTheMerge) {
  Database db;
  MakeSpillWorkload(&db);
  const testutil::ScopedTempDir dir("spill");
  QueryService service(&db, SpillServiceOptions(dir.path()));
  std::unique_ptr<Session> session = service.CreateSession();
  ExecOptions ungoverned;
  ungoverned.memory_limit_bytes = -1;
  auto reference = session->Query(kSpillSortQuery, ungoverned);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (int64_t kib : {16, 32, 64}) {
    SCOPED_TRACE(std::to_string(kib) + " KiB");
    ExecOptions exec;
    exec.memory_limit_bytes = kib * 1024;
    auto result = session->Query(kSpillSortQuery, exec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectRowsIdentical(result->rows, reference->rows);
    EXPECT_GT(result->counters.spill_bytes_written, 0);
  }
}

TEST(SpillExecutionTest, ZeroRowInputsSucceedUnderMinimalLimit) {
  Database db;
  MakeSpillWorkload(&db);
  const testutil::ScopedTempDir dir("spill");
  QueryService service(&db, SpillServiceOptions(dir.path()));
  std::unique_ptr<Session> session = service.CreateSession();

  // Every operator shape, but the predicate filters out every row before
  // any state is retained: nothing to charge, nothing to spill.
  const char* zero_row_queries[] = {
      "SELECT F.k, F.v, D.w FROM Fact F, Dim D "
      "WHERE F.k = D.k AND F.pad < 0 AND D.w < 0",
      "SELECT F.k, COUNT(*) AS c FROM Fact F WHERE F.pad < 0 GROUP BY F.k",
      "SELECT F.k FROM Fact F WHERE F.pad < 0 ORDER BY k",
  };
  for (const char* query : zero_row_queries) {
    SCOPED_TRACE(query);
    ExecOptions exec;
    exec.memory_limit_bytes = 512;
    auto r = session->Query(query, exec);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->rows.empty());
    EXPECT_EQ(r->counters.spill_bytes_written, 0);
  }
}

// ----- recursive partitioning -----

TEST(SpillExecutionTest, RecursiveRepartitioningSplitsOversizedPartitions) {
  Database db;
  MakeSpillWorkload(&db);
  // A unique-key self join with a ~768 KB build side: against a 48 KB
  // limit, every depth-0 partition (~96 KB) is itself over the in-memory
  // headroom and must be re-split at depth 1 (~12 KB) before it fits. The
  // depth recorded by the partition sets proves the recursive path ran —
  // the initial Grace split is depth 0.
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Big (k INT, u INT)"));
  std::vector<Tuple> big;
  for (int i = 0; i < 49152; ++i) {
    big.push_back({Value::Int64(i % 4000), Value::Int64(i)});
  }
  MAGICDB_CHECK_OK(db.LoadRows("Big", std::move(big)));

  const testutil::ScopedTempDir dir("spill");
  QueryServiceOptions so = SpillServiceOptions(dir.path());
  // Small write buffers keep the leaf-run merge frames (one per output
  // run) comfortably inside the limit even with 64 depth-1 partitions.
  so.spill_batch_bytes = 256;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  const char* query = "SELECT B.k, C.u FROM Big B, Big C WHERE B.u = C.u";
  auto baseline = session->Query(query);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->rows.size(), 49152u);

  ExecOptions exec;
  exec.memory_limit_bytes = kTinyLimit;
  auto governed = session->Query(query, exec);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  ExpectRowsIdentical(governed->rows, baseline->rows);
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_GE(stats.spill_recursion_depth_max, 1) << stats.ToString();
  EXPECT_GT(stats.spill_partitions_opened, 8) << stats.ToString();
}

TEST(SpillExecutionTest, SingleGiantKeyExhaustsRecursionAndFailsCleanly) {
  Database db;
  MakeSpillWorkload(&db);
  const testutil::ScopedTempDir dir("spill");
  QueryServiceOptions so = SpillServiceOptions(dir.path());
  // Small write buffers: the limit below must leave room for the
  // repartitioning machinery itself, so the failure comes from the
  // recursion bound rather than an unfittable buffer reservation.
  so.spill_batch_bytes = 256;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  // Every Skew row hashes identically, so recursive partitioning can never
  // shrink the oversized partition; the recursion bound turns an infinite
  // regress into a clean kResourceExhausted.
  ExecOptions exec;
  exec.memory_limit_bytes = 12 * 1024;
  auto r = session->Query(kSkewJoinQuery, exec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("recursion depth"), std::string::npos)
      << r.status().ToString();

  // The failure is clean: no leaked admission state, and the same query
  // still succeeds ungoverned on the same service.
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.active_queries, 0);
  EXPECT_EQ(stats.used_gang_slots, 0);
  auto ok = session->Query(kSkewJoinQuery);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FALSE(ok->rows.empty());
}

#ifdef MAGICDB_FAILPOINTS

// ----- fault injection on the spill I/O path -----

TEST(SpillChaosTest, FaultsAtSpillSitesFailQueryButLeakNothing) {
  Database db;
  MakeSpillWorkload(&db);
  const testutil::ScopedTempDir dir("spill");
  QueryService service(&db, SpillServiceOptions(dir.path()));
  std::unique_ptr<Session> session = service.CreateSession();

  auto baseline = session->Query(kSpillJoinQuery);
  ASSERT_TRUE(baseline.ok());

  const char* kSpillSites[] = {"spill.write", "spill.read",
                               "spill.partition.open"};
  for (const char* site : kSpillSites) {
    SCOPED_TRACE(site);
    const std::string msg = std::string("chaos: ") + site;
    FailpointConfig config;
    config.inject = Status::Internal(msg);
    config.fire_from_hit = 3;  // let some I/O succeed first
    {
      ScopedFailpoint armed(site, config);
      for (const char* query :
           {kSpillJoinQuery, kSpillAggQuery, kSpillSortQuery}) {
        ExecOptions exec;
        exec.memory_limit_bytes = kTinyLimit;
        auto r = session->Query(query, exec);
        if (!r.ok()) {
          EXPECT_NE(r.status().ToString().find(msg), std::string::npos)
              << query << ": " << r.status().ToString();
        }
      }
    }
    EXPECT_GT(FailpointRegistry::Instance().Site(site)->hits(), 0)
        << site << " was never executed";

    ServiceStats stats = service.StatsSnapshot();
    EXPECT_EQ(stats.active_queries, 0);
    EXPECT_EQ(stats.used_gang_slots, 0);
    EXPECT_EQ(stats.open_cursors, 0);

    // Disarmed, the same spilling query works again — and the fault did
    // not strand temp files that block a later cleanup.
    ExecOptions exec;
    exec.memory_limit_bytes = kTinyLimit;
    auto after = session->Query(kSpillJoinQuery, exec);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    ExpectRowsIdentical(after->rows, baseline->rows);
  }
}

// ----- fault injection on the catalog-mutation path -----

TEST(DdlChaosTest, FaultedDdlLeavesCatalogConsistent) {
  Database db;
  MakeSpillWorkload(&db);
  QueryServiceOptions so;
  so.pool_threads = 2;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  auto baseline = session->Query(kSpillJoinQuery);
  ASSERT_TRUE(baseline.ok());

  struct Case {
    const char* site;
    const char* ddl;
  };
  const Case kCases[] = {
      {"server.ddl.execute", "CREATE TABLE Chaos1 (a INT)"},
      {"db.ddl.create_table", "CREATE TABLE Chaos2 (a INT)"},
      {"db.ddl.create_view",
       "CREATE VIEW ChaosV AS SELECT F.k FROM Fact F WHERE F.pad > 0"},
      {"catalog.ddl.epoch_bump", "CREATE TABLE Chaos3 (a INT)"},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.site);
    const int64_t epoch_before = db.catalog()->ddl_epoch();
    const std::string msg = std::string("chaos: ") + c.site;
    FailpointConfig config;
    config.inject = Status::Internal(msg);
    {
      ScopedFailpoint armed(c.site, config);
      Status s = service.Execute(c.ddl);
      ASSERT_FALSE(s.ok());
      EXPECT_NE(s.ToString().find(msg), std::string::npos) << s.ToString();
    }
    // The fault must have been all-or-nothing: no epoch bump, no
    // half-registered object, and cached plans still valid.
    EXPECT_EQ(db.catalog()->ddl_epoch(), epoch_before);
    auto again = session->Query(kSpillJoinQuery);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ExpectRowsIdentical(again->rows, baseline->rows);

    // Disarmed, the identical DDL succeeds (the name was never taken) and
    // bumps the epoch exactly once.
    MAGICDB_CHECK_OK(service.Execute(c.ddl));
    EXPECT_GT(db.catalog()->ddl_epoch(), epoch_before);
    ServiceStats stats = service.StatsSnapshot();
    EXPECT_EQ(stats.active_queries, 0);
    EXPECT_EQ(stats.used_gang_slots, 0);
    EXPECT_EQ(stats.open_cursors, 0);
  }

  // Queries keep working against the mutated catalog.
  auto after = session->Query(kSpillJoinQuery);
  ASSERT_TRUE(after.ok());
  ExpectRowsIdentical(after->rows, baseline->rows);
}

TEST(DdlChaosTest, EpochStaysMonotoneUnderFaultedDdlChurn) {
  Database db;
  MakeSpillWorkload(&db);
  QueryServiceOptions so;
  so.pool_threads = 2;
  QueryService service(&db, so);

  FailpointConfig config;
  config.inject = Status::Internal("chaos: ddl coinflip");
  config.probability = 0.5;
  config.seed = 11;
  int64_t last_epoch = db.catalog()->ddl_epoch();
  int successes = 0;
  {
    ScopedFailpoint armed(std::string("catalog.ddl.epoch_bump"), config);
    for (int i = 0; i < 20; ++i) {
      const std::string ddl =
          "CREATE TABLE Churn" + std::to_string(i) + " (a INT)";
      const Status s = service.Execute(ddl);
      const int64_t epoch = db.catalog()->ddl_epoch();
      if (s.ok()) {
        EXPECT_EQ(epoch, last_epoch + 1) << "ddl " << i;
        ++successes;
      } else {
        EXPECT_EQ(epoch, last_epoch) << "ddl " << i;
      }
      last_epoch = epoch;
    }
  }
  EXPECT_GT(successes, 0);
  EXPECT_LT(successes, 20);  // the coinflip must have fired at least once
}

#endif  // MAGICDB_FAILPOINTS

}  // namespace
}  // namespace magicdb
