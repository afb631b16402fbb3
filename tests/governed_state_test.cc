// DISTINCT and the sort-merge join retain state, so a governed query
// charges it: over the query's memory limit they fail with
// kResourceExhausted, spill area or not (neither has a spill path), and the
// peak never passes the limit; under it, they return the ungoverned rows.

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/db/database.h"
#include "src/server/query_service.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

constexpr int64_t kRows = 4000;
constexpr int64_t kLimit = 16 * 1024;

// T(v, w) and U(v, x): kRows distinct v each, so DISTINCT T.v keeps every
// row and T ⋈ U on v buffers both inputs (16 bytes a row).
void MakeTables(Database* db) {
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE T (v INT, w INT)"));
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE U (v INT, x INT)"));
  std::vector<Tuple> t, u;
  for (int64_t i = 0; i < kRows; ++i) {
    t.push_back({Value::Int64(i), Value::Int64(i % 7)});
    u.push_back({Value::Int64(kRows - 1 - i), Value::Int64(i % 5)});
  }
  MAGICDB_CHECK_OK(db->LoadRows("T", std::move(t)));
  MAGICDB_CHECK_OK(db->LoadRows("U", std::move(u)));
  MAGICDB_CHECK_OK(db->catalog()->AnalyzeAll());
}

const char* const kDistinctQuery = "SELECT DISTINCT T.v FROM T";
const char* const kJoinQuery =
    "SELECT T.v, T.w, U.x FROM T, U WHERE T.v = U.v";

// Sort-merge is the only join method left.
void SortMergeOnly(OptimizerOptions* o) {
  o->magic_mode = OptimizerOptions::MagicMode::kNever;
  o->enable_nested_loops = false;
  o->enable_index_nested_loops = false;
  o->enable_hash_join = false;
}

// Drains `sql` through a cursor. Returns the first error, the rows and the
// cursor's memory peak (0 when the cursor did not open).
Status Drain(Session* session, const std::string& sql, int64_t limit,
             std::vector<Tuple>* rows, int64_t* peak) {
  *peak = 0;
  ExecOptions exec;
  exec.memory_limit_bytes = limit;
  auto cursor = session->Open(sql, exec);
  if (!cursor.ok()) return cursor.status();
  Status status;
  while (true) {
    auto batch = cursor->Fetch(64);
    if (!batch.ok()) {
      status = batch.status();
      break;
    }
    if (batch->empty()) break;
    rows->insert(rows->end(), batch->begin(), batch->end());
  }
  *peak = cursor->memory_peak_bytes();
  cursor->Close();
  return status;
}

void ExpectRowsIdentical(const std::vector<Tuple>& a,
                         const std::vector<Tuple>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(CompareTuples(a[i], b[i]), 0) << "row " << i << " differs";
  }
}

// `plan_node` is the operator that must hold the state.
void CheckGoverned(const char* sql, const std::string& plan_node,
                   const std::string& spill_dir) {
  Database db;
  MakeTables(&db);
  QueryServiceOptions so;
  so.pool_threads = 2;
  so.spill_dir = spill_dir;
  // Small pump batches and result queue: the operators, not the queue,
  // hold the query's memory.
  so.scheduler_quantum_rows = 64;
  so.stream_queue_rows = 64;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();
  SortMergeOnly(session->mutable_options());
  auto plan = session->Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_NE(plan->find(plan_node), std::string::npos) << *plan;

  std::vector<Tuple> ungoverned;
  int64_t peak = 0;
  ASSERT_TRUE(Drain(session.get(), sql, -1, &ungoverned, &peak).ok());
  ASSERT_EQ(static_cast<int64_t>(ungoverned.size()), kRows);

  // Over the limit: a hard failure, whether or not spilling is possible.
  std::vector<Tuple> rows;
  Status over = Drain(session.get(), sql, kLimit, &rows, &peak);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted) << over.ToString();
  EXPECT_GT(peak, 0);
  EXPECT_LE(peak, kLimit);

  // Under it: the ungoverned rows, in the same order.
  rows.clear();
  Status under = Drain(session.get(), sql, 1024 * 1024, &rows, &peak);
  ASSERT_TRUE(under.ok()) << under.ToString();
  EXPECT_GT(peak, kLimit);
  ExpectRowsIdentical(rows, ungoverned);

  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.active_queries, 0);
  EXPECT_EQ(stats.spill_bytes_written, 0);
}

TEST(GovernedStateTest, DistinctChargesItsRetainedRows) {
  CheckGoverned(kDistinctQuery, "Distinct", "");
  const testutil::ScopedTempDir dir("governed");
  CheckGoverned(kDistinctQuery, "Distinct", dir.path());
}

TEST(GovernedStateTest, SortMergeJoinChargesItsBufferedInputs) {
  CheckGoverned(kJoinQuery, "SortMergeJoin(", "");
  const testutil::ScopedTempDir dir("governed");
  CheckGoverned(kJoinQuery, "SortMergeJoin(", dir.path());
}

}  // namespace
}  // namespace magicdb
