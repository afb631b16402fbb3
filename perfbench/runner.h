#ifndef MAGICDB_PERFBENCH_RUNNER_H_
#define MAGICDB_PERFBENCH_RUNNER_H_

// The measurement machinery: set-up, the closed loop through the public
// QueryService / Session / Cursor API, result verification, and the direct
// (service-free) replay of the traced run.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataset.h"
#include "harness.h"
#include "src/common/cost_counters.h"
#include "src/db/database.h"
#include "src/server/query_service.h"
#include "src/server/session.h"
#include "workloads.h"

namespace magicdb::perfbench {

/// Pinned values of every knob the library would otherwise take from the
/// environment or the hardware.
inline constexpr int kPoolThreads = 4;
inline constexpr int64_t kBatchSize = 1024;
inline constexpr size_t kPlanCacheEntries = 128;
/// Spill file frame size: with a small memory limit, the per-partition
/// write buffers must fit inside the limit they serve.
inline constexpr int64_t kSpillBatchBytes = 1024;
/// Result-queue high-water mark (rows) and rows per scheduler quantum. A
/// governed query's unfetched rows count against its memory limit, so its
/// queue is kept short enough to fit beside the spilling operators.
inline constexpr int64_t kQueueRows = 8192;
inline constexpr int64_t kGovernedQueueRows = 256;
inline constexpr int64_t kQuantumRows = 1024;
/// A query that runs this long fails instead of hanging the benchmark.
inline constexpr std::chrono::seconds kQueryTimeout{30};
/// Rows per Cursor::Fetch call.
inline constexpr int64_t kFetchRows = 1024;

/// Microseconds on the steady clock since the process started.
double NowUs();

/// Process user + system CPU seconds so far (getrusage).
double CpuSeconds();

/// Everything set-up builds. Members are destroyed sessions first, then the
/// service, then the database.
struct Env {
  std::unique_ptr<Database> db;
  std::unique_ptr<QueryService> service;
  std::vector<std::unique_ptr<Session>> sessions;
};

/// Generates and loads the database, starts the service and the sessions,
/// and runs the workload's warm-up pass. Fails on a warm-up error.
StatusOr<std::unique_ptr<Env>> SetUp(const WorkloadSpec& w, uint64_t seed,
                                     const std::string& spill_dir);

/// Execution options of the workload's queries, every field pinned.
ExecOptions SessionExec(const WorkloadSpec& w);

/// One statement as the client saw it.
struct QueryRecord {
  Statement stmt;
  int session = 0;
  bool ok = false;
  std::string error;
  double start_us = 0.0;
  /// From the call to Session::Open until Cursor::Close returned.
  double latency_us = 0.0;
  /// From the call to Session::Open until the first Fetch returned.
  double ttfr_us = 0.0;
  Checksum checksum{Checksum::Mode::kOrdered};
  CostCounters counters;
  int used_dop = 0;
  bool has_filter_join = false;
  int64_t memory_peak_bytes = 0;
};

/// Runs one statement through Open, Fetch until end of stream, and Close.
/// With a recorder, records a "query" root span with "server.open",
/// "server.fetch" and "server.close" children.
QueryRecord RunQuery(Session* session, const std::string& sql,
                     const ExecOptions& exec, Checksum::Mode mode,
                     SpanRecorder* recorder, int64_t query_id);

/// One timed window of the closed loop.
struct WindowResult {
  std::vector<QueryRecord> records;
  double elapsed_s = 0.0;
  double cpu_s = 0.0;
  /// ru_maxrss when the window closed: set-up and the window, not the
  /// verification that follows.
  double peak_rss_mb = 0.0;
  ServiceStats before;
  ServiceStats after;
  /// One recorder per session; empty when untraced.
  std::vector<SpanRecorder> spans;

  int64_t completed() const;
};

/// Every session runs its stream until `seconds` have passed; statements
/// already started then finish. Streams continue where they stopped.
WindowResult RunWindow(Env* env, const WorkloadSpec& w,
                       std::vector<StatementStream>* streams, double seconds,
                       bool traced);

struct VerifyResult {
  int64_t mismatches = 0;
  /// The first mismatch, naming the statement and the seed; empty if none.
  std::string first;
};

/// Checks every successful record against its statement's reference run
/// (see Reference), computed once per distinct statement text.
VerifyResult Verify(Database* db, const WorkloadSpec& w,
                    const std::vector<const QueryRecord*>& records);

/// The direct path of one statement: sql.bind -> optimizer.plan ->
/// exec.drain at dop 1; for dop > 1 workloads also parallel.run, the gang
/// over `dop` replicas on the service's pool. CPU seconds are process
/// user + system time around the drain and the gang.
struct DirectSample {
  Statement stmt;
  double bind_us = 0.0;
  double plan_us = 0.0;
  double drain_us = 0.0;
  double drain_cpu_s = 0.0;
  /// Zero unless the workload runs at dop > 1.
  double parallel_us = 0.0;
  double parallel_cpu_s = 0.0;
  CostCounters counters;
  OptimizerStats optimizer_stats;
  double est_cost = 0.0;
  bool has_filter_join = false;
  std::vector<FilterJoinMeasured> filter_joins;
};

/// Replays `stmts` in order through the direct path until `budget_s` has
/// passed (at least one statement of every class present is replayed).
/// Spans go to `recorder`.
StatusOr<std::vector<DirectSample>> ReplayDirect(
    Env* env, const WorkloadSpec& w, const std::vector<Statement>& stmts,
    double budget_s, const std::string& spill_dir, SpanRecorder* recorder);

/// The same statement run governed and ungoverned through Open...Close.
struct SpillComparison {
  double governed_us = 0.0;
  double ungoverned_us = 0.0;
  int64_t spill_bytes = 0;  // written + read while governed
  int64_t statements = 0;
};

/// Runs `stmts` one at a time on session 0, each governed then ungoverned,
/// until `budget_s` has passed.
StatusOr<SpillComparison> CompareSpill(Env* env, const WorkloadSpec& w,
                                       const std::vector<Statement>& stmts,
                                       double budget_s);

}  // namespace magicdb::perfbench

#endif  // MAGICDB_PERFBENCH_RUNNER_H_
