#include "runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "src/common/memory_tracker.h"
#include "src/exec/exec_context.h"
#include "src/exec/operator.h"
#include "src/parallel/parallel_exec.h"
#include "src/spill/spill_manager.h"

namespace magicdb::perfbench {
namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

// More queries per second than any session completes (serve_hot does
// about 850): sizes the per-session record buffers of a window.
constexpr double kMaxSessionQps = 5000.0;

QueryServiceOptions ServiceOptions(const WorkloadSpec& w,
                                   const std::string& spill_dir) {
  QueryServiceOptions so;
  so.pool_threads = kPoolThreads;
  so.max_concurrent_queries = 2 * kPoolThreads;
  so.plan_cache_entries = kPlanCacheEntries;
  so.plan_cache_instances_per_entry = 8;
  so.scheduler_quantum_rows = kQuantumRows;
  so.stream_queue_rows = kQueueRows;
  so.default_batch_size = kBatchSize;
  so.shed_queue_depth = -1;  // negative: off, whatever the environment says
  so.shed_wait_estimate_us = -1;
  so.query_memory_limit_bytes =
      w.memory_limit_bytes > 0 ? w.memory_limit_bytes : 0;
  so.spill_dir = spill_dir;
  so.spill_batch_bytes = kSpillBatchBytes;
  return so;
}

bool SameCounters(const CostCounters& a, const CostCounters& b) {
  return a.pages_read == b.pages_read && a.pages_written == b.pages_written &&
         a.tuples_processed == b.tuples_processed &&
         a.exprs_evaluated == b.exprs_evaluated &&
         a.hash_operations == b.hash_operations &&
         a.messages_sent == b.messages_sent &&
         a.bytes_shipped == b.bytes_shipped &&
         a.function_invocations == b.function_invocations;
}

// Database::Run options of the dop-1 references: the workload's, at dop 1
// and never governed.
ExecOptions ReferenceExec(const WorkloadSpec& w) {
  ExecOptions e = SessionExec(w);
  e.dop = 1;
  e.memory_limit_bytes = -1;
  return e;
}

}  // namespace

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

ExecOptions SessionExec(const WorkloadSpec& w) {
  ExecOptions e;
  e.timeout = kQueryTimeout;
  e.dop = w.dop;
  e.batch_size = kBatchSize;
  e.reoptimize_qerror_threshold = 0.0;
  e.memory_limit_bytes = w.memory_limit_bytes > 0 ? w.memory_limit_bytes : -1;
  e.stream_queue_rows =
      w.memory_limit_bytes > 0 ? kGovernedQueueRows : kQueueRows;
  e.allow_spill = true;
  return e;
}

StatusOr<std::unique_ptr<Env>> SetUp(const WorkloadSpec& w, uint64_t seed,
                                     const std::string& spill_dir) {
  auto env = std::make_unique<Env>();
  env->db = MakeDataset(DatasetSizes{}, seed);
  env->db->set_exec_batch_size(kBatchSize);
  // Sessions copy the database's optimizer options; the dop-1 references
  // read them too.
  *env->db->mutable_optimizer_options() = w.optimizer_options();
  env->service = std::make_unique<QueryService>(env->db.get(),
                                                ServiceOptions(w, spill_dir));
  for (int s = 0; s < w.sessions; ++s) {
    env->sessions.push_back(env->service->CreateSession());
  }
  const ExecOptions exec = SessionExec(w);
  for (const auto& session : env->sessions) {
    for (const Statement& stmt : w.WarmupStatements()) {
      QueryRecord r = RunQuery(session.get(), w.Text(stmt.cls, stmt.key),
                               exec, w.checksum_mode(), nullptr, 0);
      if (!r.ok) {
        return Status::Internal("warm-up failed: " + r.error +
                                "\n  statement: " +
                                w.Text(stmt.cls, stmt.key));
      }
    }
  }
  return env;
}

QueryRecord RunQuery(Session* session, const std::string& sql,
                     const ExecOptions& exec, Checksum::Mode mode,
                     SpanRecorder* recorder, int64_t query_id) {
  QueryRecord r;
  r.checksum = Checksum(mode);
  const double t0 = NowUs();
  r.start_us = t0;
  const int root = recorder ? recorder->Begin("query", -1, query_id, t0) : -1;
  auto timed = [&](const char* name, auto&& call) {
    const int span =
        recorder ? recorder->Begin(name, root, query_id, NowUs()) : -1;
    auto result = call();
    if (recorder) recorder->End(span, NowUs());
    return result;
  };

  StatusOr<Cursor> cursor =
      timed("server.open", [&] { return session->Open(sql, exec); });
  if (!cursor.ok()) {
    r.error = cursor.status().ToString();
    r.latency_us = NowUs() - t0;
    if (recorder) recorder->End(root, t0 + r.latency_us);
    return r;
  }
  bool first = true;
  while (true) {
    StatusOr<std::vector<Tuple>> batch =
        timed("server.fetch", [&] { return cursor->Fetch(kFetchRows); });
    if (first) {
      r.ttfr_us = NowUs() - t0;
      first = false;
    }
    if (!batch.ok()) {
      r.error = batch.status().ToString();
      break;
    }
    if (batch->empty()) break;
    r.checksum.AddAll(*batch);
  }
  const Status closed = timed("server.close", [&] { return cursor->Close(); });
  const double t1 = NowUs();
  r.latency_us = t1 - t0;
  if (recorder) recorder->End(root, t1);
  if (r.error.empty() && !closed.ok()) r.error = closed.ToString();
  r.ok = r.error.empty();
  r.counters = cursor->counters();
  r.used_dop = cursor->used_dop();
  r.has_filter_join = !cursor->filter_joins().empty();
  r.memory_peak_bytes = cursor->memory_peak_bytes();
  return r;
}

int64_t WindowResult::completed() const {
  return std::count_if(records.begin(), records.end(),
                       [](const QueryRecord& r) { return r.ok; });
}

WindowResult RunWindow(Env* env, const WorkloadSpec& w,
                       std::vector<StatementStream>* streams, double seconds,
                       bool traced) {
  WindowResult out;
  const ExecOptions exec = SessionExec(w);
  // Room for every record up front. A buffer that grew by reallocation
  // mid-window would leave its copies in ru_maxrss, and peak_rss_mb would
  // move with throughput; capacity never written is not resident.
  std::vector<std::vector<QueryRecord>> per_session(env->sessions.size());
  for (auto& records : per_session) {
    records.reserve(static_cast<size_t>(seconds * kMaxSessionQps));
  }
  if (traced) out.spans.resize(env->sessions.size());
  out.before = env->service->StatsSnapshot();
  const double cpu0 = CpuSeconds();
  const double t0 = NowUs();
  const double deadline = t0 + seconds * 1e6;
  std::vector<std::thread> threads;
  for (size_t s = 0; s < env->sessions.size(); ++s) {
    threads.emplace_back([&, s] {
      SpanRecorder* recorder = traced ? &out.spans[s] : nullptr;
      int64_t n = 0;
      while (NowUs() < deadline) {
        const Statement stmt = (*streams)[s].Next();
        QueryRecord r = RunQuery(env->sessions[s].get(),
                                 w.Text(stmt.cls, stmt.key), exec,
                                 w.checksum_mode(), recorder,
                                 static_cast<int64_t>(s) * 1000000000 + n++);
        r.stmt = stmt;
        r.session = static_cast<int>(s);
        per_session[s].push_back(std::move(r));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.elapsed_s = (NowUs() - t0) * 1e-6;
  out.cpu_s = CpuSeconds() - cpu0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  out.after = env->service->StatsSnapshot();
  for (auto& records : per_session) {
    for (QueryRecord& r : records) out.records.push_back(std::move(r));
  }
  std::sort(out.records.begin(), out.records.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.start_us < b.start_us;
            });
  return out;
}

VerifyResult Verify(Database* db, const WorkloadSpec& w,
                    const std::vector<const QueryRecord*>& records) {
  std::vector<Statement> distinct;
  {
    std::set<std::pair<int, int64_t>> seen;
    for (const QueryRecord* r : records) {
      if (r->ok && seen.insert({r->stmt.cls, r->stmt.key}).second) {
        distinct.push_back(r->stmt);
      }
    }
  }
  OptimizerOptions reference_options = w.optimizer_options();
  if (w.reference == Reference::kNoMagicMultiset) {
    reference_options.magic_mode = OptimizerOptions::MagicMode::kNever;
  }
  const OptimizerOptions saved = *db->mutable_optimizer_options();
  *db->mutable_optimizer_options() = reference_options;

  struct Ref {
    Checksum checksum{Checksum::Mode::kOrdered};
    CostCounters counters;
    std::string error;
  };
  std::vector<Ref> refs(distinct.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < distinct.size(); i = next++) {
      StatusOr<QueryResult> r =
          db->Run(w.Text(distinct[i].cls, distinct[i].key), ReferenceExec(w));
      if (!r.ok()) {
        refs[i].error = r.status().ToString();
        continue;
      }
      refs[i].checksum = Checksum(w.checksum_mode());
      refs[i].checksum.AddAll(r->rows);
      refs[i].counters = r->counters;
      if (w.reference == Reference::kNoMagicMultiset &&
          !r->filter_joins.empty()) {
        refs[i].error = "the no-magic reference plan has a Filter Join";
      }
    }
  };
  // The service is idle here; its pool threads sleep, so the references
  // may use every core.
  std::vector<std::thread> threads;
  for (int t = 0; t < kPoolThreads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  *db->mutable_optimizer_options() = saved;

  std::map<std::pair<int, int64_t>, const Ref*> by_stmt;
  for (size_t i = 0; i < distinct.size(); ++i) {
    by_stmt[{distinct[i].cls, distinct[i].key}] = &refs[i];
  }
  VerifyResult out;
  for (const QueryRecord* r : records) {
    if (!r->ok) continue;
    const Ref& ref = *by_stmt.at({r->stmt.cls, r->stmt.key});
    std::ostringstream why;
    if (!ref.error.empty()) {
      why << "reference run failed: " << ref.error;
    } else if (r->checksum != ref.checksum) {
      why << "result differs from the reference: rows " << r->checksum.rows()
          << " vs " << ref.checksum.rows() << ", digest " << std::hex
          << r->checksum.digest() << " vs " << ref.checksum.digest();
    } else if (w.reference == Reference::kDop1Identical &&
               !SameCounters(r->counters, ref.counters)) {
      why << "cost counters differ from dop 1: " << r->counters.ToString()
          << " vs " << ref.counters.ToString();
    } else {
      continue;
    }
    if (out.mismatches++ == 0) {
      out.first = "workload " + w.name + " seed " + std::to_string(w.seed) +
                  ": " + why.str() +
                  "\n  statement: " + w.Text(r->stmt.cls, r->stmt.key);
    }
  }
  return out;
}

StatusOr<std::vector<DirectSample>> ReplayDirect(
    Env* env, const WorkloadSpec& w, const std::vector<Statement>& stmts,
    double budget_s, const std::string& spill_dir, SpanRecorder* recorder) {
  Database* db = env->db.get();
  const OptimizerOptions options = w.optimizer_options();
  std::shared_ptr<SpillManager> spill;
  if (w.memory_limit_bytes > 0) {
    SpillConfig config;
    config.dir = spill_dir;
    config.batch_bytes = kSpillBatchBytes;
    spill = std::make_shared<SpillManager>(config);
  }
  std::set<int> classes_left;
  for (const Statement& s : stmts) classes_left.insert(s.cls);
  std::vector<DirectSample> out;
  const double deadline = NowUs() + budget_s * 1e6;
  for (const Statement& stmt : stmts) {
    if (NowUs() >= deadline && classes_left.empty()) break;
    if (NowUs() >= deadline && classes_left.count(stmt.cls) == 0) continue;
    classes_left.erase(stmt.cls);
    const std::string sql = w.Text(stmt.cls, stmt.key);
    DirectSample d;
    d.stmt = stmt;
    // Unique across calls that share the recorder.
    const auto query_id = static_cast<int64_t>(recorder->spans().size());
    const double t0 = NowUs();
    const int root = recorder->Begin("direct", -1, query_id, t0);

    int span = recorder->Begin("sql.bind", root, query_id, t0);
    StatusOr<BoundSelect> bound = db->BindSelect(sql);
    const double t1 = NowUs();
    recorder->End(span, t1);
    if (!bound.ok()) return bound.status();

    span = recorder->Begin("optimizer.plan", root, query_id, t1);
    StatusOr<PlannedSelect> planned = db->PlanBound(*bound, options);
    const double t2 = NowUs();
    recorder->End(span, t2);
    if (!planned.ok()) return planned.status();

    if (w.dop > 1) {
      // parallel.run replaces exec.drain at dop > 1: the gang over `dop`
      // freshly planned replicas on the service's shared pool, right after
      // planning as an Open at that dop runs it. The dop-1 drain below is
      // its baseline.
      span = recorder->Begin("optimizer.plan_replicas", root, query_id,
                             NowUs());
      std::vector<OpPtr> replicas;
      for (int r = 0; r < w.dop; ++r) {
        StatusOr<PlannedSelect> replica = db->PlanBound(*bound, options);
        if (!replica.ok()) return replica.status();
        replicas.push_back(std::move(replica->root));
      }
      recorder->End(span, NowUs());
      ExecContext proto;
      proto.set_batch_size(kBatchSize);
      proto.set_memory_budget_bytes(options.memory_budget_bytes);
      proto.set_shared_pool(env->service->pool());
      ParallelExecutor executor(w.dop);
      const double cpu = CpuSeconds();
      const double p0 = NowUs();
      span = recorder->Begin("parallel.run", root, query_id, p0);
      StatusOr<ParallelRunResult> gang =
          executor.Run(std::move(replicas), proto);
      d.parallel_us = NowUs() - p0;
      d.parallel_cpu_s = CpuSeconds() - cpu;
      recorder->End(span, p0 + d.parallel_us);
      if (!gang.ok()) return gang.status();
      if (gang->used_dop != w.dop) {
        return Status::Internal("direct parallel run fell back: " +
                                gang->fallback_reason);
      }
    }
    span = recorder->Begin("exec.drain", root, query_id, NowUs());
    ExecContext ctx;
    ctx.set_batch_size(kBatchSize);
    ctx.set_memory_budget_bytes(options.memory_budget_bytes);
    if (spill != nullptr) {
      ctx.set_memory_tracker(
          std::make_shared<MemoryTracker>(w.memory_limit_bytes));
      ctx.set_spill_manager(spill);
    }
    const double cpu2 = CpuSeconds();
    const double t3 = NowUs();
    StatusOr<std::vector<Tuple>> rows =
        ExecuteToVector(planned->root.get(), &ctx);
    d.drain_us = NowUs() - t3;
    d.drain_cpu_s = CpuSeconds() - cpu2;
    recorder->End(span, t3 + d.drain_us);
    if (!rows.ok()) return rows.status();

    d.bind_us = t1 - t0;
    d.plan_us = t2 - t1;
    d.counters = ctx.counters();
    d.optimizer_stats = planned->optimizer_stats;
    d.est_cost = planned->est_cost;
    d.has_filter_join = !planned->filter_joins.empty();
    CollectFilterJoinMeasured(*planned->root, &d.filter_joins);

    recorder->End(root, NowUs());
    out.push_back(std::move(d));
  }
  return out;
}

StatusOr<SpillComparison> CompareSpill(Env* env, const WorkloadSpec& w,
                                       const std::vector<Statement>& stmts,
                                       double budget_s) {
  SpillComparison out;
  Session* session = env->sessions[0].get();
  ExecOptions governed = SessionExec(w);
  ExecOptions ungoverned = governed;
  ungoverned.memory_limit_bytes = -1;
  const double deadline = NowUs() + budget_s * 1e6;
  for (const Statement& stmt : stmts) {
    if (NowUs() >= deadline && out.statements > 0) break;
    const std::string sql = w.Text(stmt.cls, stmt.key);
    QueryRecord g = RunQuery(session, sql, governed, w.checksum_mode(),
                             nullptr, 0);
    QueryRecord u = RunQuery(session, sql, ungoverned, w.checksum_mode(),
                             nullptr, 0);
    if (!g.ok) return Status::Internal("governed run failed: " + g.error);
    if (!u.ok) return Status::Internal("ungoverned run failed: " + u.error);
    if (g.checksum != u.checksum) {
      return Status::Internal("governed and ungoverned results differ: " +
                              sql);
    }
    out.governed_us += g.latency_us;
    out.ungoverned_us += u.latency_us;
    out.spill_bytes +=
        g.counters.spill_bytes_written + g.counters.spill_bytes_read;
    ++out.statements;
  }
  return out;
}

}  // namespace magicdb::perfbench
