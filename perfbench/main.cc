// magicdb benchmark: one seeded database, four closed-loop traffic mixes
// through the public QueryService / Session / Cursor API.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that splits them by layer. Every result is verified after the
// timed window, and the facts each workload depends on are asserted. The
// last line of standard output is one JSON object; the exit code is 0 only
// when every result matched and every assertion held.

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dataset.h"
#include "harness.h"
#include "runner.h"
#include "workloads.h"

extern char** environ;

namespace magicdb::perfbench {
namespace {

constexpr int kSetupRepeats = 5;
constexpr int kTraceSlices = 4;
constexpr int64_t kMinCompleted = 200;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      a->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      have_seconds = end != nullptr && *end == '\0' && a->seconds >= 1 &&
                     a->seconds <= 600;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (flag == "--work-dir") {
      a->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

// Timings from an instrumented or unoptimized build say nothing about the
// program users run.
std::string BuildRefusal() {
#if defined(MAGICDB_FAILPOINTS)
  return "built with MAGICDB_FAILPOINTS";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#elif !defined(__OPTIMIZE__)
  return "built without optimization";
#else
  return "";
#endif
}

// The MAGICDB_TEST_* hooks would override library defaults; every option
// the benchmark relies on is set explicitly, and the hooks are removed so
// not even an unpinned default can pick them up.
std::vector<std::string> ScrubTestEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("MAGICDB_TEST_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  return names;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<const QueryRecord*> Pointers(const std::vector<QueryRecord>& v) {
  std::vector<const QueryRecord*> out;
  for (const QueryRecord& r : v) out.push_back(&r);
  return out;
}

// ---------------------------------------------------------------- assertions

std::vector<std::string> CheckFacts(const WorkloadSpec& w,
                                    const WindowResult& win) {
  std::vector<std::string> failures;
  int64_t failed = 0, without_fj = 0, wrong_dop = 0, unspilled = 0,
          over_limit = 0;
  const QueryRecord* first_failed = nullptr;
  for (const QueryRecord& r : win.records) {
    if (!r.ok) {
      if (failed++ == 0) first_failed = &r;
      continue;
    }
    if (w.every_plan_has_filter_join && !r.has_filter_join) ++without_fj;
    if (w.dop > 1 && r.used_dop != w.dop) ++wrong_dop;
    if (w.memory_limit_bytes > 0) {
      if (r.counters.spill_bytes_written <= 0) ++unspilled;
      if (r.memory_peak_bytes > w.memory_limit_bytes) ++over_limit;
    }
  }
  auto fail = [&](int64_t n, const std::string& what) {
    if (n > 0) failures.push_back(std::to_string(n) + " queries " + what);
  };
  if (first_failed != nullptr) {
    fail(failed, "failed; first: " + first_failed->error + "\n  statement: " +
                     w.Text(first_failed->stmt.cls, first_failed->stmt.key));
  }
  fail(without_fj, "ran a plan without a Filter Join");
  fail(wrong_dop, "did not run at dop " + std::to_string(w.dop));
  fail(unspilled, "did not spill");
  fail(over_limit, "exceeded the memory limit");

  const int64_t hits = win.after.plan_cache_hits - win.before.plan_cache_hits;
  const int64_t misses =
      win.after.plan_cache_misses - win.before.plan_cache_misses;
  const double hit_rate = Ratio(static_cast<double>(hits),
                                static_cast<double>(hits + misses));
  if (hit_rate < w.min_plan_cache_hit_rate ||
      hit_rate > w.max_plan_cache_hit_rate) {
    std::ostringstream os;
    os << "plan-cache hit rate " << hit_rate << " outside ["
       << w.min_plan_cache_hit_rate << ", " << w.max_plan_cache_hit_rate
       << "]";
    failures.push_back(os.str());
  }
  if (w.dop > 1) {
    fail(win.after.parallel_fallbacks - win.before.parallel_fallbacks,
         "fell back from parallel execution");
  }
  return failures;
}

// ------------------------------------------------------------------ end to end

std::map<std::string, MetricValue> EndToEnd(
    const WindowResult& win, const std::vector<double>& setup_s,
    int64_t mismatches, std::vector<std::string>* failures) {
  std::vector<double> latency_ms, ttfr_ms;
  int64_t failed = 0;
  for (const QueryRecord& r : win.records) {
    if (!r.ok) {
      ++failed;
      continue;
    }
    latency_ms.push_back(r.latency_us * 1e-3);
    ttfr_ms.push_back(r.ttfr_us * 1e-3);
  }
  const int64_t attempted = static_cast<int64_t>(win.records.size());
  const int64_t completed = attempted - failed;
  const PercentileResult p50 = Percentile(latency_ms, failed, 0.50);
  const PercentileResult p95 = Percentile(latency_ms, failed, 0.95);
  const PercentileResult t50 = Percentile(ttfr_ms, failed, 0.50);
  if (completed < kMinCompleted || !p95.supported) {
    failures->push_back("only " + std::to_string(attempted) +
                        " queries in the window; p95 needs " +
                        std::to_string(kMinCompleted) +
                        " so that 10 lie beyond it");
  }
  std::map<std::string, MetricValue> m;
  m["qps"] = {Ratio(static_cast<double>(completed), win.elapsed_s), completed};
  m["latency_p50_ms"] = {p50.value, p50.count};
  m["latency_p95_ms"] = {p95.value, p95.count};
  m["ttfr_p50_ms"] = {t50.value, t50.count};
  m["success_rate"] = {Ratio(static_cast<double>(completed - mismatches),
                             static_cast<double>(attempted)),
                       attempted};
  m["cpu_ms_per_query"] = {Ratio(win.cpu_s * 1e3, static_cast<double>(completed)),
                           completed};
  m["setup_s"] = {Percentile(setup_s, 0, 0.5).value,
                  static_cast<int64_t>(setup_s.size())};
  m["peak_rss_mb"] = {win.peak_rss_mb, 1};
  return m;
}

// ------------------------------------------------------------------ per layer

struct TextKey {
  int cls;
  int64_t key;
  bool operator<(const TextKey& o) const {
    return cls != o.cls ? cls < o.cls : key < o.key;
  }
};

// Medians of the direct-path layer times of one statement text.
struct LayerTimes {
  double bind_us = 0.0;
  double plan_us = 0.0;
  double drain_us = 0.0;
  double parallel_us = 0.0;
};

std::map<TextKey, LayerTimes> LayerTimesByText(
    const std::vector<DirectSample>& direct) {
  std::map<TextKey, std::vector<const DirectSample*>> groups;
  for (const DirectSample& d : direct) {
    groups[{d.stmt.cls, d.stmt.key}].push_back(&d);
  }
  std::map<TextKey, LayerTimes> out;
  for (const auto& [k, samples] : groups) {
    auto med = [&](double DirectSample::*field) {
      std::vector<double> v;
      for (const DirectSample* d : samples) v.push_back(d->*field);
      return Percentile(v, 0, 0.5).value;
    };
    out[k] = {med(&DirectSample::bind_us), med(&DirectSample::plan_us),
              med(&DirectSample::drain_us), med(&DirectSample::parallel_us)};
  }
  return out;
}

// What the service path of one statement spends in the layers the direct
// path times. At dop 1 a plan-cache hit that reuses a pooled instance skips
// bind and plan, a hit without one plans, and a miss binds and plans, then
// the plan drains. At dop > 1 a miss binds and plans once for the cache,
// every Open plans `dop` replicas (query_service.cc), and the gang runs.
double ModeledLayerUs(const WorkloadSpec& w, const LayerTimes& t,
                      double miss_share, double planned_share) {
  if (w.dop > 1) {
    return miss_share * (t.bind_us + t.plan_us) + w.dop * t.plan_us +
           t.parallel_us;
  }
  return miss_share * t.bind_us + planned_share * t.plan_us + t.drain_us;
}

struct ClassReport {
  std::vector<double> client, open, fetch, close, client_self, bind, plan,
      layer, remainder;
};

// Growth of a service counter over the traced slices, leaving out the
// direct replays between them.
int64_t Growth(const std::vector<WindowResult>& slices,
               int64_t ServiceStats::*counter) {
  int64_t n = 0;
  for (const WindowResult& s : slices) n += s.after.*counter - s.before.*counter;
  return n;
}

// The sql, optimizer, exec, storage and parallel metrics of the direct
// path: medians of its timings and per-statement means of its counts.
void AddDirectPathMetrics(const std::vector<DirectSample>& direct,
                          std::map<std::string, MetricValue>* m) {
  const auto n_direct = static_cast<int64_t>(direct.size());
  std::vector<double> bind, plan, drain, qerror;
  double steps = 0, dp = 0, nested = 0, fjc = 0, eq_hits = 0, eq_total = 0,
         with_fj = 0, tuples = 0, hashes = 0, exprs = 0, pages = 0,
         drain_total_us = 0;
  FilterJoinMeasured fj_sum;
  for (const DirectSample& d : direct) {
    bind.push_back(d.bind_us);
    plan.push_back(d.plan_us);
    drain.push_back(d.drain_us);
    const double actual = d.counters.TotalCost();
    if (actual > 0 && d.est_cost > 0) {
      qerror.push_back(std::max(actual / d.est_cost, d.est_cost / actual));
    }
    steps += d.optimizer_stats.join_steps_costed;
    dp += d.optimizer_stats.dp_entries;
    nested += d.optimizer_stats.nested_optimizations;
    fjc += d.optimizer_stats.filter_joins_costed;
    eq_hits += d.optimizer_stats.eq_class_hits;
    eq_total += d.optimizer_stats.eq_class_hits +
                d.optimizer_stats.eq_class_misses;
    with_fj += d.has_filter_join ? 1 : 0;
    tuples += d.counters.tuples_processed;
    hashes += d.counters.hash_operations;
    exprs += d.counters.exprs_evaluated;
    pages += d.counters.pages_read;
    drain_total_us += d.drain_us;
    for (const FilterJoinMeasured& f : d.filter_joins) {
      fj_sum.production += f.production;
      fj_sum.projection += f.projection;
      fj_sum.avail_filter += f.avail_filter;
      fj_sum.filter_inner += f.filter_inner;
      fj_sum.final_join += f.final_join;
    }
  }
  const double nd = static_cast<double>(std::max<int64_t>(n_direct, 1));
  (*m)["sql.bind_us_p50"] = {Percentile(bind, 0, 0.5).value, n_direct};
  (*m)["optimizer.plan_us_p50"] = {Percentile(plan, 0, 0.5).value, n_direct};
  (*m)["optimizer.join_steps_costed"] = {steps / nd, n_direct};
  (*m)["optimizer.dp_entries"] = {dp / nd, n_direct};
  (*m)["optimizer.nested_optimizations"] = {nested / nd, n_direct};
  (*m)["optimizer.filter_joins_costed"] = {fjc / nd, n_direct};
  (*m)["optimizer.eq_class_hit_rate"] = {Ratio(eq_hits, eq_total), n_direct};
  (*m)["optimizer.cost_qerror_p50"] = {Percentile(qerror, 0, 0.5).value,
                                       static_cast<int64_t>(qerror.size())};
  (*m)["optimizer.filter_join_plan_share"] = {with_fj / nd, n_direct};
  (*m)["exec.drain_us_p50"] = {Percentile(drain, 0, 0.5).value, n_direct};
  (*m)["exec.ns_per_tuple"] = {Ratio(drain_total_us * 1e3, tuples), n_direct};
  (*m)["exec.tuples_processed"] = {tuples / nd, n_direct};
  (*m)["exec.hash_operations"] = {hashes / nd, n_direct};
  (*m)["exec.exprs_evaluated"] = {exprs / nd, n_direct};
  const double fj_total = fj_sum.Total();
  (*m)["exec.fj_share.production"] = {Ratio(fj_sum.production, fj_total), n_direct};
  (*m)["exec.fj_share.projection"] = {Ratio(fj_sum.projection, fj_total), n_direct};
  (*m)["exec.fj_share.avail_filter"] = {Ratio(fj_sum.avail_filter, fj_total),
                                     n_direct};
  (*m)["exec.fj_share.filter_inner"] = {Ratio(fj_sum.filter_inner, fj_total),
                                     n_direct};
  (*m)["exec.fj_share.final_join"] = {Ratio(fj_sum.final_join, fj_total),
                                   n_direct};
  (*m)["storage.pages_read"] = {pages / nd, n_direct};

  // parallel: the gang against the dop-1 drain of the same plan.
  std::vector<double> run_dop, speedup;
  double cpu_dop = 0, cpu_dop1 = 0;
  for (const DirectSample& d : direct) {
    if (d.parallel_us <= 0) continue;
    run_dop.push_back(d.parallel_us);
    speedup.push_back(d.drain_us / d.parallel_us);
    cpu_dop += d.parallel_cpu_s;
    cpu_dop1 += d.drain_cpu_s;
  }
  const auto n_par = static_cast<int64_t>(run_dop.size());
  (*m)["parallel.run_us_p50"] = {Percentile(run_dop, 0, 0.5).value, n_par};
  (*m)["parallel.speedup_vs_dop1"] = {Percentile(speedup, 0, 0.5).value,
                                       n_par};
  (*m)["parallel.cpu_vs_dop1"] = {Ratio(cpu_dop, cpu_dop1), n_par};
}

// Splits each traced query's client latency into the client's own span
// self time, the layer times the direct path measured for its statement,
// and the remainder the server spends on its own (server.self_us_p50), and
// prints the split per statement class.
void Reconcile(const WorkloadSpec& w, const std::vector<WindowResult>& traced,
               const std::vector<DirectSample>& direct, double miss_share,
               double planned_share, std::map<std::string, MetricValue>* m,
               std::ostream& report) {
  const std::map<TextKey, LayerTimes> layer_times = LayerTimesByText(direct);

  std::map<int, ClassReport> classes;
  std::vector<double> open, fetch, close, remainder;
  double open_total = 0, root_total = 0;
  // A session records each query's root span and then its children, in the
  // order it ran the queries, so the n-th root of a session's recorder in a
  // slice belongs to that session's n-th record of the slice.
  for (const WindowResult& slice : traced) {
    std::map<int, std::vector<const QueryRecord*>> by_session;
    for (const QueryRecord& r : slice.records) {
      by_session[r.session].push_back(&r);
    }
    for (size_t s = 0; s < slice.spans.size(); ++s) {
      const std::vector<Span>& spans = slice.spans[s].spans();
      const std::vector<const QueryRecord*>& recs =
          by_session[static_cast<int>(s)];
      size_t q = 0;
      for (size_t i = 0; i < spans.size() && q < recs.size(); ++i) {
        if (spans[i].parent != -1) continue;
        const QueryRecord& r = *recs[q++];
        const int root = static_cast<int>(i);
        double o = 0, f = 0, c = 0;
        for (size_t j = i + 1; j < spans.size() && spans[j].parent == root;
             ++j) {
          const double us = spans[j].duration_us();
          if (spans[j].name == "server.open") {
            o += us;
            open.push_back(us);
          } else if (spans[j].name == "server.fetch") {
            f += us;
            fetch.push_back(us);
          } else if (spans[j].name == "server.close") {
            c += us;
            close.push_back(us);
          }
        }
        open_total += o;
        root_total += spans[i].duration_us();
        if (!r.ok) continue;
        ClassReport& cr = classes[r.stmt.cls];
        const double client_self = SelfTimeUs(spans, root);
        cr.client.push_back(spans[i].duration_us());
        cr.open.push_back(o);
        cr.fetch.push_back(f);
        cr.close.push_back(c);
        cr.client_self.push_back(client_self);
        auto lt = layer_times.find({r.stmt.cls, r.stmt.key});
        if (lt == layer_times.end()) continue;
        const double modeled =
            ModeledLayerUs(w, lt->second, miss_share, planned_share);
        const double server_self =
            spans[i].duration_us() - client_self - modeled;
        cr.bind.push_back(lt->second.bind_us);
        cr.plan.push_back(lt->second.plan_us);
        cr.layer.push_back(modeled);
        cr.remainder.push_back(server_self);
        remainder.push_back(server_self);
      }
    }
  }
  (*m)["server.open_us_p50"] = {Percentile(open, 0, 0.5).value,
                                 static_cast<int64_t>(open.size())};
  (*m)["server.fetch_us_p50"] = {Percentile(fetch, 0, 0.5).value,
                                  static_cast<int64_t>(fetch.size())};
  (*m)["server.close_us_p50"] = {Percentile(close, 0, 0.5).value,
                                  static_cast<int64_t>(close.size())};
  (*m)["server.self_us_p50"] = {Percentile(remainder, 0, 0.5).value,
                                 static_cast<int64_t>(remainder.size())};
  (*m)["parallel.open_share_of_latency"] = {Ratio(open_total, root_total),
                                            static_cast<int64_t>(open.size())};

  // The reconciliation table: client latency = the client's span self time
  // + the modeled layer time + the server's own remainder.
  char line[256];
  report << "reconciliation (p50 per statement class, us; miss share "
         << miss_share << ", planned share " << planned_share << "):\n";
  std::snprintf(line, sizeof(line),
                "  %-18s %6s %10s %10s %9s %9s %9s %9s %9s %9s %10s %10s\n",
                "class", "n", "client", "client.p95", "open", "fetch",
                "close", "cli.self", "bind", "plan", "layers", "remainder");
  report << line;
  for (const auto& [cls, cr] : classes) {
    std::snprintf(line, sizeof(line),
                  "  %-18s %6zu %10.1f %10.1f %9.1f %9.1f %9.1f %9.1f %9.1f "
                  "%9.1f %10.1f %10.1f\n",
                  w.classes[static_cast<size_t>(cls)].c_str(),
                  cr.client.size(), Percentile(cr.client, 0, 0.5).value,
                  Percentile(cr.client, 0, 0.95).value,
                  Percentile(cr.open, 0, 0.5).value,
                  Percentile(cr.fetch, 0, 0.5).value,
                  Percentile(cr.close, 0, 0.5).value,
                  Percentile(cr.client_self, 0, 0.5).value,
                  Percentile(cr.bind, 0, 0.5).value,
                  Percentile(cr.plan, 0, 0.5).value,
                  Percentile(cr.layer, 0, 0.5).value,
                  Percentile(cr.remainder, 0, 0.5).value);
    report << line;
  }
}

std::map<std::string, MetricValue> PerLayer(
    const WorkloadSpec& w, const WindowResult& untraced,
    const std::vector<WindowResult>& traced,
    const std::vector<DirectSample>& direct, const SpillComparison& spill,
    std::ostream& report) {
  std::map<std::string, MetricValue> m;
  int64_t completed = 0;
  double traced_s = 0;
  for (const WindowResult& slice : traced) {
    completed += slice.completed();
    traced_s += slice.elapsed_s;
  }
  const double per_query = completed > 0 ? 1.0 / completed : 0.0;
  auto per_query_growth = [&](int64_t ServiceStats::*counter) {
    return MetricValue{Growth(traced, counter) * per_query, completed};
  };
  // Lifetime quantiles and maxima, as of the last traced slice.
  const ServiceStats& last = traced.back().after;

  AddDirectPathMetrics(direct, &m);
  m["parallel.fallbacks"] = per_query_growth(&ServiceStats::parallel_fallbacks);
  m["parallel.morsels_stolen"] =
      per_query_growth(&ServiceStats::morsels_stolen);

  // server: spans of the traced window and service-counter deltas.
  const int64_t hits = Growth(traced, &ServiceStats::plan_cache_hits);
  const int64_t misses = Growth(traced, &ServiceStats::plan_cache_misses);
  const int64_t reuses = Growth(traced, &ServiceStats::plan_instance_reuses);
  const double miss_share =
      Ratio(static_cast<double>(misses), static_cast<double>(hits + misses));
  const double planned_share =
      1.0 - Ratio(static_cast<double>(reuses),
                  static_cast<double>(hits + misses));
  Reconcile(w, traced, direct, miss_share, planned_share, &m, report);
  m["server.admission_wait_us_p95"] = {last.admission_wait_us_p95, completed};
  m["server.sink_wait_us_p95"] = {last.cursor_batch_wait_us_p95, completed};
  m["server.plan_cache_hit_rate"] = {
      Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
      hits + misses};
  m["server.instance_reuse_rate"] = {
      Ratio(static_cast<double>(reuses), static_cast<double>(hits)), hits};
  m["server.sched_quanta"] = per_query_growth(&ServiceStats::sched_quanta);
  m["server.producer_parks"] =
      per_query_growth(&ServiceStats::cursor_producer_parks);
  m["server.retries"] = {
      static_cast<double>(Growth(traced, &ServiceStats::queries_shed) +
                          Growth(traced, &ServiceStats::query_shed_retries) +
                          Growth(traced, &ServiceStats::query_ddl_retries) +
                          Growth(traced, &ServiceStats::reoptimizations)) *
          per_query,
      completed};

  // spill: window cursors, service totals, and the governed/ungoverned pair.
  double written = 0, read = 0, peak = 0;
  for (const WindowResult& slice : traced) {
    for (const QueryRecord& r : slice.records) {
      written += r.counters.spill_bytes_written;
      read += r.counters.spill_bytes_read;
      peak = std::max(peak, static_cast<double>(r.memory_peak_bytes));
    }
  }
  const bool governed = w.memory_limit_bytes > 0;
  m["spill.bytes_written"] = {written * per_query, completed};
  m["spill.bytes_read"] = {read * per_query, completed};
  m["spill.partitions_opened"] =
      per_query_growth(&ServiceStats::spill_partitions_opened);
  m["spill.recursion_depth_max"] = {
      static_cast<double>(last.spill_recursion_depth_max), completed};
  m["spill.slowdown_vs_in_memory"] = {
      Ratio(spill.governed_us, spill.ungoverned_us), spill.statements};
  const double extra_s = (spill.governed_us - spill.ungoverned_us) * 1e-6;
  m["spill.io_mb_per_s"] = {
      extra_s > 0 ? spill.spill_bytes / 1e6 / extra_s : 0.0,
      spill.statements};
  m["spill.peak_over_limit"] = {
      governed ? peak / static_cast<double>(w.memory_limit_bytes) : 0.0,
      completed};

  const double untraced_qps =
      Ratio(static_cast<double>(untraced.completed()), untraced.elapsed_s);
  const double traced_qps = Ratio(static_cast<double>(completed), traced_s);
  m["trace.qps_ratio"] = {Ratio(traced_qps, untraced_qps), completed};

  report << "tracing overhead: traced qps " << traced_qps
         << " vs untraced qps " << untraced_qps << " (ratio "
         << Ratio(traced_qps, untraced_qps) << ")\n";
  return m;
}

// Spans are kept in memory during the run and written out once, here.
void WriteTrace(const std::string& path,
                const std::vector<WindowResult>& traced,
                const SpanRecorder& direct) {
  std::ofstream out(path);
  auto dump = [&](const std::string& source, const SpanRecorder& rec) {
    const std::vector<Span>& spans = rec.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << "{\"source\": \"" << source << "\", \"id\": " << i
          << ", \"parent\": " << s.parent << ", \"query\": " << s.query_id
          << ", \"name\": \"" << s.name << "\", \"start_us\": " << s.start_us
          << ", \"end_us\": " << s.end_us << "}\n";
    }
  };
  for (size_t k = 0; k < traced.size(); ++k) {
    for (size_t s = 0; s < traced[k].spans.size(); ++s) {
      dump("slice" + std::to_string(k) + ".session" + std::to_string(s),
           traced[k].spans[s]);
    }
  }
  dump("direct", direct);
}

void PrintHeader(const Args& args, const WorkloadSpec& w,
                 const std::vector<std::string>& scrubbed) {
  std::cout << "magicdb perfbench: workload=" << w.name
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0) << "\n";
  std::cout << "host: nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
            << " build_type=" << PERFBENCH_BUILD_TYPE << "\n";
  std::cout << "data: " << DescribeDataset(DatasetSizes{}) << "\n";
  std::cout << "service: pool_threads=" << kPoolThreads
            << " batch_size=" << kBatchSize
            << " plan_cache_entries=" << kPlanCacheEntries
            << " sessions=" << w.sessions << " dop=" << w.dop
            << " memory_limit_bytes="
            << (w.memory_limit_bytes > 0 ? w.memory_limit_bytes : 0) << "\n";
  std::cout << "statements: " << w.classes.size()
            << " classes with equal shares (";
  for (size_t i = 0; i < w.classes.size(); ++i) {
    std::cout << (i ? ", " : "") << w.classes[i];
  }
  std::cout << "), distinct texts="
            << (w.distinct_texts() < 0 ? std::string("every statement new")
                                       : std::to_string(w.distinct_texts()))
            << "\n";
  if (!scrubbed.empty()) {
    std::cout << "ignored environment:";
    for (const std::string& n : scrubbed) std::cout << " " << n;
    std::cout << "\n";
  }
}

int Run(const Args& args) {
  std::unique_ptr<WorkloadSpec> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const std::vector<std::string> scrubbed = ScrubTestEnvironment();
  PrintHeader(args, *w, scrubbed);

  // This run's scratch directory, removed on every exit path.
  struct ScratchDir {
    std::filesystem::path path;
    ~ScratchDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } work{std::filesystem::path(args.work_dir) /
         ("run-" + std::to_string(getpid()))};
  const std::string spill_dir = (work.path / "spill").string();
  const std::string direct_spill_dir = (work.path / "direct-spill").string();
  std::filesystem::create_directories(spill_dir);
  std::filesystem::create_directories(direct_spill_dir);

  // Set up several times and report the median; the last set-up is the one
  // measured.
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetupRepeats; ++i) {
    env.reset();
    const double t0 = NowUs();
    StatusOr<std::unique_ptr<Env>> made = SetUp(*w, args.seed, spill_dir);
    if (!made.ok()) {
      std::cerr << "set-up failed: " << made.status().ToString() << "\n";
      return 1;
    }
    setup_s.push_back((NowUs() - t0) * 1e-6);
    env = std::move(*made);
  }
  std::cout << "setup_s:";
  for (double s : setup_s) std::cout << " " << s;
  std::cout << "\n";

  std::vector<StatementStream> streams;
  for (int s = 0; s < w->sessions; ++s) streams.emplace_back(w.get(), s);

  std::vector<std::string> failures;
  std::map<std::string, MetricValue> metrics;
  int64_t attempted = 0, failed = 0;
  const std::vector<MetricDef>* defs = nullptr;
  std::ostringstream report;
  VerifyResult verified;
  if (!args.trace) {
    const WindowResult win =
        RunWindow(env.get(), *w, &streams, args.seconds, false);
    verified = Verify(env->db.get(), *w, Pointers(win.records));
    failures = CheckFacts(*w, win);
    metrics = EndToEnd(win, setup_s, verified.mismatches, &failures);
    attempted = static_cast<int64_t>(win.records.size());
    failed = attempted - win.completed();
    defs = &EndToEndMetrics();
  } else {
    // Half the window untraced, half traced, on continuing streams: the
    // same seeded sequence, and no adhoc text repeats across the halves.
    // The traced half alternates service slices with direct replays of
    // their statements, so both sides of the reconciliation see the same
    // host conditions.
    const WindowResult untraced =
        RunWindow(env.get(), *w, &streams, args.seconds / 2.0, false);
    std::vector<WindowResult> traced;
    std::vector<DirectSample> direct;
    std::vector<Statement> replayed;
    SpanRecorder direct_spans;
    for (int k = 0; k < kTraceSlices; ++k) {
      traced.push_back(RunWindow(env.get(), *w, &streams,
                                 args.seconds / 2.0 / kTraceSlices, true));
      std::vector<Statement> replay;
      for (const QueryRecord& r : traced.back().records) {
        replay.push_back(r.stmt);
      }
      StatusOr<std::vector<DirectSample>> d =
          ReplayDirect(env.get(), *w, replay,
                       args.seconds * 0.3 / kTraceSlices, direct_spill_dir,
                       &direct_spans);
      if (!d.ok()) {
        failures.push_back("direct path failed: " + d.status().ToString());
        break;
      }
      direct.insert(direct.end(), d->begin(), d->end());
      replayed.insert(replayed.end(), replay.begin(), replay.end());
    }
    SpillComparison spill;
    if (w->memory_limit_bytes > 0) {
      StatusOr<SpillComparison> compared =
          CompareSpill(env.get(), *w, replayed, args.seconds * 0.2);
      if (compared.ok()) {
        spill = *compared;
      } else {
        failures.push_back(compared.status().ToString());
      }
    }
    std::vector<const QueryRecord*> all = Pointers(untraced.records);
    int64_t completed = untraced.completed();
    for (const WindowResult& slice : traced) {
      for (const QueryRecord& r : slice.records) all.push_back(&r);
      completed += slice.completed();
    }
    verified = Verify(env->db.get(), *w, all);
    for (std::string& f : CheckFacts(*w, untraced)) failures.push_back(f);
    for (const WindowResult& slice : traced) {
      for (std::string& f : CheckFacts(*w, slice)) failures.push_back(f);
    }
    metrics = PerLayer(*w, untraced, traced, direct, spill, report);
    WriteTrace((std::filesystem::path(args.work_dir) /
                ("trace-" + w->name + "-seed" + std::to_string(args.seed) +
                 ".jsonl"))
                   .string(),
               traced, direct_spans);
    attempted = static_cast<int64_t>(all.size());
    failed = attempted - completed;
    defs = &PerLayerMetrics();
  }
  env.reset();

  if (verified.mismatches > 0) {
    failures.push_back(std::to_string(verified.mismatches) +
                       " wrong results; first: " + verified.first);
  }
  std::cout << report.str();
  std::string lines, missing;
  if (!FormatMetricLines(*defs, metrics, &lines, &missing)) {
    failures.push_back("metric not computed: " + missing);
  }
  std::cout << "metrics:\n" << lines;
  for (const std::string& f : failures) std::cout << "FAILED: " << f << "\n";
  std::cout << FormatResultJson(failures.empty(), attempted, failed, *defs,
                                metrics)
            << std::endl;
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace magicdb::perfbench

int main(int argc, char** argv) {
  using namespace magicdb::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>]\n";
    return 2;
  }
  if (const std::string refusal = BuildRefusal(); !refusal.empty()) {
    std::cerr << "refusing to benchmark: " << refusal << "\n";
    return 2;
  }
  return Run(args);
}
