#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

namespace magicdb::perfbench {
namespace {

// splitmix64 finalizer: a bijective mixer, so distinct row hashes stay
// distinct and a multiset sum of them does not cancel structurally.
uint64_t Mix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashValue(const Value& v) {
  switch (v.type()) {
    case DataType::kInt64:
      return Mix(1 ^ Mix(static_cast<uint64_t>(v.AsInt64())));
    case DataType::kDouble: {
      const double d = v.AsDouble();
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix(2 ^ Mix(bits));
    }
    case DataType::kBool:
      return Mix(3 ^ (v.AsBool() ? 1 : 0));
    case DataType::kString: {
      uint64_t h = 4;
      for (unsigned char c : v.AsString()) h = Mix(h ^ c);
      return Mix(h);
    }
    default:
      return Mix(5);  // NULL
  }
}

// Enough digits that the text reads back as exactly `v`.
std::string FullDigits(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

PercentileResult Percentile(std::vector<double> values, int64_t failures,
                            double q) {
  PercentileResult r;
  r.count = static_cast<int64_t>(values.size()) + failures;
  if (r.count == 0 || q <= 0.0 || q > 1.0) return r;
  // Nearest rank: the smallest sample with at least q * n samples at or
  // below it.
  const int64_t rank = static_cast<int64_t>(
      std::ceil(q * static_cast<double>(r.count) - 1e-9));
  const int64_t index = std::max<int64_t>(rank, 1) - 1;
  r.beyond = r.count - (index + 1);
  r.supported = r.beyond >= kMinSamplesBeyond;
  if (index >= static_cast<int64_t>(values.size())) {
    r.value = kFailedSample;
  } else {
    std::nth_element(values.begin(), values.begin() + index, values.end());
    r.value = values[static_cast<size_t>(index)];
  }
  return r;
}

uint64_t Checksum::RowHash(const Tuple& row) {
  uint64_t h = Mix(row.size());
  for (const Value& v : row) h = Mix(h ^ HashValue(v));
  return h;
}

void Checksum::Add(const Tuple& row) {
  const uint64_t h = RowHash(row);
  if (mode_ == Mode::kOrdered) {
    digest_ = Mix(digest_ ^ h);
  } else {
    digest_ += Mix(h);  // commutative: the order rows arrive in is lost
  }
  ++rows_;
}

int SpanRecorder::Begin(const std::string& name, int parent,
                        int64_t query_id, double start_us) {
  Span s;
  s.name = name;
  s.start_us = start_us;
  s.end_us = start_us;
  s.parent = parent;
  s.query_id = query_id;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

double SelfTimeUs(const std::vector<Span>& spans, int index) {
  const Span& self = spans[static_cast<size_t>(index)];
  std::vector<std::pair<double, double>> children;
  for (const Span& s : spans) {
    if (s.parent != index) continue;
    const double lo = std::max(s.start_us, self.start_us);
    const double hi = std::min(s.end_us, self.end_us);
    if (hi > lo) children.emplace_back(lo, hi);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double run_lo = 0.0, run_hi = 0.0;
  bool open = false;
  for (const auto& [lo, hi] : children) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return self.duration_us() - covered;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"qps", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p95_ms", "ms"},
      {"ttfr_p50_ms", "ms"},
      {"success_rate", "ratio"},
      {"cpu_ms_per_query", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"sql.bind_us_p50", "us"},
      {"optimizer.plan_us_p50", "us"},
      {"optimizer.join_steps_costed", "count"},
      {"optimizer.dp_entries", "count"},
      {"optimizer.nested_optimizations", "count"},
      {"optimizer.filter_joins_costed", "count"},
      {"optimizer.eq_class_hit_rate", "ratio"},
      {"optimizer.cost_qerror_p50", "ratio"},
      {"optimizer.filter_join_plan_share", "ratio"},
      {"server.open_us_p50", "us"},
      {"server.fetch_us_p50", "us"},
      {"server.close_us_p50", "us"},
      {"server.self_us_p50", "us"},
      {"server.admission_wait_us_p95", "us"},
      {"server.sink_wait_us_p95", "us"},
      {"server.plan_cache_hit_rate", "ratio"},
      {"server.instance_reuse_rate", "ratio"},
      {"server.sched_quanta", "count"},
      {"server.producer_parks", "count"},
      {"server.retries", "count"},
      {"exec.drain_us_p50", "us"},
      {"exec.ns_per_tuple", "ns"},
      {"exec.tuples_processed", "count"},
      {"exec.hash_operations", "count"},
      {"exec.exprs_evaluated", "count"},
      {"exec.fj_share.production", "ratio"},
      {"exec.fj_share.projection", "ratio"},
      {"exec.fj_share.avail_filter", "ratio"},
      {"exec.fj_share.filter_inner", "ratio"},
      {"exec.fj_share.final_join", "ratio"},
      {"storage.pages_read", "count"},
      {"parallel.run_us_p50", "us"},
      {"parallel.speedup_vs_dop1", "ratio"},
      {"parallel.cpu_vs_dop1", "ratio"},
      {"parallel.open_share_of_latency", "ratio"},
      {"parallel.fallbacks", "count"},
      {"parallel.morsels_stolen", "count"},
      {"spill.bytes_written", "bytes"},
      {"spill.bytes_read", "bytes"},
      {"spill.partitions_opened", "count"},
      {"spill.recursion_depth_max", "count"},
      {"spill.slowdown_vs_in_memory", "ratio"},
      {"spill.io_mb_per_s", "MB/s"},
      {"spill.peak_over_limit", "ratio"},
      {"trace.qps_ratio", "ratio"},
  };
  return kDefs;
}

bool FormatMetricLines(const std::vector<MetricDef>& defs,
                       const std::map<std::string, MetricValue>& values,
                       std::string* out, std::string* missing) {
  std::ostringstream os;
  for (const MetricDef& def : defs) {
    auto it = values.find(def.name);
    if (it == values.end()) {
      *missing = def.name;
      return false;
    }
    char line[160];
    std::snprintf(line, sizeof(line), "  %-34s %16.6f %-6s n=%lld\n",
                  def.name, it->second.value, def.unit,
                  static_cast<long long>(it->second.samples));
    os << line;
  }
  *out = os.str();
  return true;
}

std::string FormatResultJson(bool correct, int64_t attempted, int64_t failed,
                             const std::vector<MetricDef>& defs,
                             const std::map<std::string, MetricValue>& values) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : defs) {
    auto it = values.find(def.name);
    double v = it == values.end() ? 0.0 : it->second.value;
    // JSON has no infinity; a percentile on a failed sample reads as the
    // largest finite double, which misses any limit.
    if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
    if (!first) os << ", ";
    first = false;
    os << "\"" << def.name << "\": {\"value\": " << FullDigits(v)
       << ", \"unit\": \"" << def.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace magicdb::perfbench
