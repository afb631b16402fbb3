// Tests of the benchmark's own helpers: the percentile rule, span self
// time, result checksums, and the metric names and units it emits.

#include "harness.h"

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "workloads.h"

namespace magicdb::perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, NearestRankNeedsTenSamplesBeyond) {
  // 200 samples: p95 is the 190th, with exactly 10 beyond it.
  PercentileResult p95 = Percentile(OneTo(200), 0, 0.95);
  EXPECT_TRUE(p95.supported);
  EXPECT_EQ(p95.value, 190);
  EXPECT_EQ(p95.beyond, 10);
  EXPECT_EQ(p95.count, 200);

  // 199 samples leave only 9 beyond the 190th: not reportable.
  p95 = Percentile(OneTo(199), 0, 0.95);
  EXPECT_FALSE(p95.supported);
  EXPECT_EQ(p95.beyond, 9);

  PercentileResult p50 = Percentile(OneTo(20), 0, 0.50);
  EXPECT_TRUE(p50.supported);
  EXPECT_EQ(p50.value, 10);
  EXPECT_FALSE(Percentile(OneTo(19), 0, 0.50).supported);
}

TEST(PercentileTest, FailuresCountAsMissingEveryLimit) {
  // 190 measured values and 10 failures: the failures are the top 10, so
  // p95 is still the largest measured value...
  PercentileResult p95 = Percentile(OneTo(190), 10, 0.95);
  EXPECT_EQ(p95.value, 190);
  EXPECT_EQ(p95.count, 200);
  // ...and one more failure pushes p95 onto a failure.
  p95 = Percentile(OneTo(189), 11, 0.95);
  EXPECT_EQ(p95.value, kFailedSample);
  // The median of mostly failures is a failure too.
  EXPECT_EQ(Percentile(OneTo(5), 20, 0.50).value, kFailedSample);
}

TEST(PercentileTest, EmptyIsUnsupported) {
  EXPECT_FALSE(Percentile({}, 0, 0.5).supported);
  EXPECT_EQ(Percentile({}, 0, 0.5).count, 0);
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfOverlappingChildren) {
  SpanRecorder rec;
  const int root = rec.Begin("query", -1, 7, 0);
  const int a = rec.Begin("a", root, 7, 10);
  rec.End(a, 40);
  const int b = rec.Begin("b", root, 7, 30);  // overlaps a by 10
  rec.End(b, 50);
  const int c = rec.Begin("c", root, 7, 70);
  rec.End(c, 80);
  const int grandchild = rec.Begin("g", c, 7, 0);  // not a direct child
  rec.End(grandchild, 100);
  rec.End(root, 100);
  // Children cover [10, 50) and [70, 80): 50 of 100.
  EXPECT_DOUBLE_EQ(SelfTimeUs(rec.spans(), root), 50);
  // A child spilling past its parent is clipped to the parent.
  EXPECT_DOUBLE_EQ(SelfTimeUs(rec.spans(), c), 0);
  EXPECT_DOUBLE_EQ(SelfTimeUs(rec.spans(), a), 30);
  EXPECT_EQ(rec.spans()[static_cast<size_t>(b)].query_id, 7);
}

TEST(SpanTest, NestedAndIdenticalChildrenAreCountedOnce) {
  SpanRecorder rec;
  const int root = rec.Begin("query", -1, 1, 0);
  for (int i = 0; i < 3; ++i) {
    const int s = rec.Begin("same", root, 1, 20);
    rec.End(s, 60);
  }
  const int inner = rec.Begin("inside", root, 1, 30);
  rec.End(inner, 40);
  rec.End(root, 100);
  EXPECT_DOUBLE_EQ(SelfTimeUs(rec.spans(), root), 60);
}

std::vector<Tuple> SampleRows() {
  return {{Value::Int64(1), Value::Double(2.5), Value::String("x")},
          {Value::Int64(2), Value::Double(-0.0), Value::Null()},
          {Value::Int64(1), Value::Double(2.5), Value::String("x")}};
}

Checksum Sum(Checksum::Mode mode, const std::vector<Tuple>& rows) {
  Checksum c(mode);
  c.AddAll(rows);
  return c;
}

TEST(ChecksumTest, OrderedModeDetectsReordering) {
  std::vector<Tuple> rows = SampleRows();
  const Checksum a = Sum(Checksum::Mode::kOrdered, rows);
  std::swap(rows[0], rows[1]);
  const Checksum b = Sum(Checksum::Mode::kOrdered, rows);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Sum(Checksum::Mode::kOrdered, SampleRows()));
}

TEST(ChecksumTest, MultisetModeIgnoresOrderButNotMultiplicity) {
  std::vector<Tuple> rows = SampleRows();
  const Checksum a = Sum(Checksum::Mode::kMultiset, rows);
  std::swap(rows[0], rows[1]);
  EXPECT_EQ(a, Sum(Checksum::Mode::kMultiset, rows));
  // Dropping a duplicate changes both the count and the digest.
  rows.pop_back();
  const Checksum fewer = Sum(Checksum::Mode::kMultiset, rows);
  EXPECT_NE(a, fewer);
  EXPECT_NE(a.digest(), fewer.digest());
  // The two modes never compare equal.
  EXPECT_NE(a, Sum(Checksum::Mode::kOrdered, SampleRows()));
}

TEST(ChecksumTest, ValuesAreDigestedByTypeAndExactBits) {
  const uint64_t i = Checksum::RowHash({Value::Int64(1)});
  const uint64_t d = Checksum::RowHash({Value::Double(1.0)});
  EXPECT_NE(i, d);
  EXPECT_NE(Checksum::RowHash({Value::Double(0.0)}),
            Checksum::RowHash({Value::Double(-0.0)}));
  EXPECT_NE(Checksum::RowHash({Value::Int64(1), Value::Int64(2)}),
            Checksum::RowHash({Value::Int64(2), Value::Int64(1)}));
}

std::string ReadBenchmarkJson() {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void ExpectWellFormed(const std::vector<MetricDef>& defs) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> names;
  for (const MetricDef& d : defs) {
    EXPECT_TRUE(std::regex_match(d.name, name_re)) << d.name;
    EXPECT_TRUE(std::regex_match(d.unit, unit_re)) << d.unit;
    EXPECT_TRUE(names.insert(d.name).second) << "duplicate " << d.name;
  }
}

TEST(MetricsTest, EndToEndNamesAndUnits) {
  const std::vector<MetricDef>& e2e = EndToEndMetrics();
  ExpectWellFormed(e2e);
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"qps", "1/s"},          {"latency_p50_ms", "ms"},
      {"latency_p95_ms", "ms"}, {"ttfr_p50_ms", "ms"},
      {"success_rate", "ratio"}, {"cpu_ms_per_query", "ms"},
      {"setup_s", "s"},        {"peak_rss_mb", "MB"}};
  ASSERT_EQ(e2e.size(), expected.size());
  for (size_t i = 0; i < e2e.size(); ++i) {
    EXPECT_EQ(e2e[i].name, expected[i].first);
    EXPECT_EQ(e2e[i].unit, expected[i].second);
  }
}

TEST(MetricsTest, PerLayerNamesCoverEveryLayer) {
  const std::vector<MetricDef>& layers = PerLayerMetrics();
  ExpectWellFormed(layers);
  std::set<std::string> prefixes;
  for (const MetricDef& d : layers) {
    prefixes.insert(std::string(d.name).substr(0, std::string(d.name).find('.')));
  }
  EXPECT_EQ(prefixes,
            (std::set<std::string>{"sql", "optimizer", "server", "exec",
                                   "storage", "parallel", "spill", "trace"}));
}

TEST(MetricsTest, BenchmarkJsonDeclaresEveryEmittedMetric) {
  const std::string json = ReadBenchmarkJson();
  ASSERT_FALSE(json.empty());
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      const std::string entry = "\"name\": \"" + std::string(d.name) +
                                "\", \"unit\": \"" + d.unit + "\"";
      EXPECT_NE(json.find(entry), std::string::npos) << entry;
    }
  }
  for (const std::string& w : WorkloadNames()) {
    EXPECT_NE(json.find("\"name\": \"" + w + "\""), std::string::npos) << w;
  }
}

TEST(MetricsTest, ResultJsonHasExactlyTheContractKeys) {
  std::map<std::string, MetricValue> values;
  for (const MetricDef& d : EndToEndMetrics()) values[d.name] = {0.1, 3};
  values["latency_p95_ms"] = {kFailedSample, 3};
  const std::string json =
      FormatResultJson(true, 12, 1, EndToEndMetrics(), values);
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 12, \"failed\": 1, "
                       "\"metrics\": {\"qps\": {\"value\": "
                       "0.10000000000000001, \"unit\": \"1/s\"}",
                       0),
            0u);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);

  std::string lines, missing;
  values.erase("setup_s");
  EXPECT_FALSE(FormatMetricLines(EndToEndMetrics(), values, &lines, &missing));
  EXPECT_EQ(missing, "setup_s");
}

TEST(WorkloadTest, StreamsAreSeededAndClassesShareEqually) {
  for (const std::string& name : WorkloadNames()) {
    std::unique_ptr<WorkloadSpec> w = MakeWorkload(name, 11);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->classes.size() % 2, 1u) << name;
    StatementStream a(w.get(), 0), b(w.get(), 0);
    std::vector<int> per_class(w->classes.size(), 0);
    std::set<std::string> texts;
    const int rounds = 40;
    for (size_t i = 0; i < rounds * w->classes.size(); ++i) {
      const Statement s = a.Next();
      const Statement t = b.Next();
      EXPECT_EQ(s.cls, t.cls);
      EXPECT_EQ(s.key, t.key);
      ++per_class[static_cast<size_t>(s.cls)];
      texts.insert(w->Text(s.cls, s.key));
    }
    for (int n : per_class) EXPECT_EQ(n, rounds) << name;
    if (w->unique_texts) {
      EXPECT_EQ(texts.size(), rounds * w->classes.size()) << name;
    } else {
      EXPECT_LE(static_cast<int64_t>(texts.size()), w->distinct_texts());
    }
  }
  EXPECT_EQ(MakeWorkload("nope", 1), nullptr);
}

TEST(WorkloadTest, UniqueTextsHaveNoCap) {
  std::unique_ptr<WorkloadSpec> w = MakeWorkload("adhoc_plan", 11);
  ASSERT_TRUE(w->unique_texts);
  std::set<std::string> texts;
  for (int64_t key : {int64_t{0}, int64_t{1}, int64_t{32767}, int64_t{32768},
                      int64_t{32769}, int64_t{1} << 40}) {
    for (int cls = 0; cls < static_cast<int>(w->classes.size()); ++cls) {
      EXPECT_TRUE(texts.insert(w->Text(cls, key)).second) << key;
    }
  }
  // The warm-up plans key 0 only; the timed window starts at key 1.
  for (const Statement& s : w->WarmupStatements()) EXPECT_EQ(s.key, 0);
  EXPECT_EQ(StatementStream(w.get(), 0).Next().key, 1);
}

}  // namespace
}  // namespace magicdb::perfbench
