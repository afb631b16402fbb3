#include "workloads.h"

#include <initializer_list>
#include <set>
#include <utility>

#include "dataset.h"

namespace magicdb::perfbench {
namespace {

// Spill statements work on a seeded range of departments (20 employees
// each) under a 48 KiB limit. The sizes keep every working set 1.8 to 3
// times the limit while each query spills a few hundred KB, not megabytes:
// the join builds 150 x 20 = 3,000 rows (about 88 KB), the aggregate keeps
// about 400 groups of 4,000 rows (about 96 KB), and the sort buffers 4,000
// rows (about 144 KB).
constexpr int64_t kSpillLimitBytes = 48 * 1024;
constexpr int kSpillJoinDepts = 150;
constexpr int kSpillAggDepts = 200;
constexpr int kSpillSortDepts = 200;

std::string Figure1(const char* age_op, int64_t age, int64_t min_budget) {
  return "SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V "
         "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal "
         "AND E.age " + std::string(age_op) + " " + std::to_string(age) +
         " AND D.budget > " + std::to_string(min_budget);
}

std::string BigDepts(int64_t min_budget) {
  return "SELECT D.did, V.avgsal FROM Dept D, DepAvgSal V "
         "WHERE D.did = V.did AND D.budget > " + std::to_string(min_budget);
}

std::string Figure1AllAges(int64_t min_budget) {
  return "SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V "
         "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal "
         "AND D.budget > " + std::to_string(min_budget);
}

// Figure 1 joined once more with Emp: each qualifying employee of a big
// department paired with every colleague who earns more (about 900 rows).
std::string Figure1Pairs(int64_t min_budget) {
  return "SELECT E.did, E.sal, V.avgsal, F.sal FROM Emp E, Emp F, Dept D, "
         "DepAvgSal V WHERE E.did = D.did AND F.did = D.did AND "
         "E.did = V.did AND E.sal > V.avgsal AND F.sal > E.sal AND "
         "D.budget > " + std::to_string(min_budget);
}

// Thresholds strictly between the two values a column takes select the
// same rows whatever they are, so seeded literals vary the text, not the
// work.
int64_t BudgetThreshold(Random* rng) {
  return rng->UniformInt(static_cast<int64_t>(kSmallBudget),
                         static_cast<int64_t>(kBigBudget) - 1);
}
int64_t YoungBelow(Random* rng) {
  return rng->UniformInt(kYoungAge + 1, kOldAge);
}
int64_t OldAbove(Random* rng) { return rng->UniformInt(kYoungAge, kOldAge - 1); }

std::unique_ptr<WorkloadSpec> ServeHot(uint64_t seed) {
  auto w = std::make_unique<WorkloadSpec>();
  w->name = "serve_hot";
  w->sessions = 4;
  // figure1_pairs takes about 1.7 times as long as any other class, so the
  // p95 falls inside it (see AdhocPlan).
  w->classes = {"figure1", "big_depts", "figure1_all_ages", "figure1_old",
                "figure1_pairs"};
  w->reference = Reference::kNoMagicMultiset;
  w->min_plan_cache_hit_rate = 0.99;
  w->every_plan_has_filter_join = true;
  Random rng(seed ^ 0x5e7e1107ULL);
  std::set<int64_t> used;
  auto distinct_budget = [&] {
    int64_t b = BudgetThreshold(&rng);
    while (!used.insert(b).second) b = BudgetThreshold(&rng);
    return b;
  };
  w->texts.resize(w->classes.size());
  for (int v = 0; v < 3; ++v) {
    w->texts[0].push_back(Figure1("<", YoungBelow(&rng), distinct_budget()));
    w->texts[1].push_back(BigDepts(distinct_budget()));
    w->texts[2].push_back(Figure1AllAges(distinct_budget()));
    w->texts[3].push_back(Figure1(">", OldAbove(&rng), distinct_budget()));
    w->texts[4].push_back(Figure1Pairs(distinct_budget()));
  }
  return w;
}

std::unique_ptr<WorkloadSpec> AdhocPlan() {
  auto w = std::make_unique<WorkloadSpec>();
  w->name = "adhoc_plan";
  // Two sessions: each query plans on its client thread and then runs on a
  // pool thread, so two sessions keep about half of a 4-vCPU host busy and
  // leave room for whatever else runs there. On a shared 4-vCPU VM, two
  // busy-looping neighbour processes raised the p95 by 20% with four
  // sessions and by 6% with two. A ~7 ms query has few thread handoffs, so
  // waking idle vCPUs costs it little (serve_hot's ~1 ms queries differ).
  w->sessions = 2;
  // Four light classes plan in about 3 ms. star_base also joins DimBase0,
  // the base table of the aggregating view Dim0, which triples planning
  // (about 9 ms). So the p95 falls at about the 75th percentile of
  // star_base, not in the thin tail of one mass of equal-cost statements,
  // where a few ms of preemption on 5% of the queries move it. Over ten runs
  // of three equal-cost classes, the p95 spread 0.20 (interquartile range
  // over median) against 0.07 for the p50.
  w->classes = {"star_rows", "star_count", "star_group", "star_min",
                "star_base"};
  w->reference = Reference::kNoMagicMultiset;
  w->unique_texts = true;
  w->max_plan_cache_hit_rate = 0.0;
  return w;
}

std::unique_ptr<WorkloadSpec> AnalyticDop3(uint64_t seed) {
  auto w = std::make_unique<WorkloadSpec>();
  w->name = "analytic_dop3";
  w->sessions = 1;
  // Three gang workers plus the client thread that drains the gather: one
  // thread per vCPU of a 4-vCPU host. At dop 4 the gang waits for its
  // slowest worker whenever anything else takes a vCPU. On a shared VM, in
  // four 10 s runs at each dop (two beside busy-looping processes), the p95
  // of this mix with a 60,000-row hash_join ranged over 33-45 ms at dop 4
  // and 34-36 ms at dop 3, for 7% less throughput.
  w->dop = 3;
  w->reference = Reference::kDop1Identical;
  // hash_join returns the 140,000 older employees' rows, about twice the
  // time of any other class, so the p95 falls inside it. The two light
  // scans keep a run at about 400 queries or more even when the host steals
  // time from every vCPU: without them the mix fell to about 15 queries per
  // second then, 300 per 20 s run against the floor of 200.
  w->classes = {"hash_join", "join_group_by", "filter_join", "group_by",
                "wide_scan", "count_scan", "age_group_by"};
  Random rng(seed ^ 0xa11a1171ULL);
  w->texts = {
      {"SELECT E.did, E.sal, D.budget FROM Emp E, Dept D "
       "WHERE E.did = D.did AND E.age > " + std::to_string(OldAbove(&rng))},
      {"SELECT D.budget, COUNT(*) AS n, MAX(E.sal) AS top FROM Emp E, Dept D "
       "WHERE E.did = D.did AND E.age > " + std::to_string(OldAbove(&rng)) +
       " GROUP BY D.budget"},
      {Figure1("<", YoungBelow(&rng), BudgetThreshold(&rng))},
      // Exact aggregates only: AVG over the DOUBLE sal column is not
      // byte-identical between dop > 1 and dop 1 (see CHANGES.md), and this
      // workload requires byte identity.
      {"SELECT E.did, COUNT(*) AS n, MIN(E.sal) AS low, MAX(E.sal) AS top, "
       "SUM(E.age) AS ages FROM Emp E GROUP BY E.did"},
      {"SELECT E.did, E.sal, E.age FROM Emp E WHERE E.age < " +
       std::to_string(YoungBelow(&rng))},
      {"SELECT COUNT(*) AS n, MAX(E.sal) AS top FROM Emp E WHERE E.age < " +
       std::to_string(YoungBelow(&rng))},
      {"SELECT E.age, COUNT(*) AS n, MAX(E.sal) AS top FROM Emp E "
       "GROUP BY E.age"},
  };
  return w;
}

std::unique_ptr<WorkloadSpec> SpillGoverned(uint64_t seed) {
  auto w = std::make_unique<WorkloadSpec>();
  w->name = "spill_governed";
  w->sessions = 2;
  w->memory_limit_bytes = kSpillLimitBytes;
  w->reference = Reference::kUngovernedOrdered;
  w->classes = {"grace_join", "hybrid_agg", "external_sort"};
  Random rng(seed ^ 0x5b111ULL);
  const DatasetSizes sizes;
  // A seeded range of `depts` departments: depts x 20 rows whatever the
  // seed.
  auto range = [&](int depts, std::initializer_list<const char*> aliases) {
    const int64_t lo = rng.UniformInt(0, sizes.num_depts - depts);
    std::string pred;
    for (const char* a : aliases) {
      if (!pred.empty()) pred += " AND ";
      pred += std::string(a) + ".did >= " + std::to_string(lo) + " AND " + a +
              ".did < " + std::to_string(lo + depts);
    }
    return pred;
  };
  // sal is effectively unique, so the self-join returns each of its input
  // rows once while building a table of all of them. The aggregate groups
  // by (did, age), about two groups per department.
  w->texts = {
      {"SELECT A.did, B.sal FROM Emp A, Emp B WHERE A.sal = B.sal AND " +
       range(kSpillJoinDepts, {"A", "B"})},
      {"SELECT E.did, E.age, COUNT(*) AS c, MIN(E.sal) AS m FROM Emp E "
       "WHERE " + range(kSpillAggDepts, {"E"}) + " GROUP BY E.did, E.age"},
      {"SELECT E.sal, E.age FROM Emp E WHERE " +
       range(kSpillSortDepts, {"E"}) + " ORDER BY sal DESC, age"},
  };
  return w;
}

}  // namespace

std::string WorkloadSpec::Text(int cls, int64_t key) const {
  if (!unique_texts) {
    return texts[static_cast<size_t>(cls)][static_cast<size_t>(key)];
  }
  // The key names an output column, so no two statement numbers share a
  // text, however many are issued; the alias changes neither the plan nor
  // the rows. The five dimension thresholds are drawn from the seed and the
  // statement number.
  Random rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(key));
  const std::string alias = " AS n" + std::to_string(key);
  std::string from = "Fact F";
  std::string where;
  for (int i = 0; i < 5; ++i) {
    const std::string n = std::to_string(i);
    from.append(", Dim").append(n).append(" D").append(n);
    if (!where.empty()) where += " AND ";
    where.append("F.d").append(n).append(" = D").append(n).append(".id AND D");
    where.append(n).append(".attr < ").append(
        std::to_string(rng.UniformInt(2, 9)));
  }
  // MIN and MAX, not SUM: the no-magic reference joins in another order,
  // and a floating-point sum would depend on it.
  std::string select, tail;
  switch (cls) {
    case 0:
      select = "SELECT F.measure" + alias;
      break;
    case 2:
      select = "SELECT D0.attr, COUNT(*)" + alias + ", MAX(F.measure) AS top";
      tail = " GROUP BY D0.attr";
      break;
    case 3:
      select = "SELECT MIN(F.measure)" + alias;
      break;
    case 4:
      select = "SELECT COUNT(*)" + alias;
      from += ", DimBase0 B0";
      where += " AND B0.id = D0.id";
      break;
    default:  // 1: star_count
      select = "SELECT COUNT(*)" + alias;
  }
  return select + " FROM " + from + " WHERE " + where + tail;
}

OptimizerOptions WorkloadSpec::optimizer_options() const {
  OptimizerOptions o;
  if (dop > 1) {
    o.enable_nested_loops = false;
    o.enable_index_nested_loops = false;
    o.enable_sort_merge = false;
  }
  return o;
}

std::vector<Statement> WorkloadSpec::WarmupStatements() const {
  std::vector<Statement> out;
  for (int c = 0; c < static_cast<int>(classes.size()); ++c) {
    if (unique_texts) {
      // Key 0: the timed window starts at key 1, so warm-up never pre-plans
      // a timed statement.
      out.push_back({c, 0});
      continue;
    }
    for (size_t v = 0; v < texts[static_cast<size_t>(c)].size(); ++v) {
      out.push_back({c, static_cast<int64_t>(v)});
    }
  }
  return out;
}

int64_t WorkloadSpec::distinct_texts() const {
  if (unique_texts) return -1;
  int64_t n = 0;
  for (const auto& t : texts) n += static_cast<int64_t>(t.size());
  return n;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "serve_hot", "adhoc_plan", "analytic_dop3", "spill_governed"};
  return kNames;
}

std::unique_ptr<WorkloadSpec> MakeWorkload(const std::string& name,
                                           uint64_t seed) {
  std::unique_ptr<WorkloadSpec> w;
  if (name == "serve_hot") w = ServeHot(seed);
  if (name == "adhoc_plan") w = AdhocPlan();
  if (name == "analytic_dop3") w = AnalyticDop3(seed);
  if (name == "spill_governed") w = SpillGoverned(seed);
  if (w != nullptr) w->seed = seed;
  return w;
}

StatementStream::StatementStream(const WorkloadSpec* workload, int session)
    : workload_(workload),
      session_(session),
      rng_(workload->seed * 1000003ULL + static_cast<uint64_t>(session)),
      round_(workload->classes.size()),
      pos_(round_.size()) {
  for (size_t i = 0; i < round_.size(); ++i) round_[i] = static_cast<int>(i);
}

Statement StatementStream::Next() {
  if (pos_ == round_.size()) {
    for (size_t i = round_.size() - 1; i > 0; --i) {
      std::swap(round_[i], round_[rng_.Uniform(i + 1)]);
    }
    pos_ = 0;
  }
  Statement s;
  s.cls = round_[pos_++];
  if (workload_->unique_texts) {
    s.key = 1 + issued_ * workload_->sessions + session_;
  } else {
    s.key = static_cast<int64_t>(
        rng_.Uniform(workload_->texts[static_cast<size_t>(s.cls)].size()));
  }
  ++issued_;
  return s;
}

}  // namespace magicdb::perfbench
