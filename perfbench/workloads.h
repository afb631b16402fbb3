#ifndef MAGICDB_PERFBENCH_WORKLOADS_H_
#define MAGICDB_PERFBENCH_WORKLOADS_H_

// The four traffic mixes. Each is a closed loop of `sessions` clients over
// one shared QueryService; a client sends its next statement only after the
// previous cursor is closed. Statements fall into an odd number of classes
// with equal shares, issued in rounds that each visit every class once in a
// seeded order, so the median and the p95 of a run fall inside one class.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "src/common/random.h"
#include "src/optimizer/optimizer_options.h"

namespace magicdb::perfbench {

struct Statement {
  int cls = 0;
  int64_t key = 0;
};

/// How a query's result is checked after the timed window.
enum class Reference {
  /// Database::Run at dop 1 with magic disabled (MagicMode::kNever),
  /// compared as a multiset: a Filter Join must preserve the result.
  kNoMagicMultiset,
  /// Database::Run at dop 1 under the session's options: rows byte-identical
  /// in order and CostCounters equal.
  kDop1Identical,
  /// Database::Run at dop 1 without a memory limit: rows byte-identical in
  /// order.
  kUngovernedOrdered,
};

struct WorkloadSpec {
  std::string name;
  int sessions = 1;
  int dop = 1;
  /// Per-query memory limit; > 0 governs every query and gives the service
  /// a spill area, <= 0 runs every query explicitly ungoverned.
  int64_t memory_limit_bytes = -1;
  Reference reference = Reference::kNoMagicMultiset;
  std::vector<std::string> classes;
  /// Distinct statement texts per class, fixed for the run; empty when
  /// every statement text is new (`unique_texts`).
  std::vector<std::vector<std::string>> texts;
  /// Every statement gets a text never issued before in the run.
  bool unique_texts = false;
  /// Facts the workload depends on, asserted over every timed window:
  /// the plan-cache hit-rate range, and whether every plan must contain a
  /// Filter Join. (dop > 1 also asserts that every query ran at that dop
  /// with no fallback; a memory limit, that every query spilled and stayed
  /// within it.)
  double min_plan_cache_hit_rate = 0.0;
  double max_plan_cache_hit_rate = 1.0;
  bool every_plan_has_filter_join = false;
  uint64_t seed = 0;

  /// The text of statement `key` of class `cls`: an index into texts[cls],
  /// or, with unique_texts, a statement number (0 for the warm-up, from 1
  /// in the timed window).
  std::string Text(int cls, int64_t key) const;

  /// Session optimizer options (also used by the dop-1 reference runs). At
  /// dop > 1, nested loops, index nested loops and sort-merge are off so
  /// every plan is parallel-safe.
  OptimizerOptions optimizer_options() const;

  Checksum::Mode checksum_mode() const {
    return reference == Reference::kNoMagicMultiset ? Checksum::Mode::kMultiset
                                                    : Checksum::Mode::kOrdered;
  }

  /// The warm-up pass of set-up: every distinct text of a fixed-text
  /// workload, one statement per class otherwise.
  std::vector<Statement> WarmupStatements() const;

  /// Distinct statement texts, counting unique-text workloads as unbounded
  /// (-1).
  int64_t distinct_texts() const;
};

/// Names accepted by MakeWorkload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds the named workload for `seed`; null for an unknown name.
std::unique_ptr<WorkloadSpec> MakeWorkload(const std::string& name,
                                           uint64_t seed);

/// One session's statement sequence: deterministic in (seed, session).
class StatementStream {
 public:
  StatementStream(const WorkloadSpec* workload, int session);

  Statement Next();

 private:
  const WorkloadSpec* workload_;
  int session_;
  Random rng_;
  std::vector<int> round_;
  size_t pos_;
  int64_t issued_ = 0;
};

}  // namespace magicdb::perfbench

#endif  // MAGICDB_PERFBENCH_WORKLOADS_H_
