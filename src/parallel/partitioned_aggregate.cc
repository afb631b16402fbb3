#include "src/parallel/partitioned_aggregate.h"

#include <utility>

#include "src/common/cost_counters.h"
#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/exec/exec_context.h"

namespace magicdb {

SharedAggregate::SharedAggregate(int num_workers, int64_t memory_budget_bytes)
    : num_workers_(num_workers),
      memory_budget_bytes_(memory_budget_bytes),
      staging_(num_workers),
      staged_barrier_(num_workers) {}

void SharedAggregate::Stage(int worker, StagedGroup group) {
  staging_.Stage(worker, std::move(group));
}

void SharedAggregate::AddInputBytes(int64_t bytes) {
  total_input_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

Status SharedAggregate::MergeOwnPartition(int worker, ExecContext* ctx,
                                          HashTable<StagedGroup>* merged) {
  // Injected merge fault fires before the barrier: the failing worker
  // unwinds through worker_fn's abort path, which aborts every barrier and
  // releases the peers — arriving first and then failing would strand them.
  MAGICDB_FAILPOINT("parallel.aggregate.merge");
  // All staging writes happen-before the barrier; afterwards partition
  // `worker` is read by this worker only, so one barrier suffices.
  MAGICDB_RETURN_IF_ERROR(staged_barrier_.ArriveAndWait());

  // Sequential first-seen order within the partition: ascending first-seen
  // input rank. Combining equal keys in this order also fixes the double
  // summation order deterministically at every DoP.
  merged->Clear();
  for (StagedGroup& g : staging_.Gather(worker)) {
    auto [into, fresh] = merged->FindOrInsert(
        g.hash,
        [&](const StagedGroup& m) { return CompareTuples(m.key, g.key) == 0; },
        [&] { return std::move(g); });
    if (fresh) continue;
    MAGICDB_CHECK(into->states.size() == g.states.size());
    for (size_t a = 0; a < g.states.size(); ++a) {
      into->states[a].CombineFrom(g.states[a]);
    }
  }

  if (worker == 0) {
    // Grace partitioning-pass decision on the *global* input size, charged
    // exactly once (attribution to worker 0 is arbitrary; merged totals
    // are what the single-writer counter contract guarantees).
    ChargeSpillPasses(total_input_bytes_.load(std::memory_order_relaxed),
                      memory_budget_bytes_, &ctx->counters());
  }
  return Status::OK();
}

void SharedAggregate::Abort(Status status) {
  staged_barrier_.Abort(std::move(status));
}

}  // namespace magicdb
