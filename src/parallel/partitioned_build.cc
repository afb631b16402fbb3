#include "src/parallel/partitioned_build.h"

#include "src/common/cost_counters.h"
#include "src/common/logging.h"
#include "src/exec/exec_context.h"

namespace magicdb {

// ----- CancellableBarrier -----

CancellableBarrier::CancellableBarrier(int parties) : parties_(parties) {
  MAGICDB_CHECK(parties >= 1);
}

Status CancellableBarrier::ArriveAndWait() {
  std::unique_lock<std::mutex> lock(mu_);
  if (aborted_) return abort_status_;
  arrived_ += 1;
  if (arrived_ == parties_) {
    arrived_ = 0;
    generation_ += 1;
    cv_.notify_all();
    return Status::OK();
  }
  const int64_t gen = generation_;
  cv_.wait(lock, [&] { return aborted_ || generation_ != gen; });
  return aborted_ ? abort_status_ : Status::OK();
}

void CancellableBarrier::Abort(Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (aborted_) return;
  aborted_ = true;
  abort_status_ = std::move(status);
  cv_.notify_all();
}

// ----- SharedHashBuild -----

SharedHashBuild::SharedHashBuild(int num_workers, int64_t memory_budget_bytes)
    : num_workers_(num_workers),
      memory_budget_bytes_(memory_budget_bytes),
      staging_(num_workers),
      partitions_(num_workers),
      staged_barrier_(num_workers),
      built_barrier_(num_workers) {}

void SharedHashBuild::Stage(int worker, int64_t pos, uint64_t hash,
                            Tuple row) {
  total_build_bytes_.fetch_add(TupleByteWidth(row),
                               std::memory_order_relaxed);
  staging_.Stage(worker, {pos, hash, std::move(row)});
}

Status SharedHashBuild::FinishStaging(int worker, ExecContext* ctx) {
  MAGICDB_RETURN_IF_ERROR(staged_barrier_.ArriveAndWait());
  // Build the owned partition in sequential scan order. No counters are
  // charged here — the hash work was charged when the rows were staged.
  HashTable<Tuple>& table = partitions_[worker];
  for (StagedRow& r : staging_.Gather(worker)) {
    table.Append(r.hash, std::move(r.row));
  }
  if (worker == 0) {
    // Grace spill decision on the *global* build size, charged exactly once
    // (attribution to worker 0 is arbitrary; merged totals are what the
    // single-writer counter contract guarantees).
    spill_passes_.store(
        ChargeSpillPasses(total_build_bytes_.load(std::memory_order_relaxed),
                          memory_budget_bytes_, &ctx->counters()),
        std::memory_order_relaxed);
  }
  return built_barrier_.ArriveAndWait();
}

void SharedHashBuild::ChargeProbeBytes(ExecContext* ctx, int64_t bytes) {
  const int64_t before = probe_bytes_.fetch_add(bytes,
                                                std::memory_order_relaxed);
  const int64_t pages =
      (before + bytes) / CostConstants::kPageSizeBytes -
      before / CostConstants::kPageSizeBytes;
  if (pages > 0) {
    const int64_t passes = spill_passes_.load(std::memory_order_relaxed);
    ctx->counters().pages_written += pages * passes;
    ctx->counters().pages_read += pages * passes;
  }
}

void SharedHashBuild::Abort(Status status) {
  staged_barrier_.Abort(status);
  built_barrier_.Abort(std::move(status));
}

// ----- SharedFilterJoin -----

SharedFilterJoin::SharedFilterJoin(int num_workers)
    : num_workers_(num_workers),
      staging_(num_workers),
      deduped_(num_workers),
      staged_barrier_(num_workers),
      deduped_barrier_(num_workers),
      inner_barrier_(num_workers) {}

void SharedFilterJoin::StageKey(int worker, int64_t pos, uint64_t hash,
                                Tuple key) {
  staging_.Stage(worker, {pos, hash, std::move(key)});
}

void SharedFilterJoin::AddProductionRows(int64_t rows, int64_t bytes) {
  total_production_rows_.fetch_add(rows, std::memory_order_relaxed);
  total_production_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

Status SharedFilterJoin::StagingDone() {
  return staged_barrier_.ArriveAndWait();
}

Status SharedFilterJoin::DedupPartition(int worker) {
  // First occurrence wins, in sequential production order — identical to
  // the order a single-threaded distinct projection emits keys.
  HashTable<StagedRow> seen;
  for (StagedRow& r : staging_.Gather(worker)) {
    seen.FindOrInsert(
        r.hash,
        [&](const StagedRow& k) { return CompareTuples(k.row, r.row) == 0; },
        [&] { return std::move(r); });
  }
  deduped_[worker] = seen.TakeValues();
  return deduped_barrier_.ArriveAndWait();
}

std::vector<Tuple> SharedFilterJoin::TakeOrderedKeys() {
  std::vector<StagedRow> all;
  for (auto& partition : deduped_) {
    all.insert(all.end(), std::make_move_iterator(partition.begin()),
               std::make_move_iterator(partition.end()));
    partition.clear();
  }
  SortByRank(&all);
  std::vector<Tuple> keys;
  keys.reserve(all.size());
  for (StagedRow& r : all) keys.push_back(std::move(r.row));
  return keys;
}

Status SharedFilterJoin::InnerBarrier() {
  return inner_barrier_.ArriveAndWait();
}

void SharedFilterJoin::Abort(Status status) {
  staged_barrier_.Abort(status);
  deduped_barrier_.Abort(status);
  inner_barrier_.Abort(std::move(status));
}

}  // namespace magicdb
