#include "src/exec/stream_pump.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/parallel/thread_pool.h"

namespace magicdb {

namespace {

/// Sums every lane's counters, and each Filter Join's measured phases over
/// the lanes, in lane order.
void SumLanes(const std::vector<StreamLane>& lanes, CostCounters* counters,
              std::vector<FilterJoinMeasured>* filter_join_measured) {
  *counters = CostCounters();
  filter_join_measured->clear();
  for (const StreamLane& lane : lanes) {
    lane.ctx->counters().AssertNonNegative();
    *counters += lane.ctx->counters();
    std::vector<FilterJoinMeasured> measured;
    CollectFilterJoinMeasured(*lane.root, &measured);
    if (filter_join_measured->empty()) {
      *filter_join_measured = std::move(measured);
      continue;
    }
    // Replicas are isomorphic, so their Filter Joins pair up in order.
    MAGICDB_CHECK(measured.size() == filter_join_measured->size());
    for (size_t i = 0; i < measured.size(); ++i) {
      (*filter_join_measured)[i] += measured[i];
    }
  }
}

}  // namespace

StreamPump::StreamPump(std::vector<StreamLane> lanes,
                       std::shared_ptr<ResultSink> sink, ThreadPool* pool,
                       int64_t quantum_rows)
    : lanes_(std::move(lanes)),
      batches_(lanes_.size()),
      sink_(std::move(sink)),
      pool_(pool),
      quantum_rows_(std::max<int64_t>(1, quantum_rows)),
      lanes_left_(static_cast<int>(lanes_.size())) {
  MAGICDB_CHECK(!lanes_.empty());
}

void StreamPump::Start() {
  for (size_t lane = 0; lane < lanes_.size(); ++lane) {
    Submit(static_cast<int>(lane));
  }
}

void StreamPump::Fail(Status status) {
  for (size_t lane = 0; lane < lanes_.size(); ++lane) {
    FinishLane(static_cast<int>(lane), status);
  }
}

void StreamPump::Submit(int lane) {
  pool_->Submit([self = shared_from_this(), lane] { self->Pump(lane); });
}

void StreamPump::Pump(int lane) {
  // Backpressure before anything else: on a full lane the producer parks —
  // stores its resume closure in the sink and returns the worker without
  // rescheduling. The consumer's Fetch re-submits it after draining the
  // lane below its high-water mark.
  if (!sink_->ReserveOrPark(lane, [self = shared_from_this(), lane] {
        // Delay-injection site in the consumer-driven resume path; runs on
        // the consumer's thread just before the lane is re-queued.
        MAGICDB_FAILPOINT_HIT("server.sink.resume");
        self->Submit(lane);
      })) {
    Parked();
    return;
  }
  StreamLane& l = lanes_[static_cast<size_t>(lane)];
  Status status = l.ctx->CheckCancelled();
  if (status.ok() && lanes_.size() > 1 && !sink_->final_status().ok()) {
    // Another lane's error already decided the stream's outcome.
    status = Status::Cancelled("result stream failed in another lane");
  }
  bool eof = false;
  std::vector<Tuple> rows;
  std::vector<RowRank> ranks;
  if (status.ok()) {
    status = Quantum(lane, &rows, &ranks, &eof);
  }
  // A quantum that ran (even to an empty batch or an error) is progress;
  // a parked lane returned above, so parking never feeds the watchdog.
  l.ctx->NoteProgress(static_cast<int64_t>(rows.size()) + 1);
  if (!rows.empty()) {
    Status push = MAGICDB_FAILPOINT_EVAL("server.sink.push");
    if (push.ok()) push = sink_->Push(lane, std::move(rows), ranks);
    // A failed push (injected fault, or the queued rows breaching the
    // memory limit) fails the lane; an earlier execution error wins.
    if (status.ok() && !push.ok()) status = std::move(push);
  }
  if (!status.ok() || eof) {
    FinishLane(lane, std::move(status));
    return;
  }
  // Yield: re-enqueue at the back of the pool's queue so concurrently
  // running streams interleave at quantum granularity.
  Submit(lane);
}

Status StreamPump::Pull(int lane, std::vector<Tuple>* rows,
                        std::vector<RowRank>* ranks, bool* eof) {
  StreamLane& l = lanes_[static_cast<size_t>(lane)];
  if (!l.opened) {
    MAGICDB_RETURN_IF_ERROR(l.root->Open(l.ctx.get()));
    l.opened = true;
  }
  // The pump batch is capped at the quantum, and another batch is pulled
  // only while a full one still fits, so one quantum never delivers more
  // than quantum_rows rows — the sink's buffered-rows bound stays batch-size
  // independent.
  const int64_t cap = std::min(l.ctx->batch_size(), quantum_rows_);
  std::unique_ptr<RowBatch>& batch = batches_[static_cast<size_t>(lane)];
  if (batch == nullptr) {
    batch = std::make_unique<RowBatch>(static_cast<int32_t>(cap));
  }
  const bool ranked = lanes_.size() > 1;
  while (static_cast<int64_t>(rows->size()) + cap <= quantum_rows_) {
    MAGICDB_RETURN_IF_ERROR(l.root->NextBatch(batch.get(), eof));
    const int32_t n = batch->num_rows();
    if (ranked && n > 0) {
      if (!batch->has_ranks()) {
        return Status::Internal("parallel pipeline batch lacks rank tags");
      }
      for (size_t r = 0; r < static_cast<size_t>(n); ++r) {
        ranks->push_back({batch->pos()[r], batch->sub()[r]});
      }
    }
    batch->MoveActiveToTuples(rows);
    if (*eof) return l.root->Close();
  }
  return Status::OK();
}

void StreamPump::FinishLane(int lane, Status status) {
  if (!status.ok()) lane_failed_.store(true, std::memory_order_relaxed);
  // The last lane to finish sees every other lane's final state: each one
  // released it with this decrement.
  if (lanes_left_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    SumLanes(lanes_, &counters_, &filter_join_measured_);
    Finished(!lane_failed_.load(std::memory_order_relaxed));
  }
  // Finish last: it publishes the terminal state (the totals included —
  // the sink's mutex orders the handoff) to the consumer.
  sink_->Finish(lane, std::move(status));
}

StatusOr<std::vector<Tuple>> DrainLanes(
    std::vector<StreamLane> lanes, ThreadPool* pool, CostCounters* counters,
    std::vector<FilterJoinMeasured>* filter_join_measured) {
  if (lanes.size() == 1) {
    StreamLane& lane = lanes[0];
    if (!lane.opened) MAGICDB_RETURN_IF_ERROR(lane.root->Open(lane.ctx.get()));
    MAGICDB_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                             DrainToVector(lane.root.get(), lane.ctx.get()));
    SumLanes(lanes, counters, filter_join_measured);
    return rows;
  }
  MAGICDB_CHECK(pool != nullptr);
  auto sink = std::make_shared<ResultSink>(kDefaultStreamQueueRows);
  sink->set_lanes(static_cast<int>(lanes.size()));
  sink->set_memory_tracker(lanes[0].ctx->memory_tracker());
  auto pump = std::make_shared<StreamPump>(std::move(lanes), sink, pool,
                                           kDefaultQuantumRows);
  pump->Start();
  std::vector<Tuple> rows;
  while (true) {
    StatusOr<std::vector<Tuple>> batch =
        sink->Fetch(kDefaultStreamQueueRows, /*token=*/nullptr);
    if (!batch.ok()) {
      sink->Drain();  // the other lanes stop at their next quantum
      return batch.status();
    }
    if (batch->empty()) break;
    rows.insert(rows.end(), std::make_move_iterator(batch->begin()),
                std::make_move_iterator(batch->end()));
  }
  *counters = pump->counters();
  *filter_join_measured = pump->filter_join_measured();
  return rows;
}

}  // namespace magicdb
