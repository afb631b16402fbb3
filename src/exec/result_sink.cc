#include "src/exec/result_sink.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/failpoint.h"

namespace magicdb {

namespace {
// Poll period for consumer-side waits: long enough to be free, short
// enough that a deadline firing while blocked surfaces promptly (the same
// bound the admission controller uses).
constexpr std::chrono::milliseconds kWaitTick{2};
}  // namespace

ResultSink::ResultSink(int64_t high_water_rows)
    : high_water_rows_(high_water_rows < 1 ? 1 : high_water_rows),
      lanes_(1),
      lane_high_water_(high_water_rows_) {}

void ResultSink::set_lanes(int lanes) {
  std::lock_guard<std::mutex> lock(mu_);
  lanes = std::max(1, lanes);
  lanes_ = std::vector<Lane>(static_cast<size_t>(lanes));
  unfinished_lanes_ = lanes;
  lane_high_water_ = std::max<int64_t>(1, high_water_rows_ / lanes);
}

bool ResultSink::ReserveOrPark(int lane, std::function<void()> resume) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Lane& l = lanes_[static_cast<size_t>(lane)];
    // While draining, capacity is unbounded on purpose: the consumer is
    // discarding rows and only wants the producers to reach Finish.
    if (draining_ || static_cast<int64_t>(l.rows.size()) < lane_high_water_) {
      return true;
    }
    l.parked_resume = std::move(resume);
    ++producer_parks_;
  }
  // Delay-injection site for the park/resume handoff: an injected sleep
  // here lands between publishing the resume closure and the producer's
  // return, the window a racing Fetch can re-submit the producer in.
  MAGICDB_FAILPOINT_HIT("server.sink.park");
  return false;
}

Status ResultSink::Push(int lane, std::vector<Tuple> rows,
                        const std::vector<RowRank>& ranks) {
  if (rows.empty()) return Status::OK();
  if (tracker_ != nullptr) {
    int64_t batch_bytes = 0;
    for (const Tuple& t : rows) batch_bytes += TupleByteWidth(t);
    MAGICDB_RETURN_IF_ERROR(tracker_->Charge(batch_bytes));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    Lane& l = lanes_[static_cast<size_t>(lane)];
    const auto n = static_cast<int64_t>(rows.size());
    total_rows_pushed_ += n;
    queued_rows_ += n;
    if (queued_rows_ > peak_queued_rows_) peak_queued_rows_ = queued_rows_;
    for (Tuple& t : rows) l.rows.push_back(std::move(t));
    if (lanes_.size() > 1) {
      l.ranks.insert(l.ranks.end(), ranks.begin(), ranks.end());
      l.frontier = ranks.back();
    }
  }
  consumer_cv_.notify_all();
  return Status::OK();
}

void ResultSink::Finish(int lane, Status status) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Lane& l = lanes_[static_cast<size_t>(lane)];
    if (l.finished) return;
    l.finished = true;
    l.ended = status.ok();
    --unfinished_lanes_;
    if (!status.ok() && final_status_.ok()) final_status_ = std::move(status);
  }
  consumer_cv_.notify_all();
}

int ResultSink::NextLaneLocked() const {
  int next = -1;
  for (size_t i = 0; i < lanes_.size(); ++i) {
    if (!lanes_[i].rows.empty() &&
        (next < 0 || lanes_[i].ranks.front() <
                         lanes_[static_cast<size_t>(next)].ranks.front())) {
      next = static_cast<int>(i);
    }
  }
  if (next < 0) return -1;
  const RowRank& head = lanes_[static_cast<size_t>(next)].ranks.front();
  for (const Lane& l : lanes_) {
    // A lane with nothing queued may still push rows ranked at or past its
    // frontier, so the head must lie strictly below it.
    if (l.rows.empty() && !l.ended && !(head < l.frontier)) return -1;
  }
  return next;
}

void ResultSink::PopLocked(int64_t max_rows, std::vector<Tuple>* out,
                           std::vector<std::function<void()>>* resumes) {
  int64_t popped_bytes = 0;
  const bool merge = lanes_.size() > 1;
  out->reserve(static_cast<size_t>(std::min(max_rows, queued_rows_)));
  while (static_cast<int64_t>(out->size()) < max_rows) {
    const int next =
        merge ? NextLaneLocked() : (lanes_[0].rows.empty() ? -1 : 0);
    if (next < 0) break;
    Lane& l = lanes_[static_cast<size_t>(next)];
    if (tracker_ != nullptr) popped_bytes += TupleByteWidth(l.rows.front());
    out->push_back(std::move(l.rows.front()));
    l.rows.pop_front();
    if (merge) l.ranks.pop_front();
    --queued_rows_;
  }
  if (tracker_ != nullptr) tracker_->Release(popped_bytes);
  for (Lane& l : lanes_) {
    if (l.parked_resume != nullptr &&
        static_cast<int64_t>(l.rows.size()) < lane_high_water_) {
      resumes->push_back(std::move(l.parked_resume));
      l.parked_resume = nullptr;
    }
  }
}

StatusOr<std::vector<Tuple>> ResultSink::Fetch(int64_t max_rows,
                                               const CancelToken* token) {
  std::vector<std::function<void()>> resumes;
  StatusOr<std::vector<Tuple>> result = std::vector<Tuple>{};
  {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      // The consumer's own deadline/cancel outranks buffered rows: a fired
      // token must surface at this Fetch, not after the buffer drains.
      if (token != nullptr) {
        Status s = token->Check();
        if (!s.ok()) return s;
      }
      PopLocked(max_rows, &*result, &resumes);
      if (!result->empty()) break;
      // Nothing may go out: report a failed stream's error, or the clean
      // end of stream (an empty OK batch) once every lane ended.
      if (!final_status_.ok()) return final_status_;
      if (unfinished_lanes_ == 0) break;
      consumer_cv_.wait_for(lock, kWaitTick);
    }
  }
  for (std::function<void()>& resume : resumes) resume();
  return result;
}

void ResultSink::Drain() {
  while (true) {
    std::vector<std::function<void()>> resumes;
    {
      std::unique_lock<std::mutex> lock(mu_);
      draining_ = true;
      int64_t discarded_bytes = 0;
      for (Lane& l : lanes_) {
        if (tracker_ != nullptr) {
          for (const Tuple& t : l.rows) discarded_bytes += TupleByteWidth(t);
        }
        l.rows.clear();
        l.ranks.clear();
        if (l.parked_resume != nullptr) {
          resumes.push_back(std::move(l.parked_resume));
          l.parked_resume = nullptr;
        }
      }
      if (tracker_ != nullptr) tracker_->Release(discarded_bytes);
      queued_rows_ = 0;
      if (unfinished_lanes_ == 0) return;
      // The next pass discards what the producers push meanwhile.
      if (resumes.empty()) consumer_cv_.wait_for(lock, kWaitTick);
    }
    for (std::function<void()>& resume : resumes) resume();
  }
}

bool ResultSink::awaiting_consumer() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Lane& l : lanes_) {
    if (!l.finished && l.parked_resume == nullptr) return false;
  }
  return true;
}

Status ResultSink::final_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return final_status_;
}

}  // namespace magicdb
