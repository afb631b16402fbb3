#ifndef MAGICDB_EXEC_STREAM_PUMP_H_
#define MAGICDB_EXEC_STREAM_PUMP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/cost_counters.h"
#include "src/common/statusor.h"
#include "src/exec/exec_context.h"
#include "src/exec/filter_join_op.h"
#include "src/exec/operator.h"
#include "src/exec/result_sink.h"

namespace magicdb {

class ThreadPool;

/// Defaults of a result stream's queue high-water mark and pump quantum
/// (rows): the query service's stream_queue_rows and scheduler_quantum_rows,
/// and the fixed values of the embedded drains.
inline constexpr int64_t kDefaultStreamQueueRows = 8192;
inline constexpr int64_t kDefaultQuantumRows = 1024;

/// One producer of a query's result stream: an operator tree and the
/// context it runs under. `ctx` is declared first so it outlives `root`,
/// whose operators release memory through it when destroyed.
struct StreamLane {
  std::unique_ptr<ExecContext> ctx;
  OpPtr root;
  /// Open() already ran (a gang replica, or an eagerly opened sequential
  /// tree); otherwise the lane's first quantum opens it.
  bool opened = false;
};

/// Drives the lanes of a started query into the same-numbered lanes of a
/// ResultSink, as cooperative tasks on a thread pool. A task runs one
/// quantum of one lane: park on a full sink lane, check cancellation, pull
/// up to `quantum_rows` rows (opening the tree first if needed), push them
/// with their rank tags, then re-submit itself or finish the lane (closing
/// its tree at end of data). No task ever waits, so a stopped consumer
/// holds no pool thread. A lane's state is touched only by its current
/// task; successive tasks are ordered through the pool's queue locks and,
/// across a park, the sink's mutex.
class StreamPump : public std::enable_shared_from_this<StreamPump> {
 public:
  StreamPump(std::vector<StreamLane> lanes, std::shared_ptr<ResultSink> sink,
             ThreadPool* pool, int64_t quantum_rows);
  virtual ~StreamPump() = default;
  StreamPump(const StreamPump&) = delete;
  StreamPump& operator=(const StreamPump&) = delete;

  /// Submits every lane's first quantum.
  void Start();

  /// Ends every lane with `status` instead of running it (an eager Open
  /// failed); the totals are taken as for a stream that ran.
  void Fail(Status status);

  /// Every lane's work, summed, and the measured phases of every Filter Join
  /// in the tree, outermost first, each summed over the lanes. Taken by the
  /// lane that finishes last; final once the sink has finished.
  const CostCounters& counters() const { return counters_; }
  const std::vector<FilterJoinMeasured>& filter_join_measured() const {
    return filter_join_measured_;
  }

 protected:
  std::vector<StreamLane>& lanes() { return lanes_; }

  /// One quantum's work on `lane`: Pull, which the query service wraps in
  /// its shared DDL lock and a re-check of the catalog epoch.
  virtual Status Quantum(int lane, std::vector<Tuple>* rows,
                         std::vector<RowRank>* ranks, bool* eof) {
    return Pull(lane, rows, ranks, eof);
  }
  /// Opens `lane` if needed, then pulls whole batches while they fit in the
  /// quantum; closes the lane's tree at end of data.
  Status Pull(int lane, std::vector<Tuple>* rows, std::vector<RowRank>* ranks,
              bool* eof);
  /// A lane parked on a full sink lane.
  virtual void Parked() {}
  /// Called once, by the lane that finishes last, after the totals are
  /// final and before its Finish publishes the end of the stream. `ok` is
  /// true when every lane ended cleanly.
  virtual void Finished(bool ok) { (void)ok; }

 private:
  void Submit(int lane);
  void Pump(int lane);
  void FinishLane(int lane, Status status);

  std::vector<StreamLane> lanes_;
  std::vector<std::unique_ptr<RowBatch>> batches_;  // per lane, lazily
  const std::shared_ptr<ResultSink> sink_;
  ThreadPool* const pool_;
  const int64_t quantum_rows_;
  std::atomic<int> lanes_left_;
  std::atomic<bool> lane_failed_{false};
  CostCounters counters_;
  std::vector<FilterJoinMeasured> filter_join_measured_;
};

/// Runs `lanes` to completion and returns their rows in sequential order,
/// with their totals as StreamPump takes them. One lane is opened (unless
/// it was) and drained on the caller's thread. Several lanes (a gang's
/// replicas) are pumped on `pool` into a kDefaultStreamQueueRows sink under
/// the lanes' memory tracker, which the caller's thread drains; a failure
/// returns once every lane has finished.
StatusOr<std::vector<Tuple>> DrainLanes(
    std::vector<StreamLane> lanes, ThreadPool* pool, CostCounters* counters,
    std::vector<FilterJoinMeasured>* filter_join_measured);

}  // namespace magicdb

#endif  // MAGICDB_EXEC_STREAM_PUMP_H_
