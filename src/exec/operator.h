#ifndef MAGICDB_EXEC_OPERATOR_H_
#define MAGICDB_EXEC_OPERATOR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/exec_context.h"
#include "src/exec/row_batch.h"
#include "src/expr/expr.h"
#include "src/types/schema.h"
#include "src/types/tuple.h"

namespace magicdb {

/// Volcano-style physical operator. Lifecycle:
///
///   Open(ctx) -> NextBatch()* -> Close()
///
/// Open resets the operator so a parent (e.g. nested-loops join) can rescan
/// by re-opening. Operators charge the work they perform to
/// ctx->counters(), in the same units the optimizer's cost model predicts.
class Operator {
 public:
  explicit Operator(Schema schema) : schema_(std::move(schema)) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Prepares (or re-prepares) the operator for a scan.
  virtual Status Open(ExecContext* ctx) = 0;

  /// The one pull: fills `out` (reset to this operator's column count,
  /// capacity preserved) with up to out->capacity() rows. Contract:
  ///
  ///   - the final batch may carry rows together with *eof = true;
  ///   - a batch with zero rows and *eof = false is never returned
  ///     (operators loop internally instead of bouncing empty batches);
  ///   - a streaming operator asks a child for at most out->capacity()
  ///     rows per pull, so a consumer that stops early (LIMIT asks for one
  ///     row at a time) causes no work past the rows it consumed. Pipeline
  ///     breakers are the exception: they drain their whole input at
  ///     ctx->batch_size() (DrainBatches);
  ///   - row values, order, and counter charges do not depend on the batch
  ///     capacity; batch size 1 is the exact-work reference.
  virtual Status NextBatch(RowBatch* out, bool* eof) = 0;

  virtual Status Close() = 0;

  const Schema& schema() const { return schema_; }

  /// Operator name with its key parameters, e.g. "HashJoin(keys=[0]=[1])".
  virtual std::string Describe() const = 0;

  /// Children for tree printing (non-owning views).
  virtual std::vector<const Operator*> Children() const { return {}; }

  /// Indented physical-plan rendering rooted at this operator.
  std::string TreeString() const;

 protected:
  Schema schema_;
};

using OpPtr = std::unique_ptr<Operator>;

/// A predicate that filters whole batches: FilterOp's predicate and every
/// join's residual. It owns the predicate's scratch vectors, reused across
/// batches, so filtering allocates no batch of its own.
class BatchFilter {
 public:
  /// A null `predicate` keeps every row.
  explicit BatchFilter(ExprPtr predicate)
      : predicate_(std::move(predicate)) {}

  const ExprPtr& predicate() const { return predicate_; }

  /// Keeps the rows of `batch` that satisfy the predicate (dense, ranks
  /// gathered along), charging one expression evaluation per row.
  void Keep(ExecContext* ctx, RowBatch* batch) {
    if (predicate_ == nullptr || batch->num_rows() == 0) return;
    ctx->counters().exprs_evaluated += batch->num_rows();
    BatchEvalPredicate(*predicate_, *batch, &vals_, &keep_);
    batch->KeepRows(keep_);
  }

  /// The filtering loop: `fill()` fills `out` with candidate rows (setting
  /// *eof at end of input) and Keep() filters them, repeated while no row
  /// survived and the input is not exhausted, so an empty non-final batch
  /// never leaves the operator. Each pass sees exactly the candidates of
  /// one fill, so the work done does not depend on out->capacity().
  template <typename Fill>
  Status FillAndKeep(ExecContext* ctx, RowBatch* out, const bool* eof,
                     Fill&& fill) {
    do {
      MAGICDB_RETURN_IF_ERROR(fill());
      Keep(ctx, out);
    } while (out->num_rows() == 0 && !*eof);
    return Status::OK();
  }

 private:
  ExprPtr predicate_;
  std::vector<Value> vals_;
  std::vector<uint8_t> keep_;
};

/// Base of the operators whose work is naturally one row at a time (Sort,
/// Distinct, Limit, the nested-loops and sort-merge joins, FilterSetScan,
/// OrderedIndexScan, the function operators, Ship): they implement
/// NextRow, and NextBatch fills the batch by looping it. NextBatch is
/// final, so such an operator has exactly one pull implementation. A join
/// hands its residual to the base: NextRow then produces candidate rows,
/// and NextBatch keeps those that satisfy the residual, one batch at a
/// time (BatchFilter::FillAndKeep).
class RowOperator : public Operator {
 public:
  explicit RowOperator(Schema schema, ExprPtr residual = nullptr)
      : Operator(std::move(schema)), residual_(std::move(residual)) {}

  Status NextBatch(RowBatch* out, bool* eof) final;

 protected:
  /// Produces the next row. Sets *eof=true (and leaves *out untouched) at
  /// end of stream.
  virtual Status NextRow(Tuple* out, bool* eof) = 0;

  /// Capacity of the batch the current NextBatch call fills: the most rows
  /// a streaming child read (RowReader::Next) may ask for.
  int32_t pull_rows() const { return pull_rows_; }

  /// The residual handed to the constructor; null when there is none.
  const ExprPtr& residual() const { return residual_.predicate(); }

  /// The context Open received; the residual charges its evaluations here.
  ExecContext* ctx_ = nullptr;

 private:
  BatchFilter residual_;
  int32_t pull_rows_ = 1;
};

/// Row-at-a-time view of a child operator, for RowOperator
/// implementations: rows are served from an owned batch, refilled through
/// the child's NextBatch. Owners Reset() the reader whenever they
/// (re-)open the child.
class RowReader {
 public:
  void Reset();

  /// Moves the child's next row into *out, pulling a batch of at most
  /// `max_rows` rows once the buffered ones are used up. Sets *eof=true at
  /// end of stream.
  Status Next(Operator* child, int32_t max_rows, Tuple* out, bool* eof);

 private:
  RowBatch batch_{1};
  int32_t next_ = 0;  // the batch's next unread row
  bool child_eof_ = false;
};

/// The one drain of every pipeline breaker: pulls the opened `child` to end
/// of stream in batches of ctx->batch_size() rows and calls
/// `consume(RowBatch*)` on each (possibly empty, for the final batch), with
/// a cancellation checkpoint per batch. Neither opens nor closes `child`.
template <typename Consume>
Status DrainBatches(Operator* child, ExecContext* ctx, Consume&& consume) {
  RowBatch batch(static_cast<int32_t>(ctx->batch_size()));
  bool eof = false;
  while (!eof) {
    MAGICDB_RETURN_IF_ERROR(child->NextBatch(&batch, &eof));
    MAGICDB_RETURN_IF_ERROR(consume(&batch));
    MAGICDB_RETURN_IF_ERROR(ctx->CheckCancelled());
  }
  return Status::OK();
}

/// DrainBatches one row at a time: moves every row out of its batch and
/// calls `consume(Tuple&& row, int64_t pos)`, where `pos` is the row's rank
/// position (the lane-merge key), or -1 when the batch carries no
/// rank tags.
template <typename Consume>
Status DrainRows(Operator* child, ExecContext* ctx, Consume&& consume) {
  Tuple t;
  return DrainBatches(child, ctx, [&](RowBatch* batch) -> Status {
    for (int32_t r = 0; r < batch->num_rows(); ++r) {
      batch->MoveRowToTuple(r, &t);
      MAGICDB_RETURN_IF_ERROR(consume(
          std::move(t),
          batch->has_ranks() ? batch->pos()[static_cast<size_t>(r)] : -1));
    }
    return Status::OK();
  });
}

/// Runs `root` to completion under `ctx` and returns all produced tuples:
/// Open() followed by DrainToVector().
StatusOr<std::vector<Tuple>> ExecuteToVector(Operator* root, ExecContext* ctx);

/// Drains an already-opened `root` under `ctx` (DrainBatches), closes it,
/// and returns all produced tuples.
StatusOr<std::vector<Tuple>> DrainToVector(Operator* root, ExecContext* ctx);

}  // namespace magicdb

#endif  // MAGICDB_EXEC_OPERATOR_H_
