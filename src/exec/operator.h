#ifndef MAGICDB_EXEC_OPERATOR_H_
#define MAGICDB_EXEC_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/exec_context.h"
#include "src/exec/row_batch.h"
#include "src/types/schema.h"
#include "src/types/tuple.h"

namespace magicdb {

/// Volcano-style physical operator. Lifecycle:
///
///   Open(ctx) -> Next()* -> Close()
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

  /// Produces the next tuple. Sets *eof=true (and leaves *out untouched) at
  /// end of stream.
  virtual Status Next(Tuple* out, bool* eof) = 0;

  /// Vectorized pull: fills `out` (reset to this operator's column count,
  /// capacity preserved) with up to out->capacity() rows. Contract:
  ///
  ///   - the final batch may carry rows together with *eof = true;
  ///   - a batch with zero live rows and *eof = false is never returned
  ///     (operators loop internally instead of bouncing empty batches);
  ///   - row values, order, and counter charges are identical to draining
  ///     the same operator through Next().
  ///
  /// The base implementation adapts any row-only operator by looping
  /// Next() into the batch, which is what makes mixed batch/row trees
  /// legal: a batch-native parent can always pull from a row-only child.
  virtual Status NextBatch(RowBatch* out, bool* eof);

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

/// Runs `root` to completion under `ctx` and returns all produced tuples:
/// Open() followed by DrainToVector().
StatusOr<std::vector<Tuple>> ExecuteToVector(Operator* root, ExecContext* ctx);

/// Drains an already-opened `root` under `ctx`, closes it, and returns all
/// produced tuples. When ctx->batch_size() > 0 the drain pulls batches
/// through NextBatch (with one cancellation checkpoint per batch);
/// otherwise it loops Next().
StatusOr<std::vector<Tuple>> DrainToVector(Operator* root, ExecContext* ctx);

}  // namespace magicdb

#endif  // MAGICDB_EXEC_OPERATOR_H_
