#ifndef MAGICDB_EXEC_GATHER_OP_H_
#define MAGICDB_EXEC_GATHER_OP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/exec/operator.h"
#include "src/spill/sorted_runs.h"

namespace magicdb {

/// One output row of a parallel pipeline, tagged with its rank in the
/// sequential emission order: `pos` is the global position of the
/// driving-scan row that produced it, and `sub` is the emission index
/// among rows sharing that driving position (parallel aggregation emits
/// groups ranked by the (pos, sub) of their first input row; plain
/// pipelines leave sub at 0). Workers claim morsels in monotonically
/// increasing order, so each worker's run is already sorted by (pos, sub);
/// ranks are unique across workers wherever inter-worker ordering matters
/// (every driving row — and every aggregation group — belongs to exactly
/// one worker).
struct GatherRow {
  int64_t pos = 0;
  int64_t sub = 0;
  Tuple row;
};

/// Spill-record codec of a gather run: (pos, sub, row), ordered by rank.
struct GatherCodec {
  using Row = GatherRow;
  void Encode(const GatherRow& r, std::string* out) const;
  Status Decode(std::string_view record, GatherRow* r) const;
  bool Less(const GatherRow& a, const GatherRow& b) const {
    return a.pos != b.pos ? a.pos < b.pos : a.sub < b.sub;
  }
};

/// Deterministic merge of the per-worker output runs of a parallel
/// pipeline. A k-way merge on the (pos, sub) rank reproduces exactly
/// the row order a single-threaded execution emits, so results are
/// byte-identical at any degree of parallelism — whether a run lives in
/// memory or was spilled. Full ties (possible only when several output rows
/// share one rank, all within one worker's run) resolve to the lowest run
/// index, and rows within a run keep their order — both match sequential
/// emission order. GatherOp performs no query work of its own and charges
/// nothing to the cost counters — the rows it forwards were fully paid for
/// by the workers that produced them (spilled gather files are created with
/// charging disabled, and the merge reads them with no context).
class GatherOp final : public RowOperator {
 public:
  /// Each run must be sorted ascending by (pos, sub): a worker spills its
  /// staged rows in arrival order, which is rank order. Takes ownership.
  GatherOp(Schema schema, std::vector<SortedRun<GatherRow>> runs);

  Status Open(ExecContext* ctx) override;
  Status Close() override;
  std::string Describe() const override;

 private:
  Status NextRow(Tuple* out, bool* eof) override;

  RunMerge<GatherCodec> merge_;
};

}  // namespace magicdb

#endif  // MAGICDB_EXEC_GATHER_OP_H_
