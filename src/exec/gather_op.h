#ifndef MAGICDB_EXEC_GATHER_OP_H_
#define MAGICDB_EXEC_GATHER_OP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/operator.h"
#include "src/spill/spill_file.h"

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

/// One worker's output run, possibly disk-backed: under memory pressure the
/// worker flushes its accumulated rows to `spilled` (already rank-ordered —
/// flushes preserve arrival order) and keeps only the unflushed tail in
/// `rows`. Every rank in the file precedes every rank in the tail.
struct GatherRun {
  std::unique_ptr<SpillFile> spilled;  // may be null: fully in memory
  std::vector<GatherRow> rows;
  /// Total rows staged into this run (spilled prefix included); the
  /// parallel executor sums these into its staged-gather cardinality
  /// observation.
  int64_t staged_rows = 0;
};

/// Deterministic merge of the per-worker output runs of a parallel
/// pipeline. A k-way merge on the (pos, sub) rank reproduces exactly
/// the row order a single-threaded execution emits, so results are
/// byte-identical at any degree of parallelism — whether a run lives in
/// memory or starts with a spilled prefix. GatherOp performs no query work
/// of its own and charges nothing to the cost counters — the rows it
/// forwards were fully paid for by the workers that produced them (spilled
/// gather files are created with charging disabled for the same reason).
class GatherOp final : public RowOperator {
 public:
  /// Each run must be sorted ascending by (pos, sub); a spilled prefix must
  /// precede its in-memory tail in rank order. Takes ownership.
  GatherOp(Schema schema, std::vector<GatherRun> runs);

  /// All-in-memory convenience form.
  GatherOp(Schema schema, std::vector<std::vector<GatherRow>> runs);

  Status Open(ExecContext* ctx) override;
  Status Close() override;
  std::string Describe() const override;

 private:
  Status NextRow(Tuple* out, bool* eof) override;

  /// Merge cursor over one run: while `file_has`, (pos, sub, row) hold the
  /// decoded head record of the spilled prefix; afterwards `mem` indexes
  /// the in-memory tail.
  struct Cursor {
    bool file_has = false;
    int64_t pos = 0;
    int64_t sub = 0;
    Tuple row;
    size_t mem = 0;
  };

  Status AdvanceFile(size_t r);
  /// Fills pos/sub of run `r`'s current head; false when exhausted.
  bool Head(size_t r, int64_t* pos, int64_t* sub) const;

  std::vector<GatherRun> runs_;
  std::vector<Cursor> cursor_;
};

}  // namespace magicdb

#endif  // MAGICDB_EXEC_GATHER_OP_H_
