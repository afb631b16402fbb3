#ifndef MAGICDB_SPILL_EXTERNAL_SORTER_H_
#define MAGICDB_SPILL_EXTERNAL_SORTER_H_

/// External merge sort for ORDER BY, engaged by SortOp when the buffered
/// input breaches the query's memory limit and spilling is enabled.
///
/// Run formation: each time the buffer breaches, SpillRun() sorts it by
/// (sort keys, input sequence) and writes one sorted run of
/// (seq, key tuple, row) records — the computed key tuples travel with the
/// rows so merging never re-evaluates sort expressions. At end of input the
/// final buffer spills as one more run, so nothing stays charged through
/// the merge. Next() k-way merges all runs by (keys under their asc/desc
/// flags, then input sequence) — the same comparator, including the stable
/// input-order tiebreak, the in-memory sort uses, so spilled output is
/// byte-identical to in-memory output.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/statusor.h"
#include "src/spill/sorted_runs.h"
#include "src/spill/spill_manager.h"
#include "src/types/tuple.h"

namespace magicdb {

class ExecContext;

class ExternalSorter {
 public:
  ExternalSorter(std::shared_ptr<SpillManager> mgr,
                 std::vector<bool> ascending);

  /// Sorts the buffer (rows + their precomputed key tuples, whose global
  /// input sequence starts at `base_seq`), writes it as one run, clears the
  /// vectors and releases `*charged_bytes` from the tracker.
  Status SpillRun(std::vector<Tuple>* rows, std::vector<Tuple>* keys,
                  int64_t base_seq, int64_t* charged_bytes, ExecContext* ctx);

  /// Prepares the merge of every spilled run.
  Status FinishInput(ExecContext* ctx);

  Status Next(Tuple* out, bool* eof);

 private:
  struct SortRow {
    int64_t seq = 0;
    Tuple key;
    Tuple row;
  };
  struct Codec {
    using Row = SortRow;
    std::vector<bool> ascending;

    void Encode(const SortRow& r, std::string* out) const;
    Status Decode(std::string_view record, SortRow* r) const;
    /// Keys under their asc/desc flags.
    int CompareKeys(const Tuple& a, const Tuple& b) const;
    /// (keys, seq): the in-memory comparator with the stable tiebreak made
    /// explicit.
    bool Less(const SortRow& a, const SortRow& b) const {
      const int c = CompareKeys(a.key, b.key);
      return c != 0 ? c < 0 : a.seq < b.seq;
    }
  };

  const std::shared_ptr<SpillManager> mgr_;
  const Codec codec_;
  RunMerge<Codec> merge_;
};

}  // namespace magicdb

#endif  // MAGICDB_SPILL_EXTERNAL_SORTER_H_
