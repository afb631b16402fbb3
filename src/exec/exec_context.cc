#include "src/exec/exec_context.h"

#include "src/common/logging.h"
#include "src/exec/cardinality_feedback.h"
#include "src/spill/spill_manager.h"

namespace magicdb {

bool ExecContext::spill_enabled() const {
  return spill_manager_ != nullptr && spill_manager_->enabled() &&
         memory_tracker_ != nullptr;
}

Status ExecContext::RecordCardinality(const std::string& key,
                                      const std::string& site,
                                      double estimated, double actual,
                                      bool exact, bool can_trigger) {
  if (cardinality_feedback_ == nullptr) return Status::OK();
  CardinalityObservation obs;
  obs.key = key;
  obs.site = site;
  obs.estimated = estimated;
  obs.actual = actual;
  obs.exact = exact;
  cardinality_feedback_->Record(obs);
  if (reoptimize_qerror_threshold_ > 0 && can_trigger && exact &&
      obs.QError() > reoptimize_qerror_threshold_ &&
      !cardinality_feedback_->IsSuppressed(key)) {
    return Status::ReoptimizeRequested(
        site + ": observed " + std::to_string(static_cast<int64_t>(actual)) +
        " rows vs estimated " +
        std::to_string(static_cast<int64_t>(estimated)) + " (key " + key +
        ")");
  }
  return Status::OK();
}

std::shared_ptr<FilterSetBinding> FilterSetBinding::Exact(
    Schema schema, std::vector<Tuple> keys) {
  auto b = std::make_shared<FilterSetBinding>();
  b->schema_ = std::move(schema);
  b->num_keys_ = static_cast<int64_t>(keys.size());
  for (Tuple& k : keys) {
    const uint64_t h = HashTuple(k);
    b->exact_set_.Append(h, std::move(k));
  }
  return b;
}

std::shared_ptr<FilterSetBinding> FilterSetBinding::Bloom(
    Schema schema, const std::vector<Tuple>& keys, double bits_per_key) {
  auto b = std::make_shared<FilterSetBinding>();
  b->schema_ = std::move(schema);
  b->num_keys_ = static_cast<int64_t>(keys.size());
  const int64_t bits =
      static_cast<int64_t>(bits_per_key * static_cast<double>(
                                              std::max<size_t>(1, keys.size())));
  const int hashes = std::max(1, static_cast<int>(bits_per_key * 0.69));
  b->bloom_.emplace(bits, hashes);
  for (const Tuple& k : keys) b->bloom_->Add(HashTuple(k));
  return b;
}

bool FilterSetBinding::MayContain(const RowBatch& batch, int32_t row,
                                  const std::vector<int>& key_indexes) const {
  MAGICDB_CHECK(static_cast<int>(key_indexes.size()) ==
                schema_.num_columns());
  const uint64_t h = HashBatchRowColumns(batch, row, key_indexes);
  if (bloom_.has_value()) return bloom_->MayContain(h);
  return exact_set_.Find(h, [&](const Tuple& k) {
    for (size_t i = 0; i < k.size(); ++i) {
      if (k[i].Compare(batch.column(key_indexes[i])[static_cast<size_t>(
              row)]) != 0) {
        return false;
      }
    }
    return true;
  }) != nullptr;
}

int64_t FilterSetBinding::SizeBytes() const {
  if (bloom_.has_value()) return bloom_->SizeBytes();
  int64_t bytes = 0;
  for (const Tuple& k : keys()) bytes += TupleByteWidth(k);
  return bytes;
}

}  // namespace magicdb
