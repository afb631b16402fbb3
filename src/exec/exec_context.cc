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

namespace {
std::vector<int> IdentityIndexes(size_t n) {
  std::vector<int> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = static_cast<int>(i);
  return idx;
}
}  // namespace

std::shared_ptr<FilterSetBinding> FilterSetBinding::Exact(
    Schema schema, std::vector<Tuple> keys) {
  auto b = std::make_shared<FilterSetBinding>();
  b->schema_ = std::move(schema);
  b->keys_ = std::move(keys);
  b->num_keys_ = static_cast<int64_t>(b->keys_.size());
  const std::vector<int> all = IdentityIndexes(
      static_cast<size_t>(b->schema_.num_columns()));
  for (const Tuple& k : b->keys_) {
    b->exact_set_[HashTupleColumns(k, all)].push_back(k);
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
  const std::vector<int> all =
      IdentityIndexes(static_cast<size_t>(b->schema_.num_columns()));
  for (const Tuple& k : keys) {
    b->bloom_->Add(HashTupleColumns(k, all));
  }
  return b;
}

bool FilterSetBinding::MayContain(const RowBatch& batch, int32_t row,
                                  const std::vector<int>& key_indexes) const {
  MAGICDB_CHECK(static_cast<int>(key_indexes.size()) ==
                schema_.num_columns());
  const uint64_t h = HashBatchRowColumns(batch, row, key_indexes);
  if (bloom_.has_value()) return bloom_->MayContain(h);
  auto it = exact_set_.find(h);
  if (it == exact_set_.end()) return false;
  for (const Tuple& k : it->second) {
    size_t i = 0;
    while (i < k.size() &&
           k[i].Compare(batch.column(key_indexes[i])[static_cast<size_t>(
               row)]) == 0) {
      ++i;
    }
    if (i == k.size()) return true;
  }
  return false;
}

int64_t FilterSetBinding::SizeBytes() const {
  if (bloom_.has_value()) return bloom_->SizeBytes();
  int64_t bytes = 0;
  for (const Tuple& k : keys_) bytes += TupleByteWidth(k);
  return bytes;
}

}  // namespace magicdb
