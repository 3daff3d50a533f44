#include "serve/result_cache.h"

#include <vector>

namespace adaptagg {

std::string QueryFingerprint(const AggregationSpec& spec,
                             const AlgorithmOptions& options) {
  std::string fp = "g:";
  for (int col : spec.group_cols()) {
    fp += std::to_string(col);
    fp += ',';
  }
  fp += "|a:";
  for (const AggDescriptor& agg : spec.aggs()) {
    fp += AggKindToString(agg.kind);
    fp += '(';
    fp += std::to_string(agg.input_col);
    fp += ')';
    fp += agg.name;
    fp += ',';
  }
  // Predicates print canonically (resolved column indices, literal
  // values), so structurally equal trees fingerprint equally.
  fp += "|w:";
  if (options.where != nullptr) fp += options.where->ToString();
  fp += "|h:";
  if (options.having != nullptr) fp += options.having->ToString();
  return fp;
}

std::optional<ResultCache::Entry> ResultCache::Lookup(const Key& key) {
  MutexLock lock(&mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.entry;
}

void ResultCache::Insert(const Key& key, Entry entry) {
  if (max_entries_ == 0) return;
  MutexLock lock(&mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  while (entries_.size() >= max_entries_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
  lru_.push_front(key);
  entries_.emplace(key, Slot{std::move(entry), lru_.begin()});
}

void ResultCache::InvalidateAll() {
  MutexLock lock(&mu_);
  entries_.clear();
  lru_.clear();
}

size_t ResultCache::size() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

uint64_t ResultCache::evictions() const {
  MutexLock lock(&mu_);
  return evictions_;
}

}  // namespace adaptagg
