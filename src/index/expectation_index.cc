#include "src/index/expectation_index.h"

#include "src/common/failpoints.h"

namespace pip {

size_t ExpectationIndex::EntryBytes(const std::string& key) {
  // The key is stored twice (map key + LRU list node) plus hash-map and
  // list node overhead, approximated at 64 bytes.
  return 2 * key.size() + sizeof(Entry) + 64;
}

std::optional<IndexedValue> ExpectationIndex::Lookup(
    const std::string& result_key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(result_key);
  if (it == map_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.value;
}

void ExpectationIndex::Insert(const std::string& result_key,
                              IndexedValue value) {
  std::lock_guard<std::mutex> lock(mu_);
  // Chaos site: allocation failure while materializing the entry. The
  // backfill is dropped — queries recompute, the index stays cold but
  // never serves a partial entry.
  if (PIP_FAILPOINT("index.insert_alloc") == failpoints::ActionKind::kError) {
    ++stats_.insert_failures;
    return;
  }
  auto it = map_.find(result_key);
  if (it != map_.end()) {
    // Concurrent backfills of one key produce bit-identical replay
    // payloads, so replacing is safe.
    it->second.value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  Entry entry;
  entry.value = std::move(value);
  lru_.push_front(result_key);
  entry.lru_it = lru_.begin();
  bytes_ += EntryBytes(result_key);
  map_.emplace(result_key, std::move(entry));
  ++stats_.inserts;
  EvictToBudgetLocked();
}

void ExpectationIndex::EraseLocked(const std::string& key) {
  auto it = map_.find(key);
  if (it == map_.end()) return;
  bytes_ -= EntryBytes(key);
  lru_.erase(it->second.lru_it);
  map_.erase(it);
}

void ExpectationIndex::EvictToBudgetLocked() {
  if (memory_budget_ == 0) return;  // Unlimited.
  while (bytes_ > memory_budget_ && !lru_.empty()) {
    std::string victim = lru_.back();
    EraseLocked(victim);
    ++stats_.evictions;
  }
}

void ExpectationIndex::SetMemoryBudget(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  memory_budget_ = bytes;
  EvictToBudgetLocked();
}

size_t ExpectationIndex::memory_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memory_budget_;
}

ExpectationIndex::Stats ExpectationIndex::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.entries = map_.size();
  stats.bytes = bytes_;
  stats.memory_budget = memory_budget_;
  return stats;
}

void ExpectationIndex::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  bytes_ = 0;
}

}  // namespace pip
