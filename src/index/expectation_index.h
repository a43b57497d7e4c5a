/// \file expectation_index.h
/// \brief Materialized per-row expectation/confidence results.
///
/// The PesTrie idea transplanted to probabilistic query answering: spend
/// bounded first-touch work materializing a row's result so repeated
/// online queries answer in near-constant time instead of re-running
/// Monte Carlo integration. The index is content-addressed: an entry is
/// keyed by the exact result key the sampling layer builds (operator
/// tag, registry generation, pool seed, options fingerprint, bit-exact
/// expression and condition serialization; see shape_key.h) and by
/// nothing else. PIP keeps uncertain values symbolic, so a result is a
/// pure function of that key: the engine's draw scheme depends only on
/// (seed, var, sample, attempt), and variable ids are never reused.
/// Equal keys therefore imply bit-identical recomputation, so serving a
/// hit is an exact replay, not an approximation, whichever table or row
/// the lookup came from.
///
/// It follows that writes invalidate nothing. An INSERT leaves every old
/// row's expression and condition, hence its key, unchanged; a replaced
/// table's new rows have new keys. Entries for rows that no longer exist
/// simply stop being looked up and age out through the LRU byte budget
/// (with an unlimited budget they are never reclaimed).
///
/// The index is a process-wide, internally synchronized LRU. It knows
/// nothing about the sampling engine: it stores plain-data payloads
/// (IndexedValue) under opaque key strings, so it sits below sampling in
/// the dependency graph and both the engine and the SQL surface can
/// share one instance.

#ifndef PIP_INDEX_EXPECTATION_INDEX_H_
#define PIP_INDEX_EXPECTATION_INDEX_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace pip {

/// \brief One materialized result: the exact replay payload of an
/// expectation / confidence / joint-confidence call.
struct IndexedValue {
  double expectation = 0.0;
  double probability = 1.0;
  uint64_t samples_used = 0;
  uint64_t attempts = 0;
  bool exact = false;
};

/// \brief Thread-safe, byte-budgeted LRU index of materialized results,
/// keyed by exact result key.
class ExpectationIndex {
 public:
  /// Default byte budget (64 MiB). 0 means unlimited, mirroring the
  /// admission gate's capacity convention.
  static constexpr size_t kDefaultMemoryBudget = 64ull << 20;

  struct Stats {
    size_t entries = 0;
    size_t bytes = 0;
    size_t memory_budget = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;      ///< Entries dropped by the LRU budget.
    /// Always 0: writes purge nothing (see the file comment). Kept
    /// because pipbench reports it.
    uint64_t invalidations = 0;
    uint64_t insert_failures = 0;  ///< Backfills dropped by allocation
                                   ///< failure (real or injected). The
                                   ///< index stays cold but correct.
  };

  explicit ExpectationIndex(size_t memory_budget = kDefaultMemoryBudget)
      : memory_budget_(memory_budget) {}

  ExpectationIndex(const ExpectationIndex&) = delete;
  ExpectationIndex& operator=(const ExpectationIndex&) = delete;

  /// Cached value under `result_key`, or nullopt (counted as hit/miss).
  std::optional<IndexedValue> Lookup(const std::string& result_key);

  /// Backfills one result. Re-inserting an existing key replaces its
  /// value (concurrent backfills of one key are bit-identical by
  /// construction) and refreshes recency; it never adds an entry.
  void Insert(const std::string& result_key, IndexedValue value);

  /// Adjusts the byte budget, evicting LRU entries if now over it.
  void SetMemoryBudget(size_t bytes);
  size_t memory_budget() const;

  Stats stats() const;

  void Clear();

 private:
  struct Entry {
    IndexedValue value;
    std::list<std::string>::iterator lru_it;
  };

  static size_t EntryBytes(const std::string& key);
  void EraseLocked(const std::string& key);
  void EvictToBudgetLocked();

  mutable std::mutex mu_;
  size_t memory_budget_;
  size_t bytes_ = 0;
  /// Front = most recently used; values are keys into map_.
  std::list<std::string> lru_;
  std::unordered_map<std::string, Entry> map_;
  Stats stats_;
};

}  // namespace pip

#endif  // PIP_INDEX_EXPECTATION_INDEX_H_
