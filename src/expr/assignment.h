/// \file assignment.h
/// \brief A (partial) valuation of random variables.
///
/// Possible worlds are identified with variable assignments (paper §II-A);
/// samplers build one Assignment per Monte Carlo sample.

#ifndef PIP_EXPR_ASSIGNMENT_H_
#define PIP_EXPR_ASSIGNMENT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/expr/variable.h"

namespace pip {

/// \brief Maps variable references to real values.
///
/// A flat open-addressing table (linear probing, power-of-two capacity,
/// load factor at most 1/2) keyed by VarRef::Key(). Every slot carries the
/// generation that wrote it, and only slots of the current generation are
/// live, so Clear() is one increment: it keeps the capacity, and a sampler
/// that clears and refills one Assignment per attempt allocates nothing
/// after its first few draws. Keys are never erased, so a probe stops at
/// the first slot of an older generation.
class Assignment {
 public:
  void Set(VarRef v, double value) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    Slot& slot = slots_[Probe(v.Key())];
    if (slot.generation != generation_) {
      slot.key = v.Key();
      slot.generation = generation_;
      ++size_;
    }
    slot.value = value;
  }

  std::optional<double> Get(VarRef v) const {
    if (slots_.empty()) return std::nullopt;
    const Slot& slot = slots_[Probe(v.Key())];
    if (slot.generation != generation_) return std::nullopt;
    return slot.value;
  }

  bool Has(VarRef v) const { return Get(v).has_value(); }
  size_t size() const { return size_; }
  void Clear() {
    ++generation_;
    size_ = 0;
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint64_t generation = 0;  ///< 0 never matches: generation_ starts at 1.
    double value = 0.0;
  };

  /// Index of the slot holding `key`, or of the free slot where it would
  /// go. Requires a non-empty table with at least one free slot.
  size_t Probe(uint64_t key) const {
    const size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the high bits of key * 2^64/phi spread the
    // sequential var ids over the whole table.
    size_t i = static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
    while (slots_[i].generation == generation_ && slots_[i].key != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t capacity = old.empty() ? 16 : 2 * old.size();
    slots_.assign(capacity, Slot{});
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    const uint64_t live = generation_;
    generation_ = 1;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.generation != live) continue;
      slots_[Probe(s.key)] = {s.key, generation_, s.value};
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  uint64_t generation_ = 1;
  size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace pip

#endif  // PIP_EXPR_ASSIGNMENT_H_
