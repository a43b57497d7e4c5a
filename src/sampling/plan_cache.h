/// \file plan_cache.h
/// \brief Shape-keyed cache of sampling-plan skeletons.
///
/// Rows produced by one query share the *shape* of their conditions — the
/// same atoms structurally, over fresh per-row variables of the same
/// distribution classes, with different constants. Everything PlanGroups
/// derives from structure alone is identical across such rows:
///   * the minimal independent subsets (PartitionIndependent is a pure
///     function of the variable-sharing pattern), or the one monolithic
///     group when use_independence is off,
///   * which groups touch the target expression,
///   * each group's strategy (GroupStrategy below: atom shapes, class
///     capabilities and the use_* toggles).
/// The cache memoizes exactly that as a PlanSkeleton; per-row work
/// (consistency bounds, CDF window endpoints, the folded band and exact
/// probabilities, which all depend on the constants and parameters) stays
/// in PlanGroups. This is how Analyze / AnalyzeJointConfidence batch rows
/// sharing a shape and pay the planning pass once (ROADMAP "Batching"
/// item).
///
/// Keys (PlanShapeKey, shape_key.h; the expectation index shares the
/// serializer) abstract constants to their Value type and variables to
/// (canonical id, component, distribution class); the canonical id
/// numbering follows first appearance so the key also encodes which atoms
/// share variables. Every use_* toggle (PlanShapeFlagBits) is folded into
/// the key so one cache serves reconfigured engine copies safely, as is
/// the DistributionRegistry generation counter so plugin re-registration
/// under an existing class name invalidates stale skeletons.

#ifndef PIP_SAMPLING_PLAN_CACHE_H_
#define PIP_SAMPLING_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace pip {

/// \brief How the expectation operator answers one independent group
/// (paper Alg. 4.3, §IV-A).
enum class GroupStrategy : uint8_t {
  /// Monte Carlo: CDF-windowed draws where bounds and inverse CDFs allow,
  /// plain rejection otherwise, and the run-time Metropolis switch when
  /// the observed rejection rate crosses its threshold.
  kSample,
  /// One variable under var-vs-constant atoms with a CDF (and a PMF when
  /// = or != occurs): P is a CDF difference over the folded band. A target
  /// group of this strategy still samples the expectation.
  kExactCdf,
  /// The sole target group, one univariate variable with PDF and CDF,
  /// unconstrained or exact-CDF constrained: E by quadrature (or a lattice
  /// sum) over the folded band, P as for kExactCdf. A value-level failure
  /// (span cap, zero mass, failed quadrature) samples E instead.
  kIntegrate,
};

/// \brief The structure-only part of a group plan.
struct PlanSkeleton {
  struct Group {
    /// Indices into the canonical variable order of PlanShapeKey
    /// (shape_key.h);
    /// instantiation maps them back to the row's actual VarRefs.
    std::vector<size_t> var_slots;
    std::vector<size_t> atom_indices;
    bool touches_target = false;
    GroupStrategy strategy = GroupStrategy::kSample;
  };
  std::vector<Group> groups;
};

/// \brief Thread-safe skeleton cache, shared by copies of one engine.
class PlanCache {
 public:
  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
  };

  /// Cached skeleton for `key`, or nullptr (counts a hit/miss).
  std::shared_ptr<const PlanSkeleton> Lookup(const std::string& key);

  void Insert(const std::string& key,
              std::shared_ptr<const PlanSkeleton> skeleton);

  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const PlanSkeleton>> map_;
  Stats stats_;
};

}  // namespace pip

#endif  // PIP_SAMPLING_PLAN_CACHE_H_
