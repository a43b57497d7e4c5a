/// \file shape_key.h
/// \brief Shared canonical serialization behind the two caches that sit
/// above the sampling engine.
///
/// Two caches key on (condition, target expression) pairs:
///   * the PlanCache memoizes structure-only plan skeletons under a
///     *shape* key — constants abstracted to their Value type, variables
///     canonicalized by first appearance and pinned to their
///     distribution class;
///   * the ExpectationIndex memoizes *results* under an exact key —
///     constant bit patterns, verbatim variable ids (a var id pins its
///     distribution and parameters for the pool's lifetime), the RNG
///     seed/stream identity, and a fingerprint of every sampling option
///     that can change a sampled value.
/// Both serializers share one KeyBuilder here, and both lead with the
/// DistributionRegistry generation counter, so the two caches cannot
/// drift on what "same shape" means and plugin re-registration under an
/// existing class name invalidates stale entries everywhere at once.

#ifndef PIP_SAMPLING_SHAPE_KEY_H_
#define PIP_SAMPLING_SHAPE_KEY_H_

#include <string>
#include <vector>

#include "src/dist/variable_pool.h"
#include "src/expr/condition.h"
#include "src/expr/expr.h"

namespace pip {

struct SamplingOptions;

/// The six use_* toggles as bits (exact CDF 1, CDF sampling 2,
/// independence 4, Metropolis 8, batch generation 16, numeric
/// integration 32): the one list of toggle bits. Plan shape keys fold it
/// in because a skeleton's grouping and strategies are built under the
/// toggles; SamplingOptionsFingerprint because they select the sampler
/// behind a value.
uint32_t PlanShapeFlagBits(const SamplingOptions& options);

/// Canonical shape key of (condition, target_vars): constants abstract to
/// their type, var ids number by first appearance (the key also encodes
/// which atoms share variables). Appends the distinct VarRefs in
/// canonical slot order to *canon_vars (cleared first).
std::string PlanShapeKey(const Condition& condition, const VarSet& target_vars,
                         const VariablePool& pool, uint32_t flag_bits,
                         std::vector<VarRef>* canon_vars);

/// Fingerprint of every SamplingOptions field that can change a sampled
/// value — bit-exact doubles, all strategy toggles, the sample-index
/// offset. Deliberately excludes num_threads: results are bit-identical
/// across thread counts (the engine's determinism contract), so an index
/// entry backfilled at one thread count serves every other. Also
/// excludes cancel_check for the same reason: cancellation only ever
/// discards a result, never changes a kept one, so a cancel-wired
/// engine's entries serve plain engines bit for bit.
std::string SamplingOptionsFingerprint(const SamplingOptions& options);

/// The operator-independent head of every exact result key built for
/// `pool` under `options`: the registry generation, the pool seed and
/// the options fingerprint. It depends on nothing per row, so a batch
/// that keys many calls on one engine builds it once.
std::string ExactResultKeyHead(const VariablePool& pool,
                               const SamplingOptions& options);

/// Exact result key for the expectation index. `op_tag` distinguishes
/// the operator ('E' expectation, 'P' expectation+probability,
/// 'C' confidence); `head` is ExactResultKeyHead of the engine making
/// the call; `expr` may be null for conf(). The key pins the registry
/// generation, the pool seed, the options fingerprint, and the exact
/// content of every expression and atom, so equal keys imply
/// bit-identical recomputation.
std::string ExactResultKey(char op_tag, const std::string& head,
                           const ExprPtr& expr, const Condition& condition,
                           const VariablePool& pool);

}  // namespace pip

#endif  // PIP_SAMPLING_SHAPE_KEY_H_
