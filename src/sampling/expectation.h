/// \file expectation.h
/// \brief The expectation operator (paper Alg. 4.3) and confidence
/// computation.
///
/// This is where PIP cashes in on deferring integration: given the full
/// expression E and its row context C (a conjunction of constraint atoms),
/// the operator
///   1. checks C's consistency and harvests per-variable bounds (Alg. 3.2),
///   2. partitions {vars(E)} U {vars(C)} into minimal independent subsets,
///   3. reads each group's GroupStrategy (plan_cache.h), chosen once per
///      condition shape: kExactCdf when a group reduces to interval
///      constraints on one variable with a CDF; kIntegrate when the sole
///      target group is one univariate variable with PDF and CDF under
///      such constraints (or none), so E comes from quadrature or a
///      lattice sum; kSample otherwise, which draws inside inverse-CDF
///      windows where bounds and inverse CDFs allow, by plain rejection
///      elsewhere, and switches to Metropolis at run time when the
///      observed rejection rate crosses a threshold,
///   4. runs an (epsilon, delta)-adaptive sampling loop over only the
///      groups the expression touches, and
///   5. assembles P[C] from per-group acceptance rates, CDF windows and
///      exact factors.

#ifndef PIP_SAMPLING_EXPECTATION_H_
#define PIP_SAMPLING_EXPECTATION_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/constraints/consistency.h"
#include "src/constraints/independence.h"
#include "src/dist/variable_pool.h"
#include "src/expr/condition.h"
#include "src/expr/expr.h"
#include "src/index/expectation_index.h"
#include "src/sampling/plan_cache.h"

namespace pip {

/// \brief Strategy knobs of the sampling operators.
///
/// The use_* flags exist for the ablation benchmarks; production callers
/// keep them on.
struct SamplingOptions {
  /// Confidence level parameter: results are within the delta tolerance
  /// with probability ~(1 - epsilon).
  double epsilon = 0.05;
  /// Relative precision target for adaptive stopping.
  double delta = 0.02;
  /// If nonzero, take exactly this many samples (no adaptive stopping) —
  /// the mode used by the paper's experiments ("1000 samples apiece").
  size_t fixed_samples = 0;
  size_t min_samples = 32;
  size_t max_samples = 200000;
  /// Rejection-attempt budget of one expectation call; exceeded means
  /// the condition is effectively unsatisfiable for the sampler. Under
  /// parallel sharding this is enforced deterministically at two
  /// levels: each shard gets a proportional share (with a floor — see
  /// ChunkAttemptBudget) bounding any single shard, and a ledger folded
  /// in chunk order trips the collapse once the call's accepted shards
  /// exceed the budget — so the visible (NAN, 0) is bit-identical
  /// across thread counts and total work stays within this budget plus
  /// one in-flight wave of shard floors.
  size_t max_total_attempts = 20000000;

  /// Offsets the deterministic sample index space; distinct offsets give
  /// statistically fresh (but still replayable) runs, e.g. across trials.
  uint64_t sample_offset = 0;

  /// Worker threads for the sampling loops. 0 means "hardware
  /// concurrency" (the default); 1 forces inline serial execution. The
  /// sample-index space is sharded into contiguous chunks whose schedule
  /// depends only on `chunk_samples`, and per-chunk results fold in chunk
  /// order, so results are bit-identical across num_threads values (see
  /// README "Threading model").
  size_t num_threads = 0;
  /// Samples per shard chunk. Part of the determinism contract: the
  /// chunk schedule (and hence the merge tree, the adaptive stopping
  /// barriers, and the per-chunk Metropolis scope) is a pure function of
  /// this value — never of num_threads.
  size_t chunk_samples = 64;

  // -- Optimization toggles (§IV-A), default on; benches ablate them. ----
  bool use_exact_cdf = true;       ///< Exact single-variable CDF integration.
  bool use_cdf_sampling = true;    ///< Inverse-CDF constrained sampling.
  bool use_independence = true;    ///< Minimal independent subset sampling.
  bool use_metropolis = true;      ///< MCMC fallback for tiny acceptance.
  /// Batched draw kernels: each chunk takes the first draw of every
  /// natural (not CDF-windowed) variable of a sampled, chain-free group
  /// from one GenerateBatch call per variable id instead of one virtual
  /// Generate per sample; retries, windowed draws and chains stay scalar.
  /// Bit-identical to the scalar path by the batch-draw contract (see
  /// README "Batch draws"); off reproduces the per-sample loop for the
  /// scalar-vs-batch ablation benches.
  bool use_batch_generation = true;
  /// Exact numeric integration of single-variable expectations ("the
  /// expectation operator can ... potentially even sidestep [sampling]
  /// entirely", §III-A): when the target expression depends on one
  /// univariate variable with PDF+CDF and its constraints reduce to an
  /// interval, E[g(X) | a<=X<=b] is computed by adaptive quadrature (or an
  /// exact lattice sum for discrete variables) instead of sampling.
  bool use_numeric_integration = true;

  /// Rejection-rate threshold that triggers the Metropolis switch
  /// ("Metropolis Threshold" in Alg. 4.3); evaluated after
  /// `metropolis_check_after` attempts of a group.
  double metropolis_threshold = 0.995;
  size_t metropolis_check_after = 2000;

  // -- Materialized expectation index (src/index/) ----------------------
  /// Serve/backfill the result index on the hot query paths (Analyze,
  /// aconf, expected aggregates). Hits are bit-identical replays; off
  /// forces every call down the Monte Carlo path.
  bool index_enabled = true;
  /// Byte budget of the shared index's LRU (0 = unlimited). Applied to
  /// the database-wide index whenever an engine is created, so the
  /// last-configured session wins; see README "Expectation index".
  size_t index_memory_budget = ExpectationIndex::kDefaultMemoryBudget;

  /// Cooperative cancellation hook. When set, the Monte Carlo loops poll
  /// it at chunk-fold barriers and abandon the call with
  /// Status::Cancelled once it returns true. Used by ParallelRows
  /// batches (via SamplingEngine::WithCancelCheck) so a long row body
  /// dispatched just before an earlier row failed stops early instead of
  /// sampling to completion; the cancelled row's output is discarded by
  /// the row-order error protocol, so cancellation never changes what a
  /// caller observes. Like num_threads, excluded from the options
  /// fingerprint (shape_key.cc): it cannot affect kept bits.
  std::function<bool()> cancel_check;
};

/// \brief Result of an expectation (or confidence) computation.
struct ExpectationResult {
  /// E[expression | condition]; NaN when the condition is unsatisfiable
  /// (the paper's convention: "a value of NAN will result").
  double expectation = 0.0;
  /// P[condition] when requested (1.0 otherwise).
  double probability = 1.0;
  /// Monte Carlo samples actually accepted (0 for fully exact results).
  size_t samples_used = 0;
  /// Total generation attempts including rejected ones (work measure).
  size_t attempts = 0;
  /// True when no sampling was necessary (closed-form CDF integration).
  bool exact = false;
};

/// \brief Per-row sampling operators over a variable pool.
///
/// Stateless apart from configuration; every method is deterministic given
/// the pool's seed and options.sample_offset.
class SamplingEngine {
 public:
  explicit SamplingEngine(const VariablePool* pool,
                          SamplingOptions options = {})
      : pool_(pool),
        options_(options),
        plan_cache_(std::make_shared<PlanCache>()) {}

  /// Engine sharing an external plan cache (the Database hands every
  /// session's engine its process-lifetime cache, so concurrent server
  /// sessions amortize planning across statements and connections).
  SamplingEngine(const VariablePool* pool, SamplingOptions options,
                 std::shared_ptr<PlanCache> plan_cache)
      : pool_(pool),
        options_(options),
        plan_cache_(plan_cache != nullptr ? std::move(plan_cache)
                                          : std::make_shared<PlanCache>()) {}

  const SamplingOptions& options() const { return options_; }
  SamplingOptions* mutable_options() { return &options_; }
  const VariablePool& pool() const { return *pool_; }

  /// Copy of this engine with different options, sharing the pool, the
  /// plan cache, and the result index. This is how derived engines
  /// (per-row aggregate engines with relaxed tolerances) keep amortizing
  /// the process-wide caches instead of silently starting cold.
  SamplingEngine WithOptions(SamplingOptions options) const {
    SamplingEngine copy(pool_, std::move(options), plan_cache_);
    copy.result_index_ = result_index_;
    return copy;
  }

  /// Copy of this engine whose sampling loops poll `cancel` at chunk-fold
  /// barriers and return Status::Cancelled once it reports true (see
  /// SamplingOptions::cancel_check). Row-parallel batch drivers hand
  /// each row body one of these wired to its RowBatchContext so long
  /// rows bail early after an earlier row's failure. Checks compose: a
  /// nested batch (grouped aggregate -> per-row loop) ORs its hook with
  /// the inherited one, so an outer cancellation reaches the innermost
  /// sampling loops too.
  SamplingEngine WithCancelCheck(std::function<bool()> cancel) const {
    SamplingOptions opts = options_;
    if (opts.cancel_check) {
      auto outer = std::move(opts.cancel_check);
      auto inner = std::move(cancel);
      opts.cancel_check = [outer, inner] { return outer() || inner(); };
    } else {
      opts.cancel_check = std::move(cancel);
    }
    return WithOptions(std::move(opts));
  }

  /// The shared materialized-result index, or nullptr when none is
  /// attached (the Database attaches its process-lifetime instance to
  /// every engine it hands out). The index layer (index_ops.h) consults
  /// it; the core sampling paths below never do.
  ExpectationIndex* result_index() const { return result_index_.get(); }
  void set_result_index(std::shared_ptr<ExpectationIndex> index) {
    result_index_ = std::move(index);
  }

  /// Hit/miss counters of the shared plan-shape cache (copies of one
  /// engine share the cache, so Analyze-style row batches amortize
  /// planning across rows).
  PlanCache::Stats plan_cache_stats() const { return plan_cache_->stats(); }

  /// expectation(): E[expr | condition], optionally with P[condition]
  /// (Alg. 4.3's getP). Deterministic expressions short-circuit.
  StatusOr<ExpectationResult> Expectation(const ExprPtr& expr,
                                          const Condition& condition,
                                          bool compute_probability) const;

  /// conf(): P[condition] for a conjunctive condition.
  StatusOr<ExpectationResult> Confidence(const Condition& condition) const;

  /// Expectation(*expr, condition, compute_probability), or
  /// Confidence(condition) for a null `expr`, when that call is answered
  /// in closed form: the call is deterministic, or `*expr` has no
  /// variables and every group of `condition`'s shape-keyed plan skeleton
  /// has strategy kExactCdf. Such a call makes no draw
  /// and no quadrature, and plans with the skeleton the check looked up,
  /// so it builds one shape key. std::nullopt, with no call made,
  /// otherwise; conditions with an atom that is not variable-vs-constant
  /// get it before any shape key is built.
  StatusOr<std::optional<ExpectationResult>> ClosedForm(
      const ExprPtr* expr, const Condition& condition,
      bool compute_probability) const;

  /// aconf(): P[c1 OR c2 OR ...] for the bag-encoded disjuncts of one
  /// distinct row group. Uses inclusion-exclusion over exact/estimated
  /// conjunction probabilities for few disjuncts, joint Monte Carlo
  /// otherwise.
  StatusOr<double> JointConfidence(
      const std::vector<Condition>& disjuncts) const;

  /// Draws `n` samples of expr conditioned on condition (the *_hist
  /// operators build histograms from these). Unsatisfiable condition
  /// yields an empty vector.
  StatusOr<std::vector<double>> SampleConditional(const ExprPtr& expr,
                                                  const Condition& condition,
                                                  size_t n) const;

 private:
  struct GroupPlan;
  struct ChunkBatch;
  struct AcceptRun;

  /// A plan skeleton and the canonical VarRefs its slots index.
  struct Shape {
    std::shared_ptr<const PlanSkeleton> skeleton;
    std::vector<VarRef> canon_vars;
  };

  /// The structure-only skeleton of (condition, target_vars), from the
  /// shape cache or built and cached now, with the canonical VarRefs of
  /// its key (see PlanShapeKey in shape_key.h): the minimal independent
  /// groups (one monolithic group when use_independence is off), each
  /// with the GroupStrategy ChooseStrategy picks for it.
  Shape Skeleton(const Condition& condition,
                 const VarSet& target_vars) const;

  /// Expectation and Confidence planning with `shape` when non-null: the
  /// skeleton of (condition, expr's variables) a caller already holds.
  StatusOr<ExpectationResult> Expectation(const ExprPtr& expr,
                                          const Condition& condition,
                                          bool compute_probability,
                                          const Shape* shape) const;
  StatusOr<ExpectationResult> Confidence(const Condition& condition,
                                         const Shape* shape) const;

  /// Builds per-group plans: the skeleton's groups and strategies (from
  /// `shape` when non-null, else from the shape cache) plus the per-row
  /// CDF windows, and for kExactCdf and kIntegrate groups the folded band
  /// and its exact probability. Sets *inconsistent when the condition is
  /// unsatisfiable.
  StatusOr<std::vector<GroupPlan>> PlanGroups(
      const Condition& condition, const VarSet& target_vars,
      bool* inconsistent, const Shape* shape = nullptr) const;

  /// Pre-draws `len` consecutive samples from absolute index
  /// `sample_begin` under attempt key `attempt` for every natural
  /// (window-free) variable of `plan`: one GenerateBatch block per var_id.
  Status FillChunkBatch(const GroupPlan& plan, uint64_t sample_begin,
                        uint64_t len, uint64_t attempt,
                        ChunkBatch* out) const;

  /// Draws every variable of `plan` for (sample_index, attempt) into
  /// *assignment: windowed variables by inverse CDF of a window draw,
  /// natural ones from `batch`'s row when non-null, else by one
  /// GenerateJoint per var_id into the scratch buffer *joint.
  Status DrawGroup(const GroupPlan& plan, uint64_t sample_index,
                   uint64_t attempt, const ChunkBatch* batch,
                   std::vector<double>* joint, Assignment* assignment) const;

  /// Samples one accepted joint draw for a group; attempt 0 reads `batch`
  /// when non-null. Returns false when the attempt budget collapsed
  /// without acceptance (caller decides whether that means
  /// "unsatisfiable" or "switch to Metropolis"). `attempt_budget` bounds
  /// *total_attempts for this shard.
  StatusOr<bool> SampleGroupOnce(GroupPlan* plan, uint64_t sample_index,
                                 const ChunkBatch* batch,
                                 std::vector<double>* joint,
                                 Assignment* assignment,
                                 size_t* total_attempts,
                                 size_t attempt_budget) const;

  /// Attempt budget for one shard of `chunk_len` samples out of a
  /// schedule of `schedule_len`. The pilot shard (chunk 0) gets the full
  /// max_total_attempts so hard-but-satisfiable conditions keep the
  /// serial engine's spurious-collapse threshold; later shards get a
  /// proportional share with a floor, and the fold-side ledger bounds
  /// their sum.
  size_t ChunkAttemptBudget(size_t chunk_len, size_t schedule_len,
                            bool pilot = false) const;

  /// The accept loop behind Expectation and SampleConditional
  /// (one definition, so their collapse semantics cannot diverge).
  /// Samples every target-touching group of `plans` at each index of
  /// [0, cap), evaluates `expr` on the joint draw, and writes the value to
  /// slots[index] (when `slots` is non-null) or into the run's stats.
  /// The chunk_samples schedule runs as:
  ///   1. chunk 0 serially on `plans` (Metropolis switch armed) with the
  ///      full pilot attempt budget,
  ///   2. later shards budgeted from the pilot's per-sample cost (4x
  ///      slack, floored at the proportional share),
  ///   3. the rest serially on `plans` when the pilot switched a target
  ///      group to Metropolis (chains are sequential), otherwise as
  ///      parallel waves over per-chunk CloneForChunk copies.
  /// Chunks fold IN CHUNK ORDER: the fold owns the max_total_attempts
  /// ledger and the collapse, and stops once `done` (when set) holds.
  StatusOr<AcceptRun> RunAcceptSchedule(
      std::vector<GroupPlan>* plans, const ExprPtr& expr, uint64_t cap,
      double* slots, const std::function<bool(const AcceptRun&)>& done) const;

  /// The hit-rate loop behind EstimateGroupProbability and
  /// JointConfidence: the fraction of indices in [0, cap) whose draw of
  /// `plan` (attempt key `marker`) satisfies `hit(assignment) ->
  /// StatusOr<bool>`, counted in chunks folded in chunk order and stopped
  /// adaptively at relative precision delta. With a non-null `ledger`
  /// every sample is one attempt charged to it, and exceeding a shard
  /// budget or max_total_attempts stops the count early.
  template <typename Hit>
  StatusOr<double> HitRate(const GroupPlan& plan, uint64_t marker,
                           size_t cap, const Hit& hit, size_t* ledger) const;

  /// P[atoms] of a kExactCdf or kIntegrate group, from its folded band.
  StatusOr<double> ExactGroupProbability(const GroupPlan& plan,
                                         bool discrete) const;

  /// MC estimate of P[group atoms] for groups not touching the target.
  StatusOr<double> EstimateGroupProbability(const GroupPlan& plan,
                                            size_t* total_attempts) const;

  /// E[expr | band] of a kIntegrate group by adaptive quadrature, or an
  /// exact lattice sum for discrete laws. nullopt on a value-level
  /// fallback: the lattice span cap, zero mass or a failed quadrature.
  StatusOr<std::optional<double>> TryNumericIntegration(
      const ExprPtr& expr, const GroupPlan& plan) const;

  const VariablePool* pool_;
  SamplingOptions options_;
  /// Shared (and internally synchronized) across engine copies.
  std::shared_ptr<PlanCache> plan_cache_;
  /// Shared materialized-result index; null when not attached.
  std::shared_ptr<ExpectationIndex> result_index_;
};

}  // namespace pip

#endif  // PIP_SAMPLING_EXPECTATION_H_
