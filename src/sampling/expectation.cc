#include "src/sampling/expectation.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/running_stats.h"
#include "src/common/special_math.h"
#include "src/common/thread_pool.h"
#include "src/sampling/metropolis.h"
#include "src/sampling/shape_key.h"

namespace pip {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Largest finite discrete domain memoized into a per-plan quantile
/// table. Bigger domains (e.g. a 1e6-rank Zipf) keep going through the
/// distribution's own InverseCdf, which such classes memoize internally.
constexpr size_t kMaxQuantileTable = 4096;

/// Floor of a shard's rejection-attempt budget. The proportional share
/// (max_total_attempts scaled by the shard's fraction of the schedule)
/// can be tiny for small shards; the floor keeps moderately-selective
/// conditions from collapsing spuriously while still bounding the work
/// an unsatisfiable condition can burn per shard.
constexpr size_t kMinChunkAttempts = size_t{1} << 20;

/// Absolute/relative tolerance of the numeric-integration quadrature.
constexpr double kIntegrationTolerance = 1e-10;

/// Views an atom as (Var op Const); flips sides when the variable is on
/// the right. Returns false when the atom has another shape.
bool AsVarConst(const ConstraintAtom& atom, VarRef* var, CmpOp* op,
                double* constant) {
  const Expr* var_side = nullptr;
  const Expr* const_side = nullptr;
  *op = atom.op();
  if (atom.lhs()->op() == ExprOp::kVar && atom.rhs()->IsConstant()) {
    var_side = atom.lhs().get();
    const_side = atom.rhs().get();
  } else if (atom.rhs()->op() == ExprOp::kVar && atom.lhs()->IsConstant()) {
    var_side = atom.rhs().get();
    const_side = atom.lhs().get();
    *op = FlipCmp(*op);
  } else {
    return false;
  }
  auto d = const_side->value().AsDouble();
  if (!d.ok()) return false;
  *var = var_side->var();
  *constant = d.value();
  return true;
}

/// The strategy of one group (see GroupStrategy), from its structure, its
/// classes' capabilities and the use_* toggles; `sole_target` says no
/// other group touches the target. Reads no constant or parameter, so
/// PlanCache skeletons carry it across rows.
GroupStrategy ChooseStrategy(const Condition& condition,
                             const VariableGroup& group, bool sole_target,
                             const VariablePool& pool,
                             const SamplingOptions& options) {
  if (group.vars.size() != 1) return GroupStrategy::kSample;
  const VarRef v = *group.vars.begin();
  // Exact CDF: a CDF, every atom var-vs-numeric-const, and a PMF when an
  // = or != atom occurs.
  bool exact = options.use_exact_cdf && !group.atom_indices.empty() &&
               pool.HasCdf(v);
  for (size_t i = 0; exact && i < group.atom_indices.size(); ++i) {
    VarRef av;
    CmpOp op;
    double c;
    exact = AsVarConst(condition.atoms()[group.atom_indices[i]], &av, &op,
                       &c) &&
            ((op != CmpOp::kEq && op != CmpOp::kNe) || pool.HasPdf(v));
  }
  // Integration: the sole target group, unconstrained or an exact-CDF
  // band, over one univariate variable with a PDF and a CDF.
  if (options.use_numeric_integration && sole_target &&
      (group.atom_indices.empty() || exact) && pool.HasPdf(v) &&
      pool.HasCdf(v)) {
    auto info = pool.Info(v.var_id);
    if (info.ok() && info.value()->num_components == 1) {
      return GroupStrategy::kIntegrate;
    }
  }
  return exact ? GroupStrategy::kExactCdf : GroupStrategy::kSample;
}

/// The atoms of a kExactCdf or kIntegrate group folded into one band on
/// its variable: [lo, hi], rounded inward to the integer lattice for
/// discrete laws, plus the = pin and the != pins (sorted, unique).
/// Contradictory = pins leave lo > hi.
struct Band {
  double lo = -kInf, hi = kInf;
  std::optional<double> eq;
  std::vector<double> ne;
};

/// Folds var-vs-constant `atoms` into *band; false on another atom shape.
bool FoldBand(const std::vector<ConstraintAtom>& atoms, bool discrete,
              Band* band) {
  for (const auto& atom : atoms) {
    VarRef v;
    CmpOp op;
    double c;
    if (!AsVarConst(atom, &v, &op, &c)) return false;
    switch (op) {
      case CmpOp::kGt:
        band->lo = std::max(band->lo, discrete ? std::floor(c) + 1.0 : c);
        break;
      case CmpOp::kGe:
        band->lo = std::max(band->lo, discrete ? std::ceil(c) : c);
        break;
      case CmpOp::kLt:
        band->hi = std::min(band->hi, discrete ? std::ceil(c) - 1.0 : c);
        break;
      case CmpOp::kLe:
        band->hi = std::min(band->hi, discrete ? std::floor(c) : c);
        break;
      case CmpOp::kEq:
        if (band->eq && *band->eq != c) {
          band->lo = kInf;
          band->hi = -kInf;
        }
        band->eq = c;
        break;
      case CmpOp::kNe:
        band->ne.push_back(c);
        break;
    }
  }
  std::sort(band->ne.begin(), band->ne.end());
  band->ne.erase(std::unique(band->ne.begin(), band->ne.end()),
                 band->ne.end());
  return true;
}

/// The shared chunk-wave determinism protocol: runs chunks
/// [start_chunk, ceil(cap / chunk)) of the index space [0, cap),
/// storing `run(chunk_index, begin, end) -> Outcome` into per-chunk slots
/// and folding outcomes IN CHUNK ORDER via `fold(chunk_index, outcome)`
/// (return false to stop). A chunk writes its slot once, when it is done:
/// slots of one wave share cache lines, so per-sample writes into them
/// from different workers would contend. Wave-limited callers (adaptive
/// stopping, budget ledgers) get waves of `workers` chunks so barrier
/// checks stay frequent and over-run work stays bounded; others dispatch
/// every remaining chunk at once. Every consumer of this protocol
/// inherits the same guarantee: which worker ran a chunk never affects
/// what is folded, or in what order.
template <typename Outcome, typename Run, typename Fold>
void RunChunkedWaves(uint64_t cap, size_t chunk, size_t start_chunk,
                     bool wave_limited, size_t num_threads, const Run& run,
                     const Fold& fold) {
  const size_t nchunks = NumChunks(cap, chunk);
  // Width 1 inside a region's body, so an engine call there (which runs
  // inline) sizes its waves like the serial engine: one chunk per
  // barrier check, no over-computed chunks for the in-order fold to
  // discard. Wave width never affects the folded chunk set — only how
  // much speculative work exists past the stopping point — so this is
  // throughput-only.
  const size_t workers = ThreadPool::Width(num_threads);
  size_t c = start_chunk;
  bool stopped = false;
  std::vector<Outcome> wave;
  while (c < nchunks && !stopped) {
    size_t wave_len =
        wave_limited ? std::min(workers, nchunks - c) : nchunks - c;
    wave.assign(wave_len, Outcome{});
    ThreadPool::For(wave_len, num_threads, [&](size_t k) {
      uint64_t begin = static_cast<uint64_t>(c + k) * chunk;
      uint64_t end = std::min<uint64_t>(cap, begin + chunk);
      wave[k] = run(c + k, begin, end);
    });
    for (size_t k = 0; k < wave_len && !stopped; ++k) {
      if (!fold(c + k, wave[k])) stopped = true;
    }
    c += wave_len;
  }
}

/// The chunk-fold barrier of both Monte Carlo loops: the cooperative
/// cancellation poll (see SamplingOptions::cancel_check; the caller that
/// requested the cancel discards the result, so abandoning mid-schedule
/// cannot change kept bits), then the folded chunk's own status.
Status FoldBarrier(const SamplingOptions& options, const Status& chunk) {
  if (options.cancel_check && options.cancel_check()) {
    return Status::Cancelled("Monte Carlo loop cancelled at a chunk barrier");
  }
  return chunk;
}

/// One quantile-window draw, strictly inside the open interval (0, 1):
/// rounding to an absolute endpoint would push an unbounded support's
/// quantile (InverseCdf(0) = -inf, InverseCdf(1) = +inf) into the sample,
/// and a one-sided window leaves that endpoint atom-satisfying.
double WindowDraw(RandomStream* stream, double lo, double hi) {
  return ClampUnitOpen(lo + (hi - lo) * stream->NextOpenUniform());
}

/// Per-plan memoized quantile table of a finite discrete variable:
/// domain values ascending with their cumulative masses, built once per
/// plan so the constrained sampler's hot loop never re-walks the
/// distribution's partial sums per attempt (ROADMAP hot-loop item).
/// Unlike CategoricalTable (builtins_discrete.cc), which searches raw
/// parameter vectors, this one is built from DomainValues() — whose
/// contract omits zero-mass points, so every entry here has positive
/// mass and no zero-mass guards are needed. A rounding-tail q above
/// cum.back() lands on the last (positive-mass) value, and any
/// off-by-an-ulp boundary draw is caught by the atom re-check in the
/// rejection loop (it becomes one wasted attempt, never a wrong
/// sample).
struct QuantileTable {
  std::vector<double> values;
  std::vector<double> cum;

  /// Smallest domain value whose cumulative mass reaches p (matching the
  /// discrete InverseCdf convention); the last value for p ~ 1.
  double Quantile(double p) const {
    auto it = std::lower_bound(cum.begin(), cum.end(), p);
    if (it == cum.end()) return values.back();
    return values[static_cast<size_t>(it - cum.begin())];
  }
};

/// Recursive adaptive Simpson quadrature. `ok` is cleared if the integrand
/// ever fails to evaluate; the result is then meaningless and the caller
/// falls back to sampling.
double AdaptiveSimpson(const std::function<StatusOr<double>(double)>& f,
                       double a, double b, double fa, double fm, double fb,
                       double tolerance, int depth, bool* ok) {
  if (!*ok) return 0.0;
  double m = 0.5 * (a + b);
  double lm = 0.5 * (a + m), rm = 0.5 * (m + b);
  auto flm_or = f(lm);
  auto frm_or = f(rm);
  if (!flm_or.ok() || !frm_or.ok()) {
    *ok = false;
    return 0.0;
  }
  double flm = flm_or.value(), frm = frm_or.value();
  double whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb);
  double left = (m - a) / 6.0 * (fa + 4.0 * flm + fm);
  double right = (b - m) / 6.0 * (fm + 4.0 * frm + fb);
  double delta = left + right - whole;
  if (depth <= 0 || std::fabs(delta) <= 15.0 * tolerance) {
    return left + right + delta / 15.0;
  }
  return AdaptiveSimpson(f, a, m, fa, flm, fm, 0.5 * tolerance, depth - 1,
                         ok) +
         AdaptiveSimpson(f, m, b, fm, frm, fb, 0.5 * tolerance, depth - 1,
                         ok);
}

}  // namespace

/// Per-group execution plan: strategy choices plus runtime counters.
struct SamplingEngine::GroupPlan {
  std::vector<VarRef> vars;            // All components, ordered.
  std::vector<ConstraintAtom> atoms;   // The group's constraints.
  bool touches_target = false;

  /// Quantile-space sampling window per var (1 entry per vars[i]);
  /// [0,1] means unconstrained.
  std::vector<double> window_lo, window_hi;
  std::vector<bool> cdf_constrained;
  double window_prob = 1.0;  // Product of window widths.

  /// Memoized quantile tables per vars[i] (null = use the
  /// distribution's InverseCdf). Shared by chunk clones.
  std::vector<std::shared_ptr<const QuantileTable>> quantile_tables;

  GroupStrategy strategy = GroupStrategy::kSample;
  /// The folded atoms and P[atoms] of a kExactCdf or kIntegrate group.
  Band band;
  double exact_prob = 1.0;

  // Runtime counters (Alg. 4.3's N and Count[K]).
  size_t accepted = 0;
  size_t attempts = 0;
  /// Shard clones disable the Metropolis switch: the decision and the
  /// chain live with the pilot shard so the switch never depends on
  /// scheduling (see RunAcceptSchedule).
  bool allow_metropolis = true;
  std::unique_ptr<MetropolisSampler> metropolis;
  /// The chain's key and the group's consistency bounds (pilot plan
  /// only: a chunk clone leaves both empty).
  uint64_t chain_key = 0;
  ConsistencyResult consistency;

  /// Sets the variables with every window open: each draws naturally.
  void SetVars(const VarSet& group_vars) {
    vars.assign(group_vars.begin(), group_vars.end());
    window_lo.assign(vars.size(), 0.0);
    window_hi.assign(vars.size(), 1.0);
    cdf_constrained.assign(vars.size(), false);
    quantile_tables.assign(vars.size(), nullptr);
  }

  /// True when vars[i] starts a natural joint draw: not windowed, and the
  /// first listed component of its var_id.
  bool NaturalHead(size_t i) const {
    return !cdf_constrained[i] &&
           (i == 0 || vars[i].var_id != vars[i - 1].var_id);
  }

  /// A counter-reset copy for one shard of the sample-index space. A
  /// clone only draws: it never arms Metropolis, so it carries neither
  /// the chain key nor the consistency bounds only the chain reads, and
  /// P comes from the original, so it carries no strategy or band.
  GroupPlan CloneForChunk() const {
    GroupPlan c;
    c.vars = vars;
    c.atoms = atoms;
    c.touches_target = touches_target;
    c.window_lo = window_lo;
    c.window_hi = window_hi;
    c.cdf_constrained = cdf_constrained;
    c.window_prob = window_prob;
    c.quantile_tables = quantile_tables;
    c.allow_metropolis = false;
    return c;
  }
};

/// One chunk's pre-drawn natural values of one plan: a sample-major block
/// per natural var_id, in plan.vars order, filled by one GenerateBatch
/// call each — bit-identical to the per-sample GenerateJoint calls it
/// replaces (the batch-draw contract).
struct SamplingEngine::ChunkBatch {
  struct Block {
    uint64_t var_id = 0;
    uint32_t ncomp = 1;
    std::vector<double> values;  // len * ncomp, sample-major.
  };
  uint64_t begin = 0;  // Absolute sample index of row 0.
  std::vector<Block> blocks;
  /// The plan also has windowed variables (else the blocks hold every
  /// draw of a sample and DrawGroup skips its walk over the variables).
  bool windowed = false;
};

/// What RunAcceptSchedule folded, in chunk order.
struct SamplingEngine::AcceptRun {
  RunningStats stats;    // Accepted values (empty when written to slots).
  size_t produced = 0;   // Accepted samples.
  size_t attempts = 0;   // The max_total_attempts ledger.
  bool collapsed = false;
};

SamplingEngine::Shape SamplingEngine::Skeleton(
    const Condition& condition, const VarSet& target_vars) const {
  Shape shape;
  std::string key = PlanShapeKey(condition, target_vars, *pool_,
                                 PlanShapeFlagBits(options_),
                                 &shape.canon_vars);
  shape.skeleton = plan_cache_->Lookup(key);
  if (shape.skeleton != nullptr) return shape;
  auto built = std::make_shared<PlanSkeleton>();
  std::map<VarRef, size_t> slot_of;
  for (size_t s = 0; s < shape.canon_vars.size(); ++s) {
    slot_of[shape.canon_vars[s]] = s;
  }
  std::vector<VariableGroup> groups;
  if (options_.use_independence) {
    groups = PartitionIndependent(condition, target_vars);
  } else {
    // Ablation mode: one monolithic group.
    VariableGroup g;
    g.vars.insert(shape.canon_vars.begin(), shape.canon_vars.end());
    for (size_t i = 0; i < condition.atoms().size(); ++i) {
      g.atom_indices.push_back(i);
    }
    g.touches_target = !target_vars.empty();
    if (!g.vars.empty()) groups.push_back(std::move(g));
  }
  const size_t target_groups = static_cast<size_t>(
      std::count_if(groups.begin(), groups.end(),
                    [](const VariableGroup& g) { return g.touches_target; }));
  for (const auto& g : groups) {
    PlanSkeleton::Group sg;
    sg.var_slots.reserve(g.vars.size());
    for (const VarRef& v : g.vars) sg.var_slots.push_back(slot_of.at(v));
    sg.atom_indices = g.atom_indices;
    sg.touches_target = g.touches_target;
    sg.strategy =
        ChooseStrategy(condition, g, g.touches_target && target_groups == 1,
                       *pool_, options_);
    built->groups.push_back(std::move(sg));
  }
  plan_cache_->Insert(key, built);
  shape.skeleton = std::move(built);
  return shape;
}

StatusOr<std::vector<SamplingEngine::GroupPlan>> SamplingEngine::PlanGroups(
    const Condition& condition, const VarSet& target_vars,
    bool* inconsistent, const Shape* shape) const {
  *inconsistent = false;
  if (condition.IsKnownFalse()) {
    *inconsistent = true;
    return std::vector<GroupPlan>{};
  }

  ConsistencyResult consistency = CheckConsistency(condition, *pool_);
  if (consistency.inconsistent()) {
    *inconsistent = true;
    return std::vector<GroupPlan>{};
  }

  // Structure-only planning (the groups and their strategies) is a pure
  // function of the condition's *shape*, so rows sharing a shape
  // (Analyze batches, inclusion-exclusion conjunctions) pay it once
  // through the shape cache.
  Shape looked_up;
  if (shape == nullptr) {
    looked_up = Skeleton(condition, target_vars);
    shape = &looked_up;
  }

  const auto& groups = shape->skeleton->groups;
  std::vector<GroupPlan> plans;
  plans.reserve(groups.size());
  for (size_t group_index = 0; group_index < groups.size(); ++group_index) {
    const PlanSkeleton::Group& sg = groups[group_index];
    GroupPlan plan;
    VarSet vars;
    for (size_t slot : sg.var_slots) vars.insert(shape->canon_vars[slot]);
    plan.SetVars(vars);
    for (size_t idx : sg.atom_indices) {
      plan.atoms.push_back(condition.atoms()[idx]);
    }
    plan.touches_target = sg.touches_target;
    plan.strategy = sg.strategy;
    plan.consistency = consistency;
    // Chain key: stable per (condition, group) so Metropolis chains are
    // replayable.
    uint64_t atoms_hash = 0;
    for (const auto& a : plan.atoms) atoms_hash ^= a.Hash();
    plan.chain_key =
        MixBits(atoms_hash, group_index, options_.sample_offset, 0x4d48ULL);

    // Per-variable CDF windows from the consistency bounds, memoized in
    // the plan: endpoints are evaluated here exactly once and reused by
    // every attempt of every sample.
    for (size_t i = 0; i < plan.vars.size(); ++i) {
      const VarRef& v = plan.vars[i];
      if (!options_.use_cdf_sampling) continue;
      auto info = pool_->Info(v.var_id);
      if (!info.ok() || info.value()->num_components != 1) continue;
      if (!pool_->HasCdf(v) || !pool_->HasInverseCdf(v)) continue;
      Interval b = plan.consistency.BoundsFor(v);
      if (!b.HasAnyBound()) continue;
      double flo = 0.0, fhi = 1.0;
      if (std::isfinite(b.lo)) {
        // For discrete variables the window must exclude values < ceil(lo)
        // entirely: P[X <= ceil(lo)-1].
        double lo_point =
            info.value()->dist->domain() == DomainKind::kContinuous
                ? b.lo
                : std::ceil(b.lo) - 1.0;
        auto f = pool_->Cdf(v, lo_point);
        if (!f.ok()) continue;
        flo = f.value();
      }
      if (std::isfinite(b.hi)) {
        double hi_point =
            info.value()->dist->domain() == DomainKind::kContinuous
                ? b.hi
                : std::floor(b.hi);
        auto f = pool_->Cdf(v, hi_point);
        if (!f.ok()) continue;
        fhi = f.value();
      }
      if (fhi <= flo) {
        // Zero-mass window: the condition is unsatisfiable in measure.
        *inconsistent = true;
        return std::vector<GroupPlan>{};
      }
      plan.window_lo[i] = flo;
      plan.window_hi[i] = fhi;
      plan.cdf_constrained[i] = (flo > 0.0 || fhi < 1.0);
      plan.window_prob *= (fhi - flo);

      // Finite discrete variables get a per-plan quantile table so the
      // hot loop's inverse-CDF becomes a binary search over prefix sums
      // computed once per plan (not per attempt).
      const Distribution* dist = info.value()->dist;
      if (plan.cdf_constrained[i] && dist->HasFiniteDomain() &&
          dist->HasPdf()) {
        auto size_or = dist->DomainSize(info.value()->params);
        if (size_or.ok() && size_or.value() > 0 &&
            size_or.value() <= kMaxQuantileTable) {
          auto values_or = dist->DomainValues(info.value()->params);
          if (values_or.ok() && !values_or.value().empty()) {
            auto table = std::make_shared<QuantileTable>();
            table->values = std::move(values_or).value();
            table->cum.reserve(table->values.size());
            double acc = 0.0;
            bool ok = true;
            for (double x : table->values) {
              auto mass = pool_->Pdf(v, x);
              if (!mass.ok()) {
                ok = false;
                break;
              }
              acc += mass.value();
              table->cum.push_back(acc);
            }
            if (ok) plan.quantile_tables[i] = std::move(table);
          }
        }
      }
    }

    if (plan.strategy != GroupStrategy::kSample) {
      PIP_ASSIGN_OR_RETURN(const VariableInfo* info,
                           pool_->Info(plan.vars[0].var_id));
      const bool discrete = info->dist->domain() != DomainKind::kContinuous;
      if (!FoldBand(plan.atoms, discrete, &plan.band)) {
        return Status::Internal("exact plan with a non var-vs-const atom");
      }
      PIP_ASSIGN_OR_RETURN(plan.exact_prob,
                           ExactGroupProbability(plan, discrete));
      if (plan.exact_prob <= 0.0) {
        *inconsistent = true;
        return std::vector<GroupPlan>{};
      }
    }

    plans.push_back(std::move(plan));
  }
  return plans;
}

StatusOr<double> SamplingEngine::ExactGroupProbability(const GroupPlan& plan,
                                                       bool discrete) const {
  const VarRef v = plan.vars[0];
  const Band& band = plan.band;
  double fhi = 1.0, flo = 0.0;
  if (!discrete) {
    // A point has zero mass; != pins have full mass.
    if (band.eq || band.hi <= band.lo) return 0.0;
    if (std::isfinite(band.hi)) {
      PIP_ASSIGN_OR_RETURN(fhi, pool_->Cdf(v, band.hi));
    }
    if (std::isfinite(band.lo)) {
      PIP_ASSIGN_OR_RETURN(flo, pool_->Cdf(v, band.lo));
    }
    return std::max(0.0, fhi - flo);
  }

  // Integer lattice. An infinite bound is a bound: X > +inf and X < -inf
  // hold nowhere.
  if (band.lo > band.hi || band.lo == kInf || band.hi == -kInf) return 0.0;
  if (band.eq) {
    if (*band.eq < band.lo || *band.eq > band.hi) return 0.0;
    for (double x : band.ne) {
      if (x == *band.eq) return 0.0;
    }
    return pool_->Pdf(v, *band.eq);
  }
  if (band.hi != kInf) {
    PIP_ASSIGN_OR_RETURN(fhi, pool_->Cdf(v, band.hi));
  }
  if (band.lo != -kInf) {
    PIP_ASSIGN_OR_RETURN(flo, pool_->Cdf(v, band.lo - 1.0));
  }
  double p = std::max(0.0, fhi - flo);
  // Remove the != pins inside the band.
  for (double x : band.ne) {
    if (std::floor(x) != x) continue;  // Off-lattice: zero mass anyway.
    if (x < band.lo || x > band.hi) continue;
    PIP_ASSIGN_OR_RETURN(double m, pool_->Pdf(v, x));
    p -= m;
  }
  return std::max(0.0, p);
}

StatusOr<std::optional<double>> SamplingEngine::TryNumericIntegration(
    const ExprPtr& expr, const GroupPlan& plan) const {
  const VarRef v = plan.vars[0];
  PIP_ASSIGN_OR_RETURN(const VariableInfo* info, pool_->Info(v.var_id));
  bool discrete = info->dist->domain() != DomainKind::kContinuous;
  // The folded band inside the support, narrowed to its = pin.
  const Interval support = pool_->Support(v);
  double lo = std::max(support.lo, plan.band.lo);
  double hi = std::min(support.hi, plan.band.hi);
  if (plan.band.eq) {
    lo = std::max(lo, *plan.band.eq);
    hi = std::min(hi, *plan.band.eq);
  }
  if (lo > hi) return std::optional<double>{};

  Assignment point;
  auto g = [&](double x) -> StatusOr<double> {
    point.Set(v, x);
    return expr->EvalDouble(point);
  };

  if (discrete) {
    // Exact lattice sum over [lo, hi], tail-clipped by quantile for
    // unbounded domains.
    double k_lo = std::ceil(lo);
    double k_hi = hi;
    if (!std::isfinite(k_hi)) {
      if (!info->dist->HasInverseCdf()) return std::optional<double>{};
      PIP_ASSIGN_OR_RETURN(
          k_hi, info->dist->InverseCdf(info->params, 0, 1.0 - 1e-14));
    }
    if (!std::isfinite(k_lo) || k_hi - k_lo > 2e6) {
      return std::optional<double>{};
    }
    double numerator = 0.0, mass = 0.0;
    for (double k = k_lo; k <= k_hi; k += 1.0) {
      if (std::find(plan.band.ne.begin(), plan.band.ne.end(), k) !=
          plan.band.ne.end()) {
        continue;
      }
      PIP_ASSIGN_OR_RETURN(double pmf, pool_->Pdf(v, k));
      if (pmf <= 0.0) continue;
      auto value = g(k);
      if (!value.ok()) return std::optional<double>{};
      numerator += pmf * value.value();
      mass += pmf;
    }
    if (mass <= 0.0) return std::optional<double>{};
    return std::optional<double>{numerator / mass};
  }

  // Continuous: clip unbounded endpoints at extreme quantiles.
  if (!std::isfinite(lo) || !std::isfinite(hi)) {
    if (!info->dist->HasInverseCdf()) return std::optional<double>{};
    if (!std::isfinite(lo)) {
      PIP_ASSIGN_OR_RETURN(lo, info->dist->InverseCdf(info->params, 0, 1e-14));
    }
    if (!std::isfinite(hi)) {
      PIP_ASSIGN_OR_RETURN(
          hi, info->dist->InverseCdf(info->params, 0, 1.0 - 1e-14));
    }
  }
  if (!(hi > lo) || !std::isfinite(lo) || !std::isfinite(hi)) {
    return std::optional<double>{};
  }
  PIP_ASSIGN_OR_RETURN(double flo, pool_->Cdf(v, lo));
  PIP_ASSIGN_OR_RETURN(double fhi, pool_->Cdf(v, hi));
  double mass = fhi - flo;
  if (mass <= 1e-300) return std::optional<double>{};

  auto integrand = [&](double x) -> StatusOr<double> {
    PIP_ASSIGN_OR_RETURN(double pdf, pool_->Pdf(v, x));
    if (!std::isfinite(pdf)) {
      return Status::OutOfRange("pdf singularity");  // Fallback to sampling.
    }
    PIP_ASSIGN_OR_RETURN(double value, g(x));
    return pdf * value;
  };
  auto fa = integrand(lo);
  auto fm = integrand(0.5 * (lo + hi));
  auto fb = integrand(hi);
  if (!fa.ok() || !fm.ok() || !fb.ok()) return std::optional<double>{};
  bool ok = true;
  double numerator = AdaptiveSimpson(
      integrand, lo, hi, fa.value(), fm.value(), fb.value(),
      kIntegrationTolerance * std::max(1.0, mass), 40, &ok);
  if (!ok || !std::isfinite(numerator)) return std::optional<double>{};
  return std::optional<double>{numerator / mass};
}

size_t SamplingEngine::ChunkAttemptBudget(size_t chunk_len,
                                          size_t schedule_len,
                                          bool pilot) const {
  if (pilot || schedule_len == 0 || chunk_len >= schedule_len) {
    return options_.max_total_attempts;
  }
  double share = static_cast<double>(options_.max_total_attempts) *
                 static_cast<double>(chunk_len) /
                 static_cast<double>(schedule_len);
  double budget =
      std::max(share, static_cast<double>(kMinChunkAttempts));
  return static_cast<size_t>(
      std::min(budget, static_cast<double>(options_.max_total_attempts)));
}

Status SamplingEngine::FillChunkBatch(const GroupPlan& plan,
                                      uint64_t sample_begin, uint64_t len,
                                      uint64_t attempt,
                                      ChunkBatch* out) const {
  out->begin = sample_begin;
  out->blocks.clear();
  out->windowed = false;
  for (size_t i = 0; i < plan.vars.size(); ++i) {
    out->windowed = out->windowed || plan.cdf_constrained[i];
    if (!plan.NaturalHead(i)) continue;
    ChunkBatch::Block block;
    block.var_id = plan.vars[i].var_id;
    PIP_ASSIGN_OR_RETURN(const VariableInfo* info, pool_->Info(block.var_id));
    block.ncomp = info->num_components;
    PIP_RETURN_IF_ERROR(pool_->GenerateBatch(block.var_id, sample_begin, len,
                                             attempt, &block.values));
    out->blocks.push_back(std::move(block));
  }
  return Status::OK();
}

Status SamplingEngine::DrawGroup(const GroupPlan& plan, uint64_t sample_index,
                                 uint64_t attempt, const ChunkBatch* batch,
                                 std::vector<double>* joint,
                                 Assignment* assignment) const {
  for (size_t i = 0;
       (batch == nullptr || batch->windowed) && i < plan.vars.size(); ++i) {
    const VarRef& v = plan.vars[i];
    if (plan.cdf_constrained[i]) {
      SampleContext ctx{pool_->seed(), v.var_id, sample_index, attempt};
      RandomStream stream = ctx.StreamFor(v.component);
      double u = WindowDraw(&stream, plan.window_lo[i], plan.window_hi[i]);
      double x;
      if (plan.quantile_tables[i] != nullptr) {
        x = plan.quantile_tables[i]->Quantile(u);
      } else {
        PIP_ASSIGN_OR_RETURN(x, pool_->InverseCdf(v, u));
      }
      assignment->Set(v, x);
    } else if (batch == nullptr && plan.NaturalHead(i)) {
      // Natural joint draw of all components of this id.
      PIP_RETURN_IF_ERROR(
          pool_->GenerateJoint(v.var_id, sample_index, attempt, joint));
      for (uint32_t comp = 0; comp < joint->size(); ++comp) {
        assignment->Set(VarRef{v.var_id, comp}, (*joint)[comp]);
      }
    }
  }
  if (batch != nullptr) {
    const uint64_t row = sample_index - batch->begin;
    for (const ChunkBatch::Block& b : batch->blocks) {
      const double* x = b.values.data() + row * b.ncomp;
      for (uint32_t comp = 0; comp < b.ncomp; ++comp) {
        assignment->Set(VarRef{b.var_id, comp}, x[comp]);
      }
    }
  }
  return Status::OK();
}

StatusOr<bool> SamplingEngine::SampleGroupOnce(
    GroupPlan* plan, uint64_t sample_index, const ChunkBatch* batch,
    std::vector<double>* joint, Assignment* assignment,
    size_t* total_attempts, size_t attempt_budget) const {
  // Metropolis mode: the chain hands us a constrained sample directly.
  if (plan->metropolis != nullptr) {
    PIP_RETURN_IF_ERROR(plan->metropolis->NextSample(assignment));
    ++plan->accepted;
    return true;
  }

  for (uint64_t attempt = 0;; ++attempt) {
    if (++(*total_attempts) > attempt_budget) return false;
    ++plan->attempts;
    PIP_RETURN_IF_ERROR(DrawGroup(*plan, sample_index, attempt,
                                  attempt == 0 ? batch : nullptr, joint,
                                  assignment));

    // Accept iff every group atom holds.
    bool ok = true;
    for (const auto& atom : plan->atoms) {
      PIP_ASSIGN_OR_RETURN(bool t, atom.Eval(*assignment));
      if (!t) {
        ok = false;
        break;
      }
    }
    if (ok) {
      ++plan->accepted;
      return true;
    }

    // Metropolis switch check (Alg. 4.3 lines 19-24): rejection rate over
    // this group's lifetime exceeded the threshold. Shard clones skip the
    // check — the chain decision belongs to the pilot shard, so it never
    // depends on how the index space was scheduled.
    if (options_.use_metropolis && plan->allow_metropolis &&
        plan->attempts >= options_.metropolis_check_after) {
      double rejection_rate =
          1.0 - static_cast<double>(plan->accepted) /
                    static_cast<double>(plan->attempts);
      if (rejection_rate > options_.metropolis_threshold &&
          MetropolisSampler::CanHandle(*pool_, plan->vars)) {
        auto sampler = std::make_unique<MetropolisSampler>(
            pool_, plan->vars, plan->atoms, plan->consistency,
            plan->chain_key);
        Status init = sampler->Init();
        if (!init.ok()) return false;  // "unable to find a start point".
        plan->metropolis = std::move(sampler);
        PIP_RETURN_IF_ERROR(plan->metropolis->NextSample(assignment));
        ++plan->accepted;
        return true;
      }
    }
  }
}

StatusOr<SamplingEngine::AcceptRun> SamplingEngine::RunAcceptSchedule(
    std::vector<GroupPlan>* plans, const ExprPtr& expr, uint64_t cap,
    double* slots, const std::function<bool(const AcceptRun&)>& done) const {
  struct Outcome {
    RunningStats stats;
    size_t produced = 0;
    size_t attempts = 0;  // Attempt-counter consumption of this shard.
    bool collapsed = false;  // Budget exhausted, or aborted behind one.
    /// (accepted, attempts) of a wave chunk's plan clones, to fold back
    /// into the originals; empty when the chunk ran on *plans in place
    /// (pilot and chain chunks).
    std::vector<std::pair<size_t, size_t>> clone_counts;
    Status status = Status::OK();
  };
  // Lowest chunk index whose budget genuinely collapsed. Chunks strictly
  // after it abort early: the in-order fold stops before reading them,
  // so the abort never shows in results. Strictly-after matters — an
  // *earlier* chunk aborting would change what the fold sees (for
  // SampleConditional, shorten the visible prefix).
  std::atomic<uint64_t> first_collapsed{UINT64_MAX};
  auto run_chunk = [&](std::vector<GroupPlan>* ps, size_t c, uint64_t begin,
                       uint64_t end, size_t budget) {
    Outcome out;
    // The batching rule: attempt 0 of every natural variable of a
    // chain-free target group comes from one GenerateBatch block per
    // var_id. Retries, windowed draws and chains stay scalar.
    std::vector<ChunkBatch> batches(ps->size());
    for (size_t g = 0; options_.use_batch_generation && g < ps->size(); ++g) {
      const GroupPlan& plan = (*ps)[g];
      if (!plan.touches_target || plan.metropolis != nullptr) continue;
      out.status = FillChunkBatch(plan, options_.sample_offset + begin,
                                  end - begin, /*attempt=*/0, &batches[g]);
      if (!out.status.ok()) return out;
    }
    std::vector<double> joint;
    Assignment assignment;
    for (uint64_t i = begin; i < end; ++i) {
      if (first_collapsed.load(std::memory_order_relaxed) < c) {
        out.collapsed = true;
        return out;
      }
      assignment.Clear();
      bool got_all = true;
      for (size_t g = 0; g < ps->size() && got_all; ++g) {
        GroupPlan& plan = (*ps)[g];
        if (!plan.touches_target) continue;
        const ChunkBatch* batch =
            batches[g].blocks.empty() ? nullptr : &batches[g];
        auto ok = SampleGroupOnce(&plan, options_.sample_offset + i, batch,
                                  &joint, &assignment, &out.attempts, budget);
        if (!ok.ok()) {
          out.status = ok.status();
          return out;
        }
        got_all = ok.value();
      }
      if (!got_all) {
        out.collapsed = true;
        uint64_t cur = first_collapsed.load(std::memory_order_relaxed);
        while (c < cur && !first_collapsed.compare_exchange_weak(
                              cur, c, std::memory_order_relaxed)) {
        }
        return out;
      }
      auto value = expr->EvalDouble(assignment);
      if (!value.ok()) {
        out.status = value.status();
        return out;
      }
      if (slots != nullptr) {
        slots[i] = value.value();
      } else {
        out.stats.Add(value.value());
      }
      ++out.produced;
    }
    return out;
  };

  // The fold runs in chunk order for pilot, chain and wave chunks alike.
  // Its ledger is what makes max_total_attempts a real per-call bound:
  // shard floors let individual chunks over-spend their proportional
  // share, but the fold trips the collapse as soon as the folded shards
  // exceed the configured budget — at a deterministic chunk index,
  // independent of thread count.
  AcceptRun run;
  Status error = Status::OK();
  auto fold = [&](Outcome& o) {
    error = FoldBarrier(options_, o.status);
    if (!error.ok()) return false;
    run.stats.Merge(o.stats);
    run.produced += o.produced;
    run.attempts += o.attempts;
    for (size_t g = 0; g < o.clone_counts.size(); ++g) {
      (*plans)[g].accepted += o.clone_counts[g].first;
      (*plans)[g].attempts += o.clone_counts[g].second;
    }
    if (o.collapsed || run.attempts > options_.max_total_attempts) {
      run.collapsed = true;
      return false;
    }
    return !(done && done(run));
  };

  const size_t chunk = std::max<size_t>(1, options_.chunk_samples);
  const size_t nchunks = NumChunks(cap, chunk);
  if (nchunks == 0) return run;

  // Pilot shard: chunk 0 runs first, serially, on the original plans
  // with the Metropolis switch armed. Rejection-rate history (and any
  // chain it spawns) is confined to this shard, so the switch decision
  // is identical for every num_threads.
  const uint64_t pilot_end = std::min<uint64_t>(cap, chunk);
  Outcome pilot =
      run_chunk(plans, /*c=*/0, /*begin=*/0, pilot_end,
                ChunkAttemptBudget(pilot_end, cap, /*pilot=*/true));
  if (!fold(pilot) || nchunks == 1) {
    PIP_RETURN_IF_ERROR(error);
    return run;
  }

  // Later shards budget from the pilot's observed per-sample cost
  // (deterministic — the pilot is serial), with 4x slack for variance,
  // never below the proportional-share floor. This keeps adaptive runs
  // over hard-but-samplable conditions (the proportional share prorates
  // against a schedule such runs rarely exhaust) from collapsing where
  // the serial engine succeeded; the fold's ledger still bounds the call
  // at max_total_attempts.
  size_t later_budget = ChunkAttemptBudget(chunk, cap);
  if (pilot.produced > 0) {
    later_budget = std::max(
        later_budget, std::min(options_.max_total_attempts,
                               4 * (pilot.attempts / pilot.produced) * chunk));
  }

  bool chain_mode = false;
  for (const auto& plan : *plans) {
    chain_mode =
        chain_mode || (plan.touches_target && plan.metropolis != nullptr);
  }
  if (chain_mode) {
    // A Metropolis chain is inherently sequential: finish the remaining
    // chunks serially on the original plans. Still deterministic — this
    // path never forks, whatever num_threads is.
    for (size_t c = 1; c < nchunks; ++c) {
      uint64_t begin = static_cast<uint64_t>(c) * chunk;
      uint64_t end = std::min<uint64_t>(cap, begin + chunk);
      Outcome o = run_chunk(plans, c, begin, end, later_budget);
      if (!fold(o)) break;
    }
  } else {
    // Parallel shards over counter-reset plan clones, dispatched in
    // waves; chunks computed past the stopping point are discarded, so
    // the accepted index set matches a serial run.
    RunChunkedWaves<Outcome>(
        cap, chunk, /*start_chunk=*/1, /*wave_limited=*/true,
        options_.num_threads,
        [&](size_t c, uint64_t begin, uint64_t end) {
          std::vector<GroupPlan> clones;
          clones.reserve(plans->size());
          for (const auto& p : *plans) clones.push_back(p.CloneForChunk());
          Outcome out = run_chunk(&clones, c, begin, end, later_budget);
          for (const auto& p : clones) {
            out.clone_counts.emplace_back(p.accepted, p.attempts);
          }
          return out;
        },
        [&](size_t, Outcome& o) { return fold(o); });
  }
  PIP_RETURN_IF_ERROR(error);
  return run;
}

template <typename Hit>
StatusOr<double> SamplingEngine::HitRate(const GroupPlan& plan,
                                         uint64_t marker, size_t cap,
                                         const Hit& hit,
                                         size_t* ledger) const {
  // Each draw is a pure function of its sample index (the attempt key
  // `marker` decorrelates it from the accept loop's draws), so the index
  // space shards into chunks like the accept loop: fixed chunk schedule,
  // hits folded in chunk order, adaptive stopping at chunk barriers only.
  struct HitChunk {
    size_t n = 0, hits = 0, attempts = 0;
    bool truncated = false;
    Status status = Status::OK();
  };
  const bool use_batch = options_.use_batch_generation;
  auto run_chunk = [&](size_t, uint64_t begin, uint64_t end) {
    HitChunk out;
    const size_t budget = ledger != nullptr
                              ? ChunkAttemptBudget(end - begin, cap)
                              : std::numeric_limits<size_t>::max();
    // Window-constrained draws stay scalar; pre-drawn values a truncated
    // chunk never consumes are invisible to the fold.
    ChunkBatch batch;
    if (use_batch) {
      out.status = FillChunkBatch(plan, options_.sample_offset + begin,
                                  end - begin, marker, &batch);
      if (!out.status.ok()) return out;
    }
    std::vector<double> joint;
    Assignment a;
    for (uint64_t idx = begin; idx < end; ++idx) {
      if (++out.attempts > budget) {
        out.truncated = true;
        return out;
      }
      Status drawn = DrawGroup(plan, options_.sample_offset + idx, marker,
                               use_batch ? &batch : nullptr, &joint, &a);
      if (!drawn.ok()) {
        out.status = std::move(drawn);
        return out;
      }
      auto h = hit(a);
      if (!h.ok()) {
        out.status = h.status();
        return out;
      }
      ++out.n;
      if (h.value()) ++out.hits;
    }
    return out;
  };

  const double z = M_SQRT2 * ErfInv(1.0 - options_.epsilon);
  const bool adaptive = options_.fixed_samples == 0;
  size_t n = 0, hits = 0;
  Status error = Status::OK();
  RunChunkedWaves<HitChunk>(
      cap, std::max<size_t>(1, options_.chunk_samples), /*start_chunk=*/0,
      adaptive, options_.num_threads, run_chunk, [&](size_t, HitChunk& o) {
        error = FoldBarrier(options_, o.status);
        if (!error.ok()) return false;
        n += o.n;
        hits += o.hits;
        if (ledger != nullptr) {
          // Budget collapse — the shard's own, or the call-wide ledger
          // (it carries over from the accept loop, so max_total_attempts
          // bounds the whole call): estimate from what we have.
          *ledger += o.attempts;
          if (o.truncated || *ledger > options_.max_total_attempts) {
            return false;
          }
        }
        if (adaptive && n >= options_.min_samples) {
          double p = static_cast<double>(hits) / static_cast<double>(n);
          double half_width = z * std::sqrt(std::max(p * (1.0 - p), 1e-12) /
                                            static_cast<double>(n));
          if (half_width <= options_.delta * std::max(p, 0.01)) return false;
        }
        return true;
      });
  PIP_RETURN_IF_ERROR(error);
  return n > 0 ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
}

StatusOr<double> SamplingEngine::EstimateGroupProbability(
    const GroupPlan& plan, size_t* total_attempts) const {
  if (plan.atoms.empty()) return 1.0;
  // Fresh Monte Carlo estimate of P[atoms | windows] * window_prob.
  constexpr uint64_t kEstimateMarker = 0xE571ULL << 32;
  const size_t cap = options_.fixed_samples > 0
                         ? std::max<size_t>(options_.fixed_samples, 256)
                         : options_.max_samples;
  PIP_ASSIGN_OR_RETURN(
      double p, HitRate(
                    plan, kEstimateMarker, cap,
                    [&](const Assignment& a) -> StatusOr<bool> {
                      for (const auto& atom : plan.atoms) {
                        PIP_ASSIGN_OR_RETURN(bool t, atom.Eval(a));
                        if (!t) return false;
                      }
                      return true;
                    },
                    total_attempts));
  return p * plan.window_prob;
}

StatusOr<ExpectationResult> SamplingEngine::Expectation(
    const ExprPtr& expr, const Condition& condition,
    bool compute_probability) const {
  return Expectation(expr, condition, compute_probability, /*shape=*/nullptr);
}

StatusOr<ExpectationResult> SamplingEngine::Expectation(
    const ExprPtr& expr, const Condition& condition, bool compute_probability,
    const Shape* shape) const {
  ExpectationResult result;
  if (condition.IsKnownFalse()) {
    result.expectation = kNan;
    result.probability = 0.0;
    result.exact = true;
    return result;
  }

  VarSet target_vars = expr->Variables();
  bool inconsistent = false;
  PIP_ASSIGN_OR_RETURN(
      std::vector<GroupPlan> plans,
      PlanGroups(condition, target_vars, &inconsistent, shape));
  if (inconsistent) {
    result.expectation = kNan;
    result.probability = 0.0;
    result.exact = true;
    return result;
  }

  size_t total_attempts = 0;
  bool sampled = false;

  // ---- Expectation over the target-touching groups. ----
  bool integrated = target_vars.empty();
  if (integrated) {
    PIP_ASSIGN_OR_RETURN(result.expectation, expr->EvalDouble(Assignment()));
  }
  for (const GroupPlan& plan : plans) {
    if (plan.strategy != GroupStrategy::kIntegrate) continue;
    // The sole target group integrates in closed numeric form,
    // sidestepping sampling unless a value-level fallback hits.
    PIP_ASSIGN_OR_RETURN(std::optional<double> value,
                         TryNumericIntegration(expr, plan));
    if (value.has_value()) {
      result.expectation = *value;
      integrated = true;
    }
  }
  if (!integrated) {
    // Monte Carlo over the sample-index space, sharded into contiguous
    // chunks by RunAcceptSchedule. The chunk schedule, the merge
    // order and the adaptive stopping barriers depend only on
    // chunk_samples — never on num_threads — so serial and parallel runs
    // accept the same index set and fold the same merge tree: results
    // are bit-identical.
    const bool fixed = options_.fixed_samples > 0;
    const double z = M_SQRT2 * ErfInv(1.0 - options_.epsilon);
    std::function<bool(const AcceptRun&)> done;
    if (!fixed) {
      done = [&](const AcceptRun& run) {
        if (run.stats.count() < static_cast<int64_t>(options_.min_samples)) {
          return false;
        }
        double mean = std::fabs(run.stats.mean());
        double half_width = z * run.stats.standard_error();
        return half_width <= options_.delta * std::max(mean, 1e-9);
      };
    }
    PIP_ASSIGN_OR_RETURN(
        AcceptRun run,
        RunAcceptSchedule(
            &plans, expr,
            fixed ? options_.fixed_samples : options_.max_samples,
            /*slots=*/nullptr, done));
    total_attempts = run.attempts;
    if (run.collapsed) {
      // Sampling budget collapsed: the condition region is effectively
      // unreachable. Per the paper, report NAN.
      result.expectation = kNan;
      result.probability = 0.0;
      result.attempts = total_attempts;
      return result;
    }
    result.expectation = run.stats.mean();
    result.samples_used = run.produced;
    sampled = run.produced > 0;
  }

  // ---- Probability of the full condition. ----
  if (compute_probability) {
    double prob = 1.0;
    for (auto& plan : plans) {
      if (plan.strategy != GroupStrategy::kSample) {
        prob *= plan.exact_prob;
      } else if (plan.metropolis != nullptr) {
        // "Metropolis doesn't give us a probability" — estimate the group
        // separately by plain (windowed) Monte Carlo.
        PIP_ASSIGN_OR_RETURN(double p,
                             EstimateGroupProbability(plan, &total_attempts));
        prob *= p;
      } else if (plan.touches_target && plan.attempts > 0) {
        // Free acceptance-rate estimate from the expectation loop
        // (Alg. 4.3 line 29), corrected by the CDF window volume.
        prob *= plan.window_prob * static_cast<double>(plan.accepted) /
                static_cast<double>(plan.attempts);
      } else if (!plan.atoms.empty()) {
        PIP_ASSIGN_OR_RETURN(double p,
                             EstimateGroupProbability(plan, &total_attempts));
        prob *= p;
        sampled = true;
      }
    }
    result.probability = prob;
  }

  result.attempts = total_attempts;
  result.exact = !sampled;
  return result;
}

StatusOr<ExpectationResult> SamplingEngine::Confidence(
    const Condition& condition) const {
  return Confidence(condition, /*shape=*/nullptr);
}

StatusOr<ExpectationResult> SamplingEngine::Confidence(
    const Condition& condition, const Shape* shape) const {
  // conf() is expectation of the constant 1 with getP (the probability is
  // the interesting output).
  PIP_ASSIGN_OR_RETURN(ExpectationResult r,
                       Expectation(Expr::Constant(1.0), condition,
                                   /*compute_probability=*/true, shape));
  if (std::isnan(r.expectation)) r.probability = 0.0;
  return r;
}

StatusOr<std::optional<ExpectationResult>> SamplingEngine::ClosedForm(
    const ExprPtr* expr, const Condition& condition,
    bool compute_probability) const {
  const bool expr_deterministic =
      expr == nullptr || (*expr)->IsDeterministic();
  const bool deterministic =
      condition.IsKnownFalse() ||
      (condition.IsDeterministic() && expr_deterministic);
  Shape shape;
  if (!deterministic) {
    // Exact-CDF groups hold one variable under var-vs-constant atoms, so
    // any other atom (e.g. one over two variables) rules the call out
    // before a shape key is built.
    if (!expr_deterministic) return std::optional<ExpectationResult>{};
    for (const ConstraintAtom& atom : condition.atoms()) {
      const bool var_const =
          (atom.lhs()->op() == ExprOp::kVar && atom.rhs()->IsConstant()) ||
          (atom.rhs()->op() == ExprOp::kVar && atom.lhs()->IsConstant());
      if (!var_const) return std::optional<ExpectationResult>{};
    }
    // The target has no variables, so this is the skeleton the call
    // itself plans with.
    shape = Skeleton(condition, VarSet());
    for (const auto& group : shape.skeleton->groups) {
      if (group.strategy != GroupStrategy::kExactCdf) {
        return std::optional<ExpectationResult>{};
      }
    }
  }
  const Shape* planned = deterministic ? nullptr : &shape;
  std::optional<ExpectationResult> result;
  PIP_ASSIGN_OR_RETURN(
      result,
      expr == nullptr
          ? Confidence(condition, planned)
          : Expectation(*expr, condition, compute_probability, planned));
  return result;
}

StatusOr<double> SamplingEngine::JointConfidence(
    const std::vector<Condition>& disjuncts) const {
  std::vector<const Condition*> live;
  for (const auto& d : disjuncts) {
    if (d.IsKnownFalse()) continue;
    if (d.IsTrue()) return 1.0;
    live.push_back(&d);
  }
  if (live.empty()) return 0.0;
  if (live.size() == 1) {
    PIP_ASSIGN_OR_RETURN(ExpectationResult r, Confidence(*live[0]));
    return r.probability;
  }

  if (live.size() <= 6) {
    // Inclusion-exclusion over conjunction probabilities; each conjunction
    // gets the full per-group treatment (often exact via CDFs). The
    // conjunctions of one disjunct set recombine the same atom shapes, so
    // the plan-shape cache amortizes their planning passes.
    double total = 0.0;
    size_t n = live.size();
    for (size_t mask = 1; mask < (size_t{1} << n); ++mask) {
      Condition conj;
      for (size_t i = 0; i < n; ++i) {
        if (mask & (size_t{1} << i)) conj = conj.And(*live[i]);
      }
      double sign = (__builtin_popcountll(mask) % 2 == 1) ? 1.0 : -1.0;
      if (conj.IsKnownFalse()) continue;
      PIP_ASSIGN_OR_RETURN(ExpectationResult r, Confidence(conj));
      total += sign * r.probability;
    }
    return std::min(1.0, std::max(0.0, total));
  }

  // Many disjuncts: joint Monte Carlo through a window-free plan over the
  // union of their variables, with no attempt ledger.
  VarSet all_vars;
  for (const auto* d : live) d->CollectVariables(&all_vars);
  GroupPlan plan;
  plan.SetVars(all_vars);
  constexpr uint64_t kAconfMarker = 0xAC0FULL << 32;
  return HitRate(
      plan, kAconfMarker,
      options_.fixed_samples > 0 ? options_.fixed_samples
                                 : options_.max_samples,
      [&](const Assignment& a) -> StatusOr<bool> {
        for (const auto* d : live) {
          PIP_ASSIGN_OR_RETURN(bool t, d->Eval(a));
          if (t) return true;
        }
        return false;
      },
      /*ledger=*/nullptr);
}

StatusOr<std::vector<double>> SamplingEngine::SampleConditional(
    const ExprPtr& expr, const Condition& condition, size_t n) const {
  std::vector<double> samples;
  if (condition.IsKnownFalse()) return samples;
  VarSet target_vars = expr->Variables();
  bool inconsistent = false;
  PIP_ASSIGN_OR_RETURN(std::vector<GroupPlan> plans,
                       PlanGroups(condition, target_vars, &inconsistent));
  if (inconsistent || n == 0) return samples;

  // Same accept loop as Expectation, writing each sample into its slot.
  // A collapse (shard budget or call ledger) truncates the result to the
  // prefix produced so far.
  samples.assign(n, 0.0);
  PIP_ASSIGN_OR_RETURN(AcceptRun run,
                       RunAcceptSchedule(&plans, expr, n, samples.data(),
                                         /*done=*/nullptr));
  samples.resize(run.produced);
  return samples;
}

}  // namespace pip
