/// \file builtins_discrete.cc
/// \brief Builtin discrete distributions on the integer lattice.
///
/// Discrete conventions (shared with the engine): Pdf is the probability
/// mass function and is 0 off-lattice; Cdf is right-continuous
/// P[X <= floor(x)]; InverseCdf(p) is the smallest lattice point k with
/// CDF(k) >= p. Finite-domain classes additionally enumerate DomainValues
/// (zero-mass points omitted), which unlocks possible-world enumeration.

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/common/special_math.h"
#include "src/dist/builtins.h"

namespace pip {
namespace dist_internal {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Batch word fill for univariate kernels: u[s] gets the first uniform of
/// sample s's component-0 stream, matching the scalar path's per-sample
/// stream construction exactly (see builtins_continuous.cc).
void FillFirstUniforms(const SampleContext& ctx, uint64_t n, double* u) {
  const uint64_t mixed_seed = ctx.MixedSeed();
  for (uint64_t s = 0; s < n; ++s) {
    RandomStream stream(mixed_seed, ctx.var_id, 0, ctx.sample_index + s);
    stream.FillUniforms(u + s, 1);
  }
}

// ---------------------------------------------------------------------------
// Poisson(lambda) — infinite lattice.
// ---------------------------------------------------------------------------

/// The Poisson quantile's CDF ladder: rungs cum[k] = PoissonCdf(lambda, k)
/// for k = 0..K with K = ceil(lambda + 9 sqrt(lambda)) + 10, memoized per
/// rate. On the ladder a quantile is one binary search instead of a
/// NormalQuantile plus two or three PoissonCdf calls.
///
/// Same lattice point as the walk (PoissonDist::Quantile), bit for bit,
/// whenever 0 < q <= cum[K] and the rungs are non-decreasing:
///   * The walk starts at k0 = max(0, floor(lambda + sqrt(lambda) z + 0.5))
///     with z = NormalQuantile(q). The largest double below 1 is 1 - 2^-53
///     and NormalQuantile(1 - 2^-53) = 8.2095 < 9, so k0 <= K: the walk
///     starts on the ladder.
///   * Stepping up from k0 it stops at the first k with cum[k] >= q, which
///     exists at or below K because cum[K] >= q; stepping down it stops
///     above the first k - 1 with cum[k - 1] < q. Either way it evaluates
///     PoissonCdf only at rungs (the same calls, so the same bits), and on
///     a monotone ladder both stops are the smallest k with cum[k] >= q —
///     which is what lower_bound returns.
/// A q above cum[K] (the far tail), a NaN q, a ladder that is not monotone
/// (PoissonCdf switches between an incomplete-gamma series and a continued
/// fraction, which need not meet monotonically) and rates whose ladder
/// would exceed kMaxRungs all take the walk.
class PoissonLadder {
 public:
  /// The rungs for `lambda`, or nullptr when only the walk applies. The
  /// pointer stays valid until the calling thread's next For().
  static const std::vector<double>* For(double lambda) {
    // Negated compare: a NaN or negative rate (sqrt -> NaN) walks too.
    const double top = std::ceil(lambda + 9.0 * std::sqrt(lambda)) + 10.0;
    if (!(top < kMaxRungs)) return nullptr;
    // Thread-local so lookups take no lock (the Categorical and Zipf
    // tables' pattern); keyed by the rate's bits. Several rates stay
    // resident, because one sampling chunk alternates its variables.
    static thread_local std::unordered_map<uint64_t, std::vector<double>>
        cache;
    static thread_local size_t cached_rungs = 0;
    uint64_t key = 0;
    std::memcpy(&key, &lambda, sizeof(key));
    auto it = cache.find(key);
    if (it == cache.end()) {
      const size_t rungs = static_cast<size_t>(top) + 1;
      if (cached_rungs + rungs > kMaxCachedRungs) {
        cache.clear();
        cached_rungs = 0;
      }
      cached_rungs += rungs;
      it = cache.emplace(key, Build(lambda, rungs)).first;
    }
    return it->second.empty() ? nullptr : &it->second;
  }

 private:
  /// Largest ladder built (lambda up to about 3500).
  static constexpr double kMaxRungs = 4096;
  /// Bound on one thread's memo: 64Ki rungs (512 KiB), about 1,300 ladders
  /// of rates near 10.
  static constexpr size_t kMaxCachedRungs = size_t{1} << 16;

  /// The ladder, or an empty vector (remembered, so the walk is not
  /// re-checked) when the rungs are not monotone.
  static std::vector<double> Build(double lambda, size_t rungs) {
    std::vector<double> cum(rungs);
    for (size_t k = 0; k < rungs; ++k) {
      cum[k] = PoissonCdf(lambda, static_cast<double>(k));
      if (k > 0 && cum[k] < cum[k - 1]) return {};
    }
    return cum;
  }
};

class PoissonDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "Poisson";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kDiscrete; }
  uint32_t Capabilities() const override {
    return kGenerate | kPdf | kCdf | kInverseCdf | kMoments;
  }
  Status ValidateParams(const std::vector<double>& p) const override {
    PIP_RETURN_IF_ERROR(ExpectParamCount(name(), p, 1));
    PIP_RETURN_IF_ERROR(ExpectFinite(name(), p));
    return ExpectPositive(name(), "lambda", p[0]);
  }
  Status GenerateJoint(const std::vector<double>& p, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1, Quantile(p[0], stream.NextUniform()));
    return Status::OK();
  }
  Status GenerateBatch(const std::vector<double>& p, const SampleContext& ctx,
                       uint64_t n, double* out) const override {
    FillFirstUniforms(ctx, n, out);
    const double lambda = p[0];
    const std::vector<double>* ladder = PoissonLadder::For(lambda);
    for (uint64_t s = 0; s < n; ++s) out[s] = Quantile(lambda, out[s], ladder);
    return Status::OK();
  }
  StatusOr<double> Pdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    if (x < 0.0 || !IsInteger(x)) return 0.0;
    // Beyond long long the cast below is UB; the mass is 0 long before.
    if (x > 9e18) return 0.0;
    return std::exp(PoissonLogPmf(p[0], static_cast<long long>(x)));
  }
  StatusOr<double> Cdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    return PoissonCdf(p[0], x);
  }
  StatusOr<double> InverseCdf(const std::vector<double>& p, uint32_t,
                              double q) const override {
    return Quantile(p[0], q);
  }
  StatusOr<double> Mean(const std::vector<double>& p, uint32_t) const override {
    return p[0];
  }
  StatusOr<double> Variance(const std::vector<double>& p,
                            uint32_t) const override {
    return p[0];
  }
  Interval Support(const std::vector<double>&, uint32_t) const override {
    return Interval::AtLeast(0.0);
  }

 private:
  /// Smallest k with CDF(k) >= q: a binary search of the rate's CDF
  /// ladder, or, off the ladder, a normal-approximation starting point
  /// followed by a short lattice walk (O(1) expected even for large
  /// lambda). Both give the same bits; see PoissonLadder.
  static double Quantile(double lambda, double q) {
    return Quantile(lambda, q, PoissonLadder::For(lambda));
  }
  static double Quantile(double lambda, double q,
                         const std::vector<double>* ladder) {
    if (q <= 0.0) return 0.0;
    if (q >= 1.0) return kInf;
    if (ladder != nullptr && q <= ladder->back()) {
      return static_cast<double>(
          std::lower_bound(ladder->begin(), ladder->end(), q) -
          ladder->begin());
    }
    double guess =
        std::floor(lambda + std::sqrt(lambda) * NormalQuantile(q) + 0.5);
    double k = std::max(0.0, guess);
    while (PoissonCdf(lambda, k) < q) k += 1.0;
    while (k > 0.0 && PoissonCdf(lambda, k - 1.0) >= q) k -= 1.0;
    return k;
  }
};

// ---------------------------------------------------------------------------
// Bernoulli(p)
// ---------------------------------------------------------------------------

class BernoulliDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "Bernoulli";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kDiscrete; }
  uint32_t Capabilities() const override {
    return kGenerate | kPdf | kCdf | kInverseCdf | kMoments | kFiniteDomain;
  }
  Status ValidateParams(const std::vector<double>& p) const override {
    PIP_RETURN_IF_ERROR(ExpectParamCount(name(), p, 1));
    PIP_RETURN_IF_ERROR(ExpectFinite(name(), p));
    if (p[0] < 0.0 || p[0] > 1.0) {
      return Status::InvalidArgument(name() + ": p must lie in [0, 1]");
    }
    return Status::OK();
  }
  Status GenerateJoint(const std::vector<double>& p, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1, stream.NextUniform() < p[0] ? 1.0 : 0.0);
    return Status::OK();
  }
  Status GenerateBatch(const std::vector<double>& p, const SampleContext& ctx,
                       uint64_t n, double* out) const override {
    FillFirstUniforms(ctx, n, out);
    const double prob = p[0];
    for (uint64_t s = 0; s < n; ++s) out[s] = out[s] < prob ? 1.0 : 0.0;
    return Status::OK();
  }
  StatusOr<double> Pdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    if (x == 0.0) return 1.0 - p[0];
    if (x == 1.0) return p[0];
    return 0.0;
  }
  StatusOr<double> Cdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    if (x < 0.0) return 0.0;
    if (x < 1.0) return 1.0 - p[0];
    return 1.0;
  }
  StatusOr<double> InverseCdf(const std::vector<double>& p, uint32_t,
                              double q) const override {
    if (q <= 0.0) return 0.0;
    return q <= 1.0 - p[0] ? 0.0 : 1.0;
  }
  StatusOr<double> Mean(const std::vector<double>& p, uint32_t) const override {
    return p[0];
  }
  StatusOr<double> Variance(const std::vector<double>& p,
                            uint32_t) const override {
    return p[0] * (1.0 - p[0]);
  }
  StatusOr<std::vector<double>> DomainValues(
      const std::vector<double>& p) const override {
    std::vector<double> values;
    if (p[0] < 1.0) values.push_back(0.0);
    if (p[0] > 0.0) values.push_back(1.0);
    return values;
  }
  StatusOr<size_t> DomainSize(const std::vector<double>& p) const override {
    return static_cast<size_t>(p[0] < 1.0) + static_cast<size_t>(p[0] > 0.0);
  }
  Interval Support(const std::vector<double>&, uint32_t) const override {
    return Interval(0.0, 1.0);
  }
};

// ---------------------------------------------------------------------------
// DiscreteUniform(lo, hi) — uniform on the integers lo..hi.
// ---------------------------------------------------------------------------

class DiscreteUniformDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "DiscreteUniform";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kDiscrete; }
  uint32_t Capabilities() const override {
    return kGenerate | kPdf | kCdf | kInverseCdf | kMoments | kFiniteDomain;
  }
  Status ValidateParams(const std::vector<double>& p) const override {
    PIP_RETURN_IF_ERROR(ExpectParamCount(name(), p, 2));
    PIP_RETURN_IF_ERROR(ExpectFinite(name(), p));
    if (!IsInteger(p[0]) || !IsInteger(p[1])) {
      return Status::InvalidArgument(name() + ": bounds must be integers");
    }
    if (p[0] > p[1]) {
      return Status::InvalidArgument(name() + ": requires lo <= hi");
    }
    if (p[1] - p[0] >= 1e15) {
      return Status::InvalidArgument(name() + ": range too wide");
    }
    return Status::OK();
  }
  Status GenerateJoint(const std::vector<double>& p, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    RandomStream stream = ctx.StreamFor(0);
    uint64_t n = static_cast<uint64_t>(p[1] - p[0]) + 1;
    out->assign(1, p[0] + static_cast<double>(stream.NextBounded(n)));
    return Status::OK();
  }
  StatusOr<double> Pdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    if (!IsInteger(x) || x < p[0] || x > p[1]) return 0.0;
    return 1.0 / (p[1] - p[0] + 1.0);
  }
  StatusOr<double> Cdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    if (x < p[0]) return 0.0;
    if (x >= p[1]) return 1.0;
    return (std::floor(x) - p[0] + 1.0) / (p[1] - p[0] + 1.0);
  }
  StatusOr<double> InverseCdf(const std::vector<double>& p, uint32_t,
                              double q) const override {
    if (q <= 0.0) return p[0];
    double n = p[1] - p[0] + 1.0;
    double k = p[0] + std::ceil(q * n) - 1.0;
    return std::min(std::max(k, p[0]), p[1]);
  }
  StatusOr<double> Mean(const std::vector<double>& p, uint32_t) const override {
    return 0.5 * (p[0] + p[1]);
  }
  StatusOr<double> Variance(const std::vector<double>& p,
                            uint32_t) const override {
    double n = p[1] - p[0] + 1.0;
    return (n * n - 1.0) / 12.0;
  }
  StatusOr<std::vector<double>> DomainValues(
      const std::vector<double>& p) const override {
    std::vector<double> values;
    values.reserve(static_cast<size_t>(p[1] - p[0]) + 1);
    for (double k = p[0]; k <= p[1]; k += 1.0) values.push_back(k);
    return values;
  }
  StatusOr<size_t> DomainSize(const std::vector<double>& p) const override {
    return static_cast<size_t>(p[1] - p[0]) + 1;
  }
  Interval Support(const std::vector<double>& p, uint32_t) const override {
    return Interval(p[0], p[1]);
  }
};

// ---------------------------------------------------------------------------
// Categorical(p0, ..., pk-1) — values are the indices 0..k-1.
// ---------------------------------------------------------------------------

/// Memoized prefix sums of one Categorical parameter vector (ROADMAP
/// hot-loop item). The memo key is the vector itself, so a lookup still
/// hashes O(k) doubles — what the table buys is replacing the branchy
/// accumulate-and-compare scans of Cdf/InverseCdf with one hash plus a
/// binary search, allocation-free on hits. The *per-attempt* sampler
/// hot path doesn't even pay the hash: the engine builds a per-plan
/// QuantileTable (src/sampling/expectation.cc) and never comes back
/// here. prefix[k] is the mass of categories 0..k-1 (prefix[0] = 0),
/// summed in index order so the values are bitwise identical to the
/// running accumulations they replace.
struct CategoricalTable {
  std::vector<double> prefix;

  /// Smallest category k with prefix[k+1] >= q and positive cumulative
  /// mass; the last positive-mass category for the rounding tail (q ~ 1).
  /// Matches the pre-table linear scan on boundary ties exactly.
  double Quantile(double q, const std::vector<double>& p) const {
    size_t n = p.size();
    auto it = std::lower_bound(prefix.begin() + 1, prefix.end(), q);
    if (it != prefix.end()) {
      // `prefix > 0` keeps q <= 0 (and leading zero-mass categories) from
      // resolving to a value the law never produces: advance to the first
      // positive-mass boundary, as the linear scan did.
      for (size_t k = static_cast<size_t>(it - prefix.begin()) - 1; k < n;
           ++k) {
        if (prefix[k + 1] > 0.0) return static_cast<double>(k);
      }
    }
    // Rounding tail (q ~ 1): the last positive-mass category.
    for (size_t k = n; k-- > 0;) {
      if (p[k] > 0.0) return static_cast<double>(k);
    }
    return 0.0;
  }

  /// Memoized per parameter vector; thread-local so lookups take no
  /// lock (same pattern as the Zipf table below).
  static std::shared_ptr<const CategoricalTable> For(
      const std::vector<double>& p) {
    struct KeyHash {
      size_t operator()(const std::vector<double>& key) const {
        size_t h = 0x811c9dc5ULL;
        for (double w : key) {
          h ^= std::hash<double>{}(w) + 0x9e3779b97f4a7c15ULL + (h << 6) +
               (h >> 2);
        }
        return h;
      }
    };
    static thread_local std::unordered_map<
        std::vector<double>, std::shared_ptr<const CategoricalTable>, KeyHash>
        cache;
    static thread_local size_t cached_elements = 0;
    auto it = cache.find(p);
    if (it != cache.end()) return it->second;
    auto table = std::make_shared<CategoricalTable>();
    table->prefix.resize(p.size() + 1);
    table->prefix[0] = 0.0;
    for (size_t k = 0; k < p.size(); ++k) {
      table->prefix[k + 1] = table->prefix[k] + p[k];
    }
    if (cached_elements + p.size() + 1 > (4u << 20)) {
      cache.clear();
      cached_elements = 0;
    }
    cached_elements += p.size() + 1;
    cache.emplace(p, table);
    return table;
  }
};

class CategoricalDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "Categorical";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kDiscrete; }
  uint32_t Capabilities() const override {
    return kGenerate | kPdf | kCdf | kInverseCdf | kMoments | kFiniteDomain;
  }
  Status ValidateParams(const std::vector<double>& p) const override {
    if (p.empty()) {
      return Status::InvalidArgument(name() +
                                     ": requires at least one probability");
    }
    PIP_RETURN_IF_ERROR(ExpectFinite(name(), p));
    double sum = 0.0;
    for (double w : p) {
      if (w < 0.0 || w > 1.0) {
        return Status::InvalidArgument(name() +
                                       ": probabilities must lie in [0, 1]");
      }
      sum += w;
    }
    if (std::fabs(sum - 1.0) > 1e-9) {
      return Status::InvalidArgument(name() + ": probabilities sum to " +
                                     std::to_string(sum) + ", expected 1");
    }
    return Status::OK();
  }
  Status GenerateJoint(const std::vector<double>& p, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    // Deliberately NOT table-backed: the early-exit scan stops at the
    // drawn category (expected O(E[k]) with no hashing), which beats the
    // memo lookup's full-vector hash for the small k typical of draws.
    // The table earns its keep in Cdf/InverseCdf, where the engine's
    // lattice integration makes O(k) scans per call quadratic.
    RandomStream stream = ctx.StreamFor(0);
    double u = stream.NextUniform();
    double acc = 0.0;
    for (size_t k = 0; k < p.size(); ++k) {
      acc += p[k];
      if (u < acc) {
        out->assign(1, static_cast<double>(k));
        return Status::OK();
      }
    }
    // Guard the accumulated-rounding tail: emit the last positive-mass
    // value.
    for (size_t k = p.size(); k-- > 0;) {
      if (p[k] > 0.0) {
        out->assign(1, static_cast<double>(k));
        return Status::OK();
      }
    }
    return Status::Internal("Categorical with no positive-mass value");
  }
  Status GenerateBatch(const std::vector<double>& p, const SampleContext& ctx,
                       uint64_t n, double* out) const override {
    // Batch draws DO use the memoized table: one hash amortized over the
    // whole block, then binary searches. The table's prefix sums are
    // accumulated in index order, so `u < prefix[k + 1]` is bitwise the
    // same predicate as the scalar scan's `u < acc`, and upper_bound
    // (first prefix strictly above u) lands on the identical category —
    // including skipping zero-mass entries, whose prefix step is flat.
    auto table = CategoricalTable::For(p);
    const std::vector<double>& prefix = table->prefix;
    double tail = -1.0;
    for (size_t k = p.size(); k-- > 0;) {
      if (p[k] > 0.0) {
        tail = static_cast<double>(k);
        break;
      }
    }
    if (tail < 0.0) {
      return Status::Internal("Categorical with no positive-mass value");
    }
    FillFirstUniforms(ctx, n, out);
    for (uint64_t s = 0; s < n; ++s) {
      auto it = std::upper_bound(prefix.begin() + 1, prefix.end(), out[s]);
      out[s] = it == prefix.end()
                   ? tail
                   : static_cast<double>(it - prefix.begin() - 1);
    }
    return Status::OK();
  }
  StatusOr<double> Pdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    if (!IsInteger(x) || x < 0.0 || x >= static_cast<double>(p.size())) {
      return 0.0;
    }
    return p[static_cast<size_t>(x)];
  }
  StatusOr<double> Cdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    // Negated compare: NaN lands in the first return too. Empty p is
    // rejected by ValidateParams but guarded for direct plugin-API use.
    if (p.empty() || !(x >= 0.0)) return 0.0;
    size_t top = static_cast<size_t>(
        std::min(std::floor(x), static_cast<double>(p.size()) - 1.0));
    return std::min(CategoricalTable::For(p)->prefix[top + 1], 1.0);
  }
  StatusOr<double> InverseCdf(const std::vector<double>& p, uint32_t,
                              double q) const override {
    return CategoricalTable::For(p)->Quantile(q, p);
  }
  StatusOr<double> Mean(const std::vector<double>& p, uint32_t) const override {
    double mean = 0.0;
    for (size_t k = 0; k < p.size(); ++k) mean += static_cast<double>(k) * p[k];
    return mean;
  }
  StatusOr<double> Variance(const std::vector<double>& p,
                            uint32_t) const override {
    double mean = 0.0, second = 0.0;
    for (size_t k = 0; k < p.size(); ++k) {
      double kd = static_cast<double>(k);
      mean += kd * p[k];
      second += kd * kd * p[k];
    }
    return second - mean * mean;
  }
  StatusOr<std::vector<double>> DomainValues(
      const std::vector<double>& p) const override {
    std::vector<double> values;
    for (size_t k = 0; k < p.size(); ++k) {
      if (p[k] > 0.0) values.push_back(static_cast<double>(k));
    }
    return values;
  }
  StatusOr<size_t> DomainSize(const std::vector<double>& p) const override {
    size_t n = 0;
    for (double w : p) n += (w > 0.0);
    return n;
  }
  Interval Support(const std::vector<double>& p, uint32_t) const override {
    return Interval(0.0, static_cast<double>(p.size()) - 1.0);
  }
};

// ---------------------------------------------------------------------------
// Zipf(s, n) — power law on ranks 1..n.
// ---------------------------------------------------------------------------

/// P[X = k] proportional to k^-s for k in 1..n: the canonical skewed-
/// popularity law for synthetic workloads (hot keys, word frequencies).
/// Probability calls go through a memoized prefix-sum table per (s, n) —
/// the engine's exact discrete integration evaluates the PMF across the
/// whole constrained lattice, which would be O(n^2) with on-demand sums.
class ZipfDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "Zipf";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kDiscrete; }
  uint32_t Capabilities() const override {
    return kGenerate | kPdf | kCdf | kInverseCdf | kMoments | kFiniteDomain;
  }
  Status ValidateParams(const std::vector<double>& p) const override {
    PIP_RETURN_IF_ERROR(ExpectParamCount(name(), p, 2));
    PIP_RETURN_IF_ERROR(ExpectFinite(name(), p));
    if (p[0] < 0.0) {
      return Status::InvalidArgument(name() + ": exponent must be >= 0");
    }
    if (!IsInteger(p[1]) || p[1] < 1.0 || p[1] > 1e6) {
      return Status::InvalidArgument(
          name() + ": n must be an integer in [1, 1e6]");
    }
    return Status::OK();
  }
  Status GenerateJoint(const std::vector<double>& p, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1, Table(p)->Quantile(stream.NextOpenUniform()));
    return Status::OK();
  }
  StatusOr<double> Pdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    if (!IsInteger(x) || x < 1.0 || x > p[1]) return 0.0;
    return std::pow(x, -p[0]) / Table(p)->norm;
  }
  StatusOr<double> Cdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    if (x < 1.0) return 0.0;
    if (x >= p[1]) return 1.0;
    return Table(p)->CdfAt(std::floor(x));
  }
  StatusOr<double> InverseCdf(const std::vector<double>& p, uint32_t,
                              double q) const override {
    if (q <= 0.0) return 1.0;
    return Table(p)->Quantile(q);
  }
  StatusOr<double> Mean(const std::vector<double>& p, uint32_t) const override {
    return Table(p)->mean;
  }
  StatusOr<double> Variance(const std::vector<double>& p,
                            uint32_t) const override {
    const auto table = Table(p);
    return table->second_moment - table->mean * table->mean;
  }
  StatusOr<std::vector<double>> DomainValues(
      const std::vector<double>& p) const override {
    std::vector<double> values;
    values.reserve(static_cast<size_t>(p[1]));
    for (double k = 1.0; k <= p[1]; k += 1.0) values.push_back(k);
    return values;
  }
  StatusOr<size_t> DomainSize(const std::vector<double>& p) const override {
    return static_cast<size_t>(p[1]);
  }
  Interval Support(const std::vector<double>& p, uint32_t) const override {
    return Interval(1.0, p[1]);
  }

 private:
  /// Prefix sums of k^-s plus derived moments. prefix[k] is the
  /// unnormalized mass of 1..k (prefix[0] = 0), so CDF and quantile are
  /// O(1) / O(log n) and always bitwise consistent with each other.
  struct ZipfTable {
    std::vector<double> prefix;
    double norm = 1.0;
    double mean = 0.0;
    double second_moment = 0.0;

    double CdfAt(double k) const {
      return prefix[static_cast<size_t>(k)] / norm;
    }
    /// Smallest k >= 1 with CDF(k) >= q, by bisection over the monotone
    /// prefix array using the same division as CdfAt.
    double Quantile(double q) const {
      size_t lo = 1, hi = prefix.size() - 1;
      while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (prefix[mid] / norm >= q) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      return static_cast<double>(lo);
    }
  };

  /// Memoized per (s, n); thread-local so the draw path takes no lock.
  static std::shared_ptr<const ZipfTable> Table(
      const std::vector<double>& p) {
    using Key = std::pair<double, double>;
    struct KeyHash {
      size_t operator()(const Key& k) const {
        return std::hash<double>{}(k.first) ^
               (std::hash<double>{}(k.second) << 1);
      }
    };
    static thread_local std::unordered_map<
        Key, std::shared_ptr<const ZipfTable>, KeyHash>
        cache;
    static thread_local size_t cached_elements = 0;
    Key key{p[0], p[1]};
    auto it = cache.find(key);
    if (it != cache.end()) return it->second;
    auto table = std::make_shared<ZipfTable>();
    size_t n = static_cast<size_t>(p[1]);
    table->prefix.resize(n + 1);
    table->prefix[0] = 0.0;
    double first = 0.0, second = 0.0;
    for (size_t k = 1; k <= n; ++k) {
      double kd = static_cast<double>(k);
      double mass = std::pow(kd, -p[0]);
      table->prefix[k] = table->prefix[k - 1] + mass;
      first += kd * mass;
      second += kd * kd * mass;
    }
    table->norm = table->prefix[n];
    table->mean = first / table->norm;
    table->second_moment = second / table->norm;
    // Size-weighted bound (~32 MB of prefix data per thread): a few big
    // tables evict as readily as many small ones.
    if (cached_elements + n + 1 > (4u << 20)) {
      cache.clear();
      cached_elements = 0;
    }
    cached_elements += n + 1;
    cache.emplace(key, table);
    return table;
  }
};

}  // namespace

Status RegisterDiscreteBuiltins(DistributionRegistry* registry) {
  PIP_RETURN_IF_ERROR(registry->Register(std::make_unique<PoissonDist>()));
  PIP_RETURN_IF_ERROR(registry->Register(std::make_unique<BernoulliDist>()));
  PIP_RETURN_IF_ERROR(
      registry->Register(std::make_unique<DiscreteUniformDist>()));
  PIP_RETURN_IF_ERROR(registry->Register(std::make_unique<CategoricalDist>()));
  PIP_RETURN_IF_ERROR(registry->Register(std::make_unique<ZipfDist>()));
  return Status::OK();
}

}  // namespace dist_internal
}  // namespace pip
