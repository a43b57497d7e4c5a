#include "src/sampling/metropolis.h"

#include <cmath>

namespace pip {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

MetropolisSampler::MetropolisSampler(const VariablePool* pool,
                                     std::vector<VarRef> vars,
                                     std::vector<ConstraintAtom> atoms,
                                     const ConsistencyResult& bounds,
                                     uint64_t chain_key,
                                     MetropolisOptions options)
    : pool_(pool),
      vars_(std::move(vars)),
      atoms_(std::move(atoms)),
      options_(options),
      rng_(MixBits(pool->seed(), chain_key, 0x6d6574726fULL, 0)) {
  var_bounds_.reserve(vars_.size());
  step_sizes_.reserve(vars_.size());
  for (const VarRef& v : vars_) {
    Interval b = bounds.BoundsFor(v).Intersect(pool_->Support(v));
    var_bounds_.push_back(b);
    // Proposal scale: prefer the constrained width, fall back to the
    // distribution's standard deviation, then to 1.
    double scale = 1.0;
    if (b.IsBounded() && b.Width() > 0) {
      scale = b.Width();
    } else {
      auto var = pool_->Variance(v);
      if (var.ok() && var.value() > 0) scale = std::sqrt(var.value());
    }
    step_sizes_.push_back(options_.step_scale * scale);
  }
}

bool MetropolisSampler::CanHandle(const VariablePool& pool,
                                  const std::vector<VarRef>& vars) {
  for (const VarRef& v : vars) {
    auto info = pool.Info(v.var_id);
    if (!info.ok()) return false;
    if (info.value()->num_components != 1) return false;
    if (!info.value()->dist->HasPdf()) return false;
  }
  return true;
}

bool MetropolisSampler::SatisfiesConstraints(
    const std::vector<double>& point) const {
  Assignment& a = scratch_;
  a.Clear();
  for (size_t i = 0; i < vars_.size(); ++i) a.Set(vars_[i], point[i]);
  for (const auto& atom : atoms_) {
    auto t = atom.Eval(a);
    if (!t.ok() || !t.value()) return false;
  }
  return true;
}

double MetropolisSampler::LogDensity(const std::vector<double>& point) const {
  if (!SatisfiesConstraints(point)) return kNegInf;
  double log_density = 0.0;
  for (size_t i = 0; i < vars_.size(); ++i) {
    auto pdf = pool_->Pdf(vars_[i], point[i]);
    if (!pdf.ok() || pdf.value() <= 0.0) return kNegInf;
    log_density += std::log(pdf.value());
  }
  return log_density;
}

Status MetropolisSampler::Init() {
  // Scan for a start point: draw natural samples of the group until one
  // satisfies the constraints. The scan shares the variables' constrained
  // bounds when a CDF window is available, which shortens the search in
  // exactly the cases where rejection sampling was failing for other
  // reasons (e.g. multi-variable atoms).
  std::vector<double> candidate(vars_.size());
  for (size_t attempt = 0; attempt < options_.start_point_attempts;
       ++attempt) {
    for (size_t i = 0; i < vars_.size(); ++i) {
      const VarRef& v = vars_[i];
      const Interval& b = var_bounds_[i];
      if (b.IsBounded() && pool_->HasInverseCdf(v) && pool_->HasCdf(v)) {
        auto flo = pool_->Cdf(v, b.lo);
        auto fhi = pool_->Cdf(v, b.hi);
        if (flo.ok() && fhi.ok() && fhi.value() > flo.value()) {
          // A -/+inf quantile endpoint only wastes a scan attempt here
          // (LogDensity filters it), but cheaply avoided all the same.
          double u = ClampUnitOpen(
              flo.value() + (fhi.value() - flo.value()) * rng_.NextUniform());
          auto x = pool_->InverseCdf(v, u);
          if (x.ok()) {
            candidate[i] = x.value();
            continue;
          }
        }
      }
      auto x = pool_->Generate(v, /*sample_index=*/attempt,
                               /*attempt=*/0xabcd0000ULL + attempt);
      if (!x.ok()) return x.status();
      candidate[i] = x.value();
    }
    double ld = LogDensity(candidate);
    if (ld > kNegInf) {
      current_ = candidate;
      current_log_density_ = ld;
      initialized_ = true;
      for (size_t s = 0; s < options_.burn_in; ++s) Step();
      return Status::OK();
    }
  }
  return Status::Inconsistent(
      "Metropolis could not find a feasible start point");
}

void MetropolisSampler::Step() {
  // Component-wise Gaussian random-walk proposal with Metropolis
  // acceptance; symmetric proposal, so the acceptance ratio is just the
  // density ratio.
  proposal_.resize(current_.size());
  for (size_t i = 0; i < vars_.size(); ++i) {
    proposal_[i] = current_[i] + step_sizes_[i] * rng_.NextGaussian();
  }
  double ld = LogDensity(proposal_);
  ++steps_taken_;
  if (ld == kNegInf) return;
  double log_accept = ld - current_log_density_;
  if (log_accept >= 0.0 || std::log(rng_.NextUniform() + 1e-300) < log_accept) {
    current_.swap(proposal_);
    current_log_density_ = ld;
  }
}

Status MetropolisSampler::NextSample(Assignment* out) {
  if (!initialized_) {
    return Status::Internal("MetropolisSampler::Init() was not called");
  }
  for (size_t s = 0; s < options_.steps_per_sample; ++s) Step();
  for (size_t i = 0; i < vars_.size(); ++i) out->Set(vars_[i], current_[i]);
  return Status::OK();
}

}  // namespace pip
