#include "pipbench/oracle.h"

#include <algorithm>
#include <cmath>

namespace pipbench {

namespace {

/// 1 - Phi(z), accurate deep into the upper tail.
double UpperTail(double z) { return 0.5 * std::erfc(z / std::sqrt(2.0)); }

double PhiDensity(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
}

}  // namespace

double Phi(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double PriceTail(const RowParams& p, double c) {
  return UpperTail((c - p.mu) / p.sigma);
}

double TailMoments::ConditionalVariance() const {
  double mean = ConditionalMean();
  return std::max(0.0, second / prob - mean * mean);
}

TailMoments ProductTail(const RowParams& p, double c) {
  TailMoments m;
  double pn = std::exp(-p.lambda);  // P[Q = 0]
  double remaining = 1.0 - pn;
  if (c < 0) m.prob += pn;          // XQ = 0 exceeds a negative threshold.
  const double second_raw = p.mu * p.mu + p.sigma * p.sigma;
  for (int n = 1; remaining > kPoissonTail || n <= p.lambda; ++n) {
    pn *= p.lambda / n;
    remaining -= pn;
    double z = (c / n - p.mu) / p.sigma;
    double tail = UpperTail(z);
    double density = PhiDensity(z);
    // density underflows to 0 exactly when c/n is infinite, where the
    // sigma * (mu + c/n) * density product would otherwise be 0 * inf.
    double shifted = density == 0.0 ? 0.0 : p.sigma * (p.mu + c / n) * density;
    m.prob += pn * tail;
    m.first += pn * n * (p.mu * tail + p.sigma * density);
    m.second += pn * n * n * (second_raw * tail + shifted);
    if (pn == 0.0) break;
  }
  return m;
}

double ProductMean(const RowParams& p) { return p.mu * p.lambda; }

double ProductVariance(const RowParams& p) {
  // E[X^2] E[Q^2] - (E[X] E[Q])^2 for independent X, Q.
  double ex2 = p.mu * p.mu + p.sigma * p.sigma;
  double eq2 = p.lambda + p.lambda * p.lambda;
  double mean = ProductMean(p);
  return ex2 * eq2 - mean * mean;
}

bool ExactMatch(double got, double want) {
  return std::fabs(got - want) <= std::max(1e-9 * std::fabs(want), 1e-12);
}

bool WithinStandardErrors(double got, double want, double se, double k) {
  return std::isfinite(got) && std::fabs(got - want) <= k * se;
}

double MeanStandardError(double var, size_t n) {
  return std::sqrt(var / static_cast<double>(n));
}

}  // namespace pipbench
