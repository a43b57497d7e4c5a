/// \file oracle.h
/// \brief Closed forms that pipbench checks the engine's answers against.
///
/// Every pipbench table row holds X ~ Normal(mu, sigma) and
/// Q ~ Poisson(lambda), independent, and the workloads ask for moments of
/// the product XQ, optionally restricted to the event XQ > c. Conditioning
/// on Q = n reduces each of those to a truncated-normal moment, so
///
///   P[XQ > c]            = sum_n p_n (1 - Phi(z_n))
///   E[XQ 1{XQ > c}]      = sum_n p_n n (mu (1 - Phi(z_n)) + sigma phi(z_n))
///   E[(XQ)^2 1{XQ > c}]  = sum_n p_n n^2 ((mu^2 + sigma^2)(1 - Phi(z_n))
///                                        + sigma (mu + c/n) phi(z_n))
///
/// with z_n = (c/n - mu) / sigma and p_n the Poisson mass. The n = 0 term
/// is XQ = 0, which exceeds c only when c < 0. The Poisson sum stops once
/// the remaining mass is below kPoissonTail.
///
/// The tolerance helpers turn those moments into the pass/fail rules the
/// benchmark applies: exact answers to a relative 1e-9, fixed-sample
/// estimates to 6 standard errors of the closed-form variance.

#ifndef PIPBENCH_ORACLE_H_
#define PIPBENCH_ORACLE_H_

#include <cstddef>

namespace pipbench {

/// Poisson mass left out of every truncated sum.
inline constexpr double kPoissonTail = 1e-12;

/// Parameters of one row: price ~ Normal(mu, sigma), qty ~ Poisson(lambda).
struct RowParams {
  double mu = 0;
  double sigma = 1;
  double lambda = 1;
};

/// Standard normal CDF.
double Phi(double z);

/// P[X > c] for the row's normal price alone.
double PriceTail(const RowParams& p, double c);

/// Moments of XQ restricted to XQ > c (c = -infinity gives the plain
/// moments).
struct TailMoments {
  double prob = 0;         ///< P[XQ > c]
  double first = 0;        ///< E[XQ 1{XQ > c}]
  double second = 0;       ///< E[(XQ)^2 1{XQ > c}]

  /// E[XQ | XQ > c] and Var[XQ | XQ > c]; prob must be positive.
  double ConditionalMean() const { return first / prob; }
  double ConditionalVariance() const;
};

TailMoments ProductTail(const RowParams& p, double c);

/// E[XQ] and Var[XQ] without a condition.
double ProductMean(const RowParams& p);
double ProductVariance(const RowParams& p);

/// True when `got` matches `want` to a relative 1e-9 (absolute 1e-12
/// near zero): the rule for answers the engine computes exactly.
bool ExactMatch(double got, double want);

/// True when `got` lies within `k` standard errors `se` of `want`.
bool WithinStandardErrors(double got, double want, double se, double k = 6.0);

/// Standard error of a `n`-sample mean of a variable with variance `var`.
double MeanStandardError(double var, size_t n);

}  // namespace pipbench

#endif  // PIPBENCH_ORACLE_H_
