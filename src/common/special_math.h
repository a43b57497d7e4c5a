/// \file special_math.h
/// \brief Special functions backing distribution PDFs, CDFs and quantiles.
///
/// Self-contained (no external math library) implementations with accuracy
/// adequate for Monte Carlo integration (relative error well below the
/// sampling noise floor): inverse error function, standard normal
/// CDF/quantile, log-gamma, regularized incomplete gamma (for Poisson and
/// Gamma CDFs) and its inverse.

#ifndef PIP_COMMON_SPECIAL_MATH_H_
#define PIP_COMMON_SPECIAL_MATH_H_

namespace pip {

/// Inverse of erf on (-1, 1). Returns +/-inf at the endpoints.
double ErfInv(double x);

/// Standard normal cumulative distribution function Phi(x).
double NormalCdf(double x);

/// Standard normal density phi(x).
double NormalPdf(double x);

/// Quantile of the standard normal: Phi^{-1}(p) for p in (0,1).
/// Returns -inf at 0 and +inf at 1.
double NormalQuantile(double p);

/// Natural log of |Gamma(x)|. Reentrant: it never writes the C library's
/// global `signgam`, so pool workers may call it concurrently.
double LogGamma(double x);

/// Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0.
double RegularizedGammaP(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double RegularizedGammaQ(double a, double x);

/// Inverse of P(a, .) : finds x such that P(a, x) = p. p in [0, 1).
double InverseRegularizedGammaP(double a, double p);

/// Regularized incomplete beta function I_x(a, b) for a, b > 0 and
/// x in [0, 1] (continued-fraction evaluation).
double RegularizedBeta(double a, double b, double x);

/// Inverse of I_.(a, b): finds x with I_x(a, b) = p.
double InverseRegularizedBeta(double a, double b, double p);

/// CDF of the Poisson distribution: P[X <= k] for rate lambda.
double PoissonCdf(double lambda, double k);

/// Log of the Poisson probability mass function at integer k >= 0.
double PoissonLogPmf(double lambda, long long k);

}  // namespace pip

#endif  // PIP_COMMON_SPECIAL_MATH_H_
