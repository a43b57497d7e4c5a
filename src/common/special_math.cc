#include "src/common/special_math.h"

#include <cmath>
#include <limits>

namespace pip {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-14;
constexpr int kMaxIter = 300;
}  // namespace

double ErfInv(double x) {
  if (x <= -1.0) return -kInf;
  if (x >= 1.0) return kInf;
  if (x == 0.0) return 0.0;
  // Initial guess: Giles (2010) single-precision polynomial, then two
  // Newton refinement steps against erf for full double accuracy.
  double w = -std::log((1.0 - x) * (1.0 + x));
  double p;
  if (w < 6.25) {
    w -= 3.125;
    p = -3.6444120640178196996e-21;
    p = -1.685059138182016589e-19 + p * w;
    p = 1.2858480715256400167e-18 + p * w;
    p = 1.115787767802518096e-17 + p * w;
    p = -1.333171662854620906e-16 + p * w;
    p = 2.0972767875968561637e-17 + p * w;
    p = 6.6376381343583238325e-15 + p * w;
    p = -4.0545662729752068639e-14 + p * w;
    p = -8.1519341976054721522e-14 + p * w;
    p = 2.6335093153082322977e-12 + p * w;
    p = -1.2975133253453532498e-11 + p * w;
    p = -5.4154120542946279317e-11 + p * w;
    p = 1.051212273321532285e-09 + p * w;
    p = -4.1126339803469836976e-09 + p * w;
    p = -2.9070369957882005086e-08 + p * w;
    p = 4.2347877827932403518e-07 + p * w;
    p = -1.3654692000834678645e-06 + p * w;
    p = -1.3882523362786468719e-05 + p * w;
    p = 0.0001867342080340571352 + p * w;
    p = -0.00074070253416626697512 + p * w;
    p = -0.0060336708714301490533 + p * w;
    p = 0.24015818242558961693 + p * w;
    p = 1.6536545626831027356 + p * w;
  } else if (w < 16.0) {
    w = std::sqrt(w) - 3.25;
    p = 2.2137376921775787049e-09;
    p = 9.0756561938885390979e-08 + p * w;
    p = -2.7517406297064545428e-07 + p * w;
    p = 1.8239629214389227755e-08 + p * w;
    p = 1.5027403968909827627e-06 + p * w;
    p = -4.013867526981545969e-06 + p * w;
    p = 2.9234449089955446044e-06 + p * w;
    p = 1.2475304481671778723e-05 + p * w;
    p = -4.7318229009055733981e-05 + p * w;
    p = 6.8284851459573175448e-05 + p * w;
    p = 2.4031110387097893999e-05 + p * w;
    p = -0.0003550375203628474796 + p * w;
    p = 0.00095328937973738049703 + p * w;
    p = -0.0016882755560235047313 + p * w;
    p = 0.0024914420961078508066 + p * w;
    p = -0.0037512085075692412107 + p * w;
    p = 0.005370914553590063617 + p * w;
    p = 1.0052589676941592334 + p * w;
    p = 3.0838856104922207635 + p * w;
  } else {
    w = std::sqrt(w) - 5.0;
    p = -2.7109920616438573243e-11;
    p = -2.5556418169965252055e-10 + p * w;
    p = 1.5076572693500548083e-09 + p * w;
    p = -3.7894654401267369937e-09 + p * w;
    p = 7.6157012080783393804e-09 + p * w;
    p = -1.4960026627149240478e-08 + p * w;
    p = 2.9147953450901080826e-08 + p * w;
    p = -6.7711997758452339498e-08 + p * w;
    p = 2.2900482228026654717e-07 + p * w;
    p = -9.9298272942317002539e-07 + p * w;
    p = 4.5260625972231537039e-06 + p * w;
    p = -1.9681778105531670567e-05 + p * w;
    p = 7.5995277030017761139e-05 + p * w;
    p = -0.00021503011930044477347 + p * w;
    p = -0.00013871931833623122026 + p * w;
    p = 1.0103004648645343977 + p * w;
    p = 4.8499064014085844221 + p * w;
  }
  double r = p * x;
  // Newton refinement: f(r) = erf(r) - x, f'(r) = 2/sqrt(pi) e^{-r^2}.
  const double two_over_sqrt_pi = 1.1283791670955125739;
  for (int i = 0; i < 2; ++i) {
    double err = std::erf(r) - x;
    r -= err / (two_over_sqrt_pi * std::exp(-r * r));
  }
  return r;
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x * M_SQRT1_2); }

double NormalPdf(double x) {
  return std::exp(-0.5 * x * x) / std::sqrt(2.0 * M_PI);
}

double NormalQuantile(double p) {
  if (p <= 0.0) return -kInf;
  if (p >= 1.0) return kInf;
  return M_SQRT2 * ErfInv(2.0 * p - 1.0);
}

double LogGamma(double x) {
  // std::lgamma stores the sign of Gamma(x) in the global `signgam`, a data
  // race between threads; lgamma_r returns the same bits through a local.
  int sign = 0;
  return lgamma_r(x, &sign);
}

namespace {

// Series expansion of P(a, x), valid for x < a + 1.
double GammaPSeries(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int n = 0; n < kMaxIter; ++n) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEps) break;
  }
  return sum * std::exp(-x + a * std::log(x) - LogGamma(a));
}

// Continued fraction for Q(a, x), valid for x >= a + 1.
double GammaQContinuedFraction(double a, double x) {
  const double fpmin = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / fpmin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIter; ++i) {
    double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < fpmin) d = fpmin;
    c = b + an / c;
    if (std::fabs(c) < fpmin) c = fpmin;
    d = 1.0 / d;
    double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return std::exp(-x + a * std::log(x) - LogGamma(a)) * h;
}

}  // namespace

double RegularizedGammaP(double a, double x) {
  if (x <= 0.0) return 0.0;
  if (a <= 0.0) return 1.0;
  if (x < a + 1.0) return GammaPSeries(a, x);
  return 1.0 - GammaQContinuedFraction(a, x);
}

double RegularizedGammaQ(double a, double x) {
  if (x <= 0.0) return 1.0;
  if (a <= 0.0) return 0.0;
  if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
  return GammaQContinuedFraction(a, x);
}

double InverseRegularizedGammaP(double a, double p) {
  // Numerical Recipes-style initial guess plus Newton iterations with
  // bisection safeguarding.
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return kInf;
  double x;
  double gln = LogGamma(a);
  double a1 = a - 1.0;
  if (a > 1.0) {
    double pp = (p < 0.5) ? p : 1.0 - p;
    double t = std::sqrt(-2.0 * std::log(pp));
    x = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t;
    if (p < 0.5) x = -x;
    x = std::max(1e-3,
                 a * std::pow(1.0 - 1.0 / (9.0 * a) - x / (3.0 * std::sqrt(a)),
                              3.0));
  } else {
    double t = 1.0 - a * (0.253 + a * 0.12);
    if (p < t) {
      x = std::pow(p / t, 1.0 / a);
    } else {
      x = 1.0 - std::log(1.0 - (p - t) / (1.0 - t));
    }
  }
  double lo = 0.0, hi = kInf;
  for (int j = 0; j < 100; ++j) {
    if (x <= 0.0) x = 0.5 * (lo + (std::isinf(hi) ? lo + 1.0 : hi));
    double err = RegularizedGammaP(a, x) - p;
    if (err > 0) {
      hi = x;
    } else {
      lo = x;
    }
    double t;
    if (a > 1.0) {
      double lna1 = std::log(a1);
      double afac = std::exp(a1 * (lna1 - 1.0) - gln);
      t = afac * std::exp(-(x - a1) + a1 * (std::log(x) - lna1));
    } else {
      t = std::exp(-x + a1 * std::log(x) - gln);
    }
    if (t == 0.0) break;
    double u = err / t;
    double xnew = x - u / (1.0 - 0.5 * std::min(1.0, u * (a1 / x - 1.0)));
    if (xnew <= lo || (std::isfinite(hi) && xnew >= hi)) {
      xnew = std::isfinite(hi) ? 0.5 * (lo + hi) : 2.0 * x;
    }
    if (std::fabs(x - xnew) < 1e-12 * x + 1e-300) {
      x = xnew;
      break;
    }
    x = xnew;
  }
  return x;
}

namespace {

// Lentz continued fraction for the incomplete beta function.
double BetaContinuedFraction(double a, double b, double x) {
  const double fpmin = 1e-300;
  double qab = a + b, qap = a + 1.0, qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < fpmin) d = fpmin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < fpmin) d = fpmin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < fpmin) c = fpmin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < fpmin) d = fpmin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < fpmin) c = fpmin;
    d = 1.0 / d;
    double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double RegularizedBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  double log_front = LogGamma(a + b) - LogGamma(a) - LogGamma(b) +
                     a * std::log(x) + b * std::log(1.0 - x);
  double front = std::exp(log_front);
  // Use the symmetry relation to keep the continued fraction convergent.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double InverseRegularizedBeta(double a, double b, double p) {
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  // Bisection with Newton acceleration; the beta CDF is monotone on [0,1].
  double lo = 0.0, hi = 1.0, x = 0.5;
  for (int iter = 0; iter < 200; ++iter) {
    double f = RegularizedBeta(a, b, x) - p;
    if (f > 0.0) {
      hi = x;
    } else {
      lo = x;
    }
    // Newton step from the density, safeguarded by the bracket.
    double log_pdf = (a - 1.0) * std::log(std::max(x, 1e-300)) +
                     (b - 1.0) * std::log(std::max(1.0 - x, 1e-300)) +
                     LogGamma(a + b) - LogGamma(a) - LogGamma(b);
    double pdf = std::exp(log_pdf);
    double next = pdf > 0.0 ? x - f / pdf : 0.5 * (lo + hi);
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (std::fabs(next - x) < 1e-15) return next;
    x = next;
  }
  return x;
}

double PoissonCdf(double lambda, double k) {
  if (k < 0.0) return 0.0;
  double kf = std::floor(k);
  return RegularizedGammaQ(kf + 1.0, lambda);
}

double PoissonLogPmf(double lambda, long long k) {
  if (k < 0) return -kInf;
  double kd = static_cast<double>(k);
  return kd * std::log(lambda) - lambda - LogGamma(kd + 1.0);
}

}  // namespace pip
