// Checks pipbench's closed forms against an independent brute force, and
// checks that the benchmark's tolerance rules reject perturbed answers.

#include <cmath>
#include <cstdio>
#include <random>

#include <gtest/gtest.h>

#include "pipbench/oracle.h"
#include "pipbench/workloads.h"

namespace pipbench {
namespace {

struct Case {
  RowParams p;
  double c;
};

/// Brute-force moments of XQ 1{XQ > c} from `n` independent draws, with
/// the standard error of each estimate.
struct Brute {
  double prob = 0, first = 0, second = 0;
  double prob_se = 0, first_se = 0, second_se = 0;
};

Brute BruteForce(const RowParams& p, double c, int n, uint64_t seed) {
  std::mt19937 gen(static_cast<uint32_t>(seed));
  std::normal_distribution<double> price(p.mu, p.sigma);
  std::poisson_distribution<int> qty(p.lambda);
  double s[3] = {0, 0, 0}, s2[3] = {0, 0, 0};
  for (int i = 0; i < n; ++i) {
    double xq = price(gen) * qty(gen);
    double hit = xq > c ? 1.0 : 0.0;
    double terms[3] = {hit, hit * xq, hit * xq * xq};
    for (int j = 0; j < 3; ++j) {
      s[j] += terms[j];
      s2[j] += terms[j] * terms[j];
    }
  }
  Brute b;
  double* mean[3] = {&b.prob, &b.first, &b.second};
  double* se[3] = {&b.prob_se, &b.first_se, &b.second_se};
  for (int j = 0; j < 3; ++j) {
    *mean[j] = s[j] / n;
    double var = s2[j] / n - *mean[j] * *mean[j];
    *se[j] = std::sqrt(std::max(var, 0.0) / n);
  }
  return b;
}

/// The threshold with P[XQ > c] = target, by bisection on the closed form.
double ThresholdAt(const RowParams& p, double target) {
  double lo = 0, hi = 5000;
  for (int i = 0; i < 80; ++i) {
    double mid = 0.5 * (lo + hi);
    (ProductTail(p, mid).prob > target ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

TEST(OracleTest, ClosedFormsMatchBruteForce) {
  std::vector<Case> grid;
  const RowParams params[] = {
      {80, 5, 3}, {100, 10, 6.5}, {120, 15, 10}, {95, 14, 3.5}};
  for (const RowParams& p : params) {
    grid.push_back({p, -1e300});  // No condition: plain moments.
    grid.push_back({p, 0.5 * ProductMean(p)});
    grid.push_back({p, ThresholdAt(p, 0.3)});
    grid.push_back({p, ThresholdAt(p, 0.01)});  // A small expectation.
  }
  uint64_t seed = 1;
  for (const Case& k : grid) {
    TailMoments m = ProductTail(k.p, k.c);
    Brute b = BruteForce(k.p, k.c, 1000000, seed++);
    SCOPED_TRACE("mu=" + std::to_string(k.p.mu) + " sigma=" +
                 std::to_string(k.p.sigma) + " lambda=" +
                 std::to_string(k.p.lambda) + " c=" + std::to_string(k.c));
    EXPECT_NEAR(m.prob, b.prob, 5 * b.prob_se + 1e-12);
    EXPECT_NEAR(m.first, b.first, 5 * b.first_se + 1e-9);
    EXPECT_NEAR(m.second, b.second, 5 * b.second_se + 1e-6);
    if (k.c < -1e299) {
      EXPECT_NEAR(m.prob, 1.0, 1e-12);
      EXPECT_NEAR(m.first, ProductMean(k.p), 1e-9 * ProductMean(k.p));
      EXPECT_NEAR(m.ConditionalVariance(), ProductVariance(k.p),
                  1e-9 * ProductVariance(k.p));
    }
  }
  // The 1% case really is a small expectation.
  double c = ThresholdAt(params[1], 0.01);
  EXPECT_NEAR(ProductTail(params[1], c).prob, 0.01, 1e-6);
}

TEST(OracleTest, PriceTailIsTheNormalTail) {
  RowParams p{100, 10, 5};
  EXPECT_NEAR(PriceTail(p, 100), 0.5, 1e-15);
  EXPECT_NEAR(PriceTail(p, 119.6), 1 - Phi(1.96), 1e-15);
  // Accurate far into the tail, where 1 - Phi(z) would cancel.
  EXPECT_NEAR(PriceTail(p, 200) / 7.6198530241604696e-24, 1.0, 1e-9);
}

pip::server::WireResponse Table(std::vector<std::vector<std::string>> rows) {
  pip::server::WireResponse r;
  r.kind = pip::server::WireResponse::Kind::kTable;
  r.rows = std::move(rows);
  return r;
}

std::string Cell(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

TEST(OracleTest, ToleranceRulesRejectPerturbedAnswers) {
  TableData t;
  t.rows = {{100, 10, 5}, {90, 6, 8}, {110, 12, 3}};

  // Fixed-sample expectation: 6 standard errors.
  Check row;
  row.kind = Check::Kind::kRowExpectation;
  row.table = &t;
  row.lo = 1;
  row.samples = 2000;
  const double mean = ProductMean(t.rows[1]);
  const double se = MeanStandardError(ProductVariance(t.rows[1]), 2000);
  EXPECT_EQ(Verify(row, Table({{Cell(mean + 5 * se), "1"}})), "");
  EXPECT_NE(Verify(row, Table({{Cell(mean + 7 * se), "1"}})), "");
  EXPECT_NE(Verify(row, Table({{Cell(mean), "0.99"}})), "");

  // Exact CDF answers: relative 1e-9.
  Check count;
  count.kind = Check::Kind::kExactCount;
  count.table = &t;
  count.hi = 3;
  count.c = 95;
  double want = 0;
  for (const RowParams& p : t.rows) want += PriceTail(p, 95);
  EXPECT_EQ(Verify(count, Table({{Cell(want)}})), "");
  EXPECT_NE(Verify(count, Table({{Cell(want * (1 + 1e-8))}})), "");

  // Fixed-sample rows above a threshold: every row checked, none missing.
  Check rows;
  rows.kind = Check::Kind::kRowsAbove;
  rows.table = &t;
  rows.lo = 0;
  rows.hi = 2;
  rows.c = 400;
  rows.samples = 500;
  std::vector<std::vector<std::string>> exact;
  for (size_t k = 0; k < 2; ++k) {
    TailMoments m = ProductTail(t.rows[k], rows.c);
    exact.push_back({std::to_string(k), Cell(m.ConditionalMean()), Cell(m.prob)});
  }
  EXPECT_EQ(Verify(rows, Table(exact)), "");
  EXPECT_NE(Verify(rows, Table({exact[0]})), "");
  auto perturbed = exact;
  perturbed[1][1] = Cell(1.2 * ProductTail(t.rows[1], rows.c).ConditionalMean());
  EXPECT_NE(Verify(rows, Table(perturbed)), "");

  // Error replies never pass.
  pip::server::WireResponse err;
  err.kind = pip::server::WireResponse::Kind::kError;
  EXPECT_NE(Verify(row, err), "");
}

}  // namespace
}  // namespace pipbench
