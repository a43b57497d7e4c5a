#include "pipbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

namespace pipbench {

namespace {

using pip::server::WireResponse;

// Default adaptive-stopping precision (SamplingOptions::delta), which the
// sweep workload keeps.
constexpr double kDelta = 0.02;

/// Renders `v` with `decimals` places and returns the text together with
/// the double the server will parse from it, so checks use exactly the
/// value the engine saw.
std::string Render(double v, int decimals, double* parsed) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  *parsed = std::strtod(buf, nullptr);
  return buf;
}

std::string Num(size_t v) { return std::to_string(v); }

double Uniform(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

size_t UniformIndex(std::mt19937_64& rng, size_t lo, size_t hi_inclusive) {
  return std::uniform_int_distribution<size_t>(lo, hi_inclusive)(rng);
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  // splitmix64 finaliser: unrelated streams for nearby seeds and salts.
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t NameSalt(const std::string& name) {
  return std::hash<std::string>()(name);
}

/// One row's constructor text, e.g. "Normal(97.125312, 8.004413),
/// Poisson(6.250012)", from three fractions in [0, 1) mapped onto
/// mu in [80, 120], sigma in [5, 15] and lambda in [3, 10]. *params gets
/// the values the server will parse.
std::string RowText(double u_mu, double u_sigma, double u_lambda,
                    RowParams* params) {
  std::string mu = Render(80 + 40 * u_mu, 6, &params->mu);
  std::string sigma = Render(5 + 10 * u_sigma, 6, &params->sigma);
  std::string lambda = Render(3 + 7 * u_lambda, 6, &params->lambda);
  return "Normal(" + mu + ", " + sigma + "), Poisson(" + lambda + ")";
}

/// 0 .. n-1 in random order.
std::vector<size_t> Shuffled(size_t n, std::mt19937_64& rng) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  std::shuffle(v.begin(), v.end(), rng);
  return v;
}

/// Draws a table of `rows` rows and appends its CREATE and 200-row
/// INSERT statements to `setup`. Row k's parameters are point k of the R2
/// low-discrepancy sequence in three dimensions, shifted by a random
/// offset per dimension drawn from the seed (a Cranley-Patterson
/// rotation). Every seed gives different parameters, but every prefix of
/// the table covers the parameter box about evenly, so the count of rare
/// (expensive) rows, and with it the cost of a sampling statement, barely
/// moves from seed to seed. Independent uniform draws made sweep's
/// statement cost swing 20% between seeds.
TableData MakeTable(const std::string& name, size_t rows, uint64_t seed,
                    std::vector<std::string>* setup) {
  constexpr size_t kInsertBatch = 200;
  // 1/g, 1/g^2, 1/g^3 for g the real root of x^4 = x + 1.
  constexpr double kR2[3] = {0.81917251339616443, 0.67104360670378920,
                             0.54970047790197026};
  std::mt19937_64 rng(Mix(seed, NameSalt(name)));
  double shift[3];
  for (double& v : shift) v = Uniform(rng, 0, 1);
  auto fraction = [&](int dim, size_t k) {
    double v = shift[dim] + kR2[dim] * static_cast<double>(k + 1);
    return v - std::floor(v);
  };
  TableData table;
  table.name = name;
  table.rows.resize(rows);
  setup->push_back("CREATE TABLE " + name + " (k, cust, price, qty)");
  std::string insert;
  for (size_t k = 0; k < rows; ++k) {
    if (k % kInsertBatch == 0) {
      if (!insert.empty()) setup->push_back(insert);
      insert = "INSERT INTO " + name + " VALUES ";
    } else {
      insert += ", ";
    }
    std::string dists = RowText(fraction(0, k), fraction(1, k),
                                fraction(2, k), &table.rows[k]);
    insert += "(" + Num(k) + ", 'c" + Num(k % 100) + "', " + dists + ")";
  }
  if (!insert.empty()) setup->push_back(insert);
  return table;
}

double MeanAbove(const TableData& t, size_t lo, size_t hi, double c) {
  double sum = 0;
  for (size_t k = lo; k < hi; ++k) sum += ProductTail(t.rows[k], c).prob;
  return sum / static_cast<double>(hi - lo);
}

SelectivityGrid MakeGrid(const TableData& t, size_t lo, size_t hi) {
  // At mu <= 120 and lambda <= 10, P[XQ > 3000] is far below any
  // selectivity a workload asks for.
  constexpr int kPoints = 160;
  constexpr double kMaxC = 3000;
  SelectivityGrid grid;
  for (int i = 0; i < kPoints; ++i) {
    double c = kMaxC * i / (kPoints - 1);
    grid.c.push_back(c);
    grid.prob.push_back(MeanAbove(t, lo, hi, c));
  }
  return grid;
}

/// Expected fixed-sample standard error of a probability estimated as
/// accepted / attempts with `n` accepted draws (negative binomial).
double AcceptRateStandardError(double p, size_t n) {
  return p * std::sqrt(std::max(1.0 - p, 0.0) / static_cast<double>(n));
}

bool ParseCell(const std::string& cell, double* out) {
  char* end = nullptr;
  *out = std::strtod(cell.c_str(), &end);
  return !cell.empty() && end != nullptr && *end == '\0';
}

std::string Describe(const char* what, double got, double want, double tol) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: got %.17g, want %.17g (tolerance %.3g)",
                what, got, want, tol);
  return buf;
}

/// Reads a single-cell numeric table response into *out.
std::string ScalarOf(const WireResponse& r, double* out) {
  if (r.kind != WireResponse::Kind::kTable || r.rows.size() != 1 ||
      r.rows[0].size() != 1 || !ParseCell(r.rows[0][0], out)) {
    return "expected a one-cell numeric table";
  }
  return "";
}

/// Checks an adaptive (epsilon, delta) estimate to `deltas` delta
/// relative, or to `floor` absolute when that is wider. 3 delta is about
/// 6 standard errors of the stopping rule's target (delta is its
/// half-width at z = 1.96).
std::string CheckAdaptive(const char* what, double got, double want,
                          double floor = 0, double deltas = 3) {
  double tol = std::max(deltas * kDelta * std::fabs(want), floor);
  if (!(std::fabs(got - want) <= tol)) return Describe(what, got, want, tol);
  return "";
}

/// Draws per chunk (SamplingOptions::chunk_samples): the stopping rule
/// runs only at chunk barriers, so a sampled row takes at least this many.
constexpr double kChunkSamples = 64;

/// Stratified-draw slots of a StatementStream.
enum Slot {
  kPointMix, kPointHotKey, kPointCount,
  kProbeWidth, kProbeTarget,
  kSweepShape, kSweepRare, kSweepCount, kSweepAvg, kSweepRows,
  kTenantHotKey,
};

/// Rows below this probability may be sampled by Metropolis or estimated
/// from a single chunk, so the adaptive per-row checks skip them; they
/// still count in the row sums.
constexpr double kCheckedRowProb = 0.05;

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kSample:
      return "sample";
    case Op::kRead:
      return "read";
    case Op::kWrite:
      return "write";
  }
  return "?";
}

double SelectivityGrid::ThresholdFor(double target) const {
  // prob decreases in c: find the first grid point at or below target.
  size_t i = 1;
  while (i + 1 < prob.size() && prob[i] > target) ++i;
  double p0 = std::max(prob[i - 1], 1e-300), p1 = std::max(prob[i], 1e-300);
  double t = (std::log(p0) - std::log(target)) / (std::log(p0) - std::log(p1));
  t = std::min(1.0, std::max(0.0, t));
  return c[i - 1] + t * (c[i] - c[i - 1]);
}

const TableData& Workload::TableOf(int conn) const {
  return tables.size() == 1 ? tables[0] : tables[conn];
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"point", "probe", "sweep",
                                                 "tenant_rw"};
  return names;
}

Workload MakeWorkload(const std::string& name, uint64_t seed, bool smoke) {
  const size_t scale = smoke ? 10 : 1;
  Workload w;
  if (name == "point" || name == "probe") {
    w.connections = 4;
    w.fixed_samples = name == "point" ? 2000 : 500;
    w.tables.push_back(MakeTable("orders", 2000 / scale, seed, &w.setup));
    if (name == "point") {
      // The 64-key hot set is warmed by one statement during set-up, so
      // the window starts with every hot lookup answerable by the index.
      w.hot_keys = 64;
      w.count_keys = 50;
      std::mt19937_64 rng(Mix(seed, NameSalt("hot")));
      w.hot_lo = UniformIndex(rng, 0, w.tables[0].rows.size() - w.hot_keys);
      w.setup.push_back(
          "SELECT expectation(price * qty), conf() FROM orders WHERE k >= " +
          Num(w.hot_lo) + " AND k < " + Num(w.hot_lo + w.hot_keys));
    }
  } else if (name == "sweep") {
    // One client: the gate admits one sweep at a time anyway, and with a
    // second client every latency included a wait for whatever that
    // client happened to run, which moved p50 by 12% between runs of one
    // seed. 150 rows keep the row axis far wider than the pool while a
    // 20 s window still holds over 100 statements.
    w.connections = 1;
    w.tables.push_back(MakeTable("orders", 150 / scale, seed, &w.setup));
    w.rows_keys = w.tables[0].rows.size() / 2;
    w.grid_all = MakeGrid(w.tables[0], 0, w.tables[0].rows.size());
    w.grid_rows = MakeGrid(w.tables[0], 0, w.rows_keys);
  } else if (name == "tenant_rw") {
    w.connections = 4;
    w.fixed_samples = 1000;
    w.round_length = smoke ? 20 : 300;
    w.hot_keys = 32;
    for (int c = 0; c < w.connections; ++c) {
      w.tables.push_back(
          MakeTable("t_" + std::to_string(c), 300 / scale, seed, &w.setup));
    }
    w.hot_keys = std::min(w.hot_keys, w.tables[0].rows.size());
  } else {
    return w;
  }
  w.name = name;
  return w;
}

StatementStream::StatementStream(const Workload& workload, uint64_t seed,
                                 int conn)
    : workload_(workload),
      stream_seed_(Mix(Mix(seed, NameSalt(workload.name)), conn)),
      conn_(conn),
      rng_(stream_seed_) {}

bool StatementStream::AtRoundStart() const {
  return workload_.round_length > 0 && index_ > 0 &&
         index_ % workload_.round_length == 0;
}

size_t StatementStream::FromBlock(int slot, size_t n) {
  std::vector<size_t>& block = blocks_[slot];
  if (block.empty()) block = Shuffled(n, rng_);
  size_t v = block.back();
  block.pop_back();
  return v;
}

double StatementStream::Stratified(int slot, double lo, double hi) {
  constexpr size_t kStrata = 8;
  double u = (FromBlock(slot, kStrata) + Uniform(rng_, 0, 1)) / kStrata;
  return lo + u * (hi - lo);
}

Statement StatementStream::Next() {
  Statement s;
  if (workload_.name == "point") {
    s = NextPoint();
  } else if (workload_.name == "probe") {
    s = NextProbe();
  } else if (workload_.name == "sweep") {
    s = NextSweep();
  } else {
    s = NextTenant();
  }
  ++index_;
  return s;
}

Statement StatementStream::NextPoint() {
  const TableData& t = workload_.tables[0];
  Statement s;
  s.check.table = &t;
  // Every 20 statements: 12 hot lookups, 5 reads, 3 exact counts.
  size_t mix = FromBlock(kPointMix, 20);
  if (mix < 12) {
    // Warm hot-set lookup: an index hit weighted as a full-table sweep.
    size_t key = workload_.hot_lo + FromBlock(kPointHotKey, workload_.hot_keys);
    s.sql = "SELECT expectation(price * qty), conf() FROM orders WHERE k = " +
            Num(key);
    s.op = Op::kSample;
    s.check.kind = Check::Kind::kRowExpectation;
    s.check.lo = key;
    s.check.samples = workload_.fixed_samples;
    s.symbolic = "SELECT price * qty AS v FROM orders WHERE k = " + Num(key);
  } else if (mix < 17) {
    size_t key = UniformIndex(rng_, 0, t.rows.size() - 1);
    s.sql = "SELECT price * qty AS v FROM orders WHERE k = " + Num(key);
    s.op = Op::kRead;
    s.check.kind = Check::Kind::kRead;
  } else {
    // A single-variable atom: the engine answers from the CDF, no draws.
    std::string c = Render(Stratified(kPointCount, 85, 115), 6, &s.check.c);
    std::string where = " FROM orders WHERE k < " +
                        Num(workload_.count_keys) + " AND price > " + c;
    s.sql = "SELECT expected_count(*)" + where;
    s.op = Op::kSample;
    s.check.kind = Check::Kind::kExactCount;
    s.check.hi = workload_.count_keys;
    s.symbolic = "SELECT price AS v" + where;
  }
  return s;
}

Statement StatementStream::NextProbe() {
  const TableData& t = workload_.tables[0];
  Statement s;
  s.op = Op::kSample;
  s.check.kind = Check::Kind::kRowsAbove;
  s.check.table = &t;
  s.check.samples = workload_.fixed_samples;
  // A short key range and a threshold at 20-60% average selectivity over
  // it. Ranges holding a row below 2% are redrawn: the engine would switch
  // that row to Metropolis, which is sweep's job, not probe's.
  constexpr double kMinRowProb = 0.02;
  size_t lo = 0, width = 1;
  double c = 0;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    width = 1 + FromBlock(kProbeWidth, 8);
    lo = UniformIndex(rng_, 0, t.rows.size() - width);
    double target = Stratified(kProbeTarget, 0.2, 0.6);
    // Bisection on the closed form; 24 halvings of [0, 3000] resolve c
    // to under 0.001, finer than the statement prints it.
    double below = 0, above = 3000;
    for (int it = 0; it < 24; ++it) {
      double mid = 0.5 * (below + above);
      (MeanAbove(t, lo, lo + width, mid) > target ? below : above) = mid;
    }
    c = 0.5 * (below + above);
    bool ok = true;
    for (size_t k = lo; k < lo + width && ok; ++k) {
      ok = ProductTail(t.rows[k], c).prob >= kMinRowProb;
    }
    if (ok) break;
  }
  std::string cs = Render(c, 4, &s.check.c);
  s.check.lo = lo;
  s.check.hi = lo + width;
  std::string where = " FROM orders WHERE k >= " + Num(lo) + " AND k < " +
                      Num(lo + width) + " AND price * qty > " + cs;
  s.sql = "SELECT k, expectation(price * qty), conf()" + where;
  s.symbolic = "SELECT price * qty AS v" + where;
  return s;
}

Statement StatementStream::NextSweep() {
  const TableData& t = workload_.tables[0];
  Statement s;
  s.op = Op::kSample;
  s.check.table = &t;
  s.check.hi = t.rows.size();
  // Each block of five statements holds, in random order, one rare sum,
  // one count, one average and two per-row statements. With one rare sum
  // in five, p90 falls at the middle of the rare sums' latencies, and p50
  // inside the cheap shapes' cluster rather than on an edge between
  // clusters, where it jumped between runs.
  const size_t shape = std::min<size_t>(FromBlock(kSweepShape, 5), 3);
  switch (shape) {
    case 0: {
      // Small expectations: 2.5-3.5% of the table's rows lie above c.
      // Rarer than that, the engine's answer drifts low by more than the
      // 3 delta the check allows (README.md, "Findings").
      double c = workload_.grid_all.ThresholdFor(
          Stratified(kSweepRare, 0.025, 0.035));
      std::string where = " FROM orders WHERE price * qty > " +
                          Render(c, 4, &s.check.c);
      s.sql = "SELECT expected_sum(price * qty)" + where;
      s.check.kind = Check::Kind::kSumAbove;
      s.symbolic = "SELECT price * qty AS v" + where;
      break;
    }
    case 1:
    case 2: {
      const bool count = shape == 1;
      double c = workload_.grid_all.ThresholdFor(
          Stratified(count ? kSweepCount : kSweepAvg, 0.2, 0.4));
      std::string where = " FROM orders WHERE price * qty > " +
                          Render(c, 4, &s.check.c);
      s.sql = std::string(count ? "SELECT expected_count(*)"
                                : "SELECT expected_avg(price * qty)") +
              where;
      s.check.kind =
          count ? Check::Kind::kCountAbove : Check::Kind::kAvgAbove;
      s.symbolic = "SELECT price * qty AS v" + where;
      break;
    }
    default: {
      double c = workload_.grid_rows.ThresholdFor(
          Stratified(kSweepRows, 0.5, 0.7));
      std::string where = " FROM orders WHERE k < " +
                          Num(workload_.rows_keys) + " AND price * qty > " +
                          Render(c, 4, &s.check.c);
      s.sql = "SELECT k, expectation(price * qty), conf()" + where;
      s.check.kind = Check::Kind::kRowsAbove;
      s.check.hi = workload_.rows_keys;
      s.symbolic = "SELECT price * qty AS v" + where;
    }
  }
  return s;
}

Statement StatementStream::NextTenant() {
  const TableData& t = workload_.tables[conn_];
  const size_t pos = index_ % workload_.round_length;
  // Every round replays the same statements: the stream restarts with the
  // round, as the table does.
  if (pos == 0) {
    rng_.seed(stream_seed_);
    blocks_.clear();
  }
  Statement s;
  s.check.table = &t;
  s.check.samples = workload_.fixed_samples;
  if (pos % 10 == 9) {
    // Appended keys start at 100000, so no read below ever selects them.
    RowParams unused;
    std::string dists = RowText(Uniform(rng_, 0, 1), Uniform(rng_, 0, 1),
                                Uniform(rng_, 0, 1), &unused);
    s.sql = "INSERT INTO " + t.name + " VALUES (" + Num(100000 + pos) +
            ", 'new', " + dists + ")";
    s.op = Op::kWrite;
    s.check.kind = Check::Kind::kInsert;
    return s;
  }
  s.op = Op::kSample;
  size_t reads_before = pos - pos / 10;
  if (reads_before % 2 == 0) {
    std::string where =
        " FROM " + t.name + " WHERE k < " + Num(t.rows.size());
    s.sql = "SELECT expected_sum(price * qty)" + where;
    s.check.kind = Check::Kind::kSum;
    s.check.hi = t.rows.size();
    s.symbolic = "SELECT price * qty AS v" + where;
  } else {
    size_t key = FromBlock(kTenantHotKey, workload_.hot_keys);
    std::string where = " FROM " + t.name + " WHERE k = " + Num(key);
    s.sql = "SELECT expectation(price * qty), conf()" + where;
    s.check.kind = Check::Kind::kRowExpectation;
    s.check.lo = key;
    s.symbolic = "SELECT price * qty AS v" + where;
  }
  return s;
}

std::string Verify(const Check& check, const WireResponse& r) {
  if (!r.ok()) return "error response: " + r.message;
  const TableData* t = check.table;
  switch (check.kind) {
    case Check::Kind::kRead:
      if (r.kind != WireResponse::Kind::kCTable || r.rows.size() != 1) {
        return "expected one symbolic row";
      }
      return "";
    case Check::Kind::kInsert:
      if (r.kind != WireResponse::Kind::kAck || r.message != "INSERT 1") {
        return "expected ACK INSERT 1, got '" + r.message + "'";
      }
      return "";
    case Check::Kind::kRowExpectation: {
      double e = 0, conf = 0;
      if (r.kind != WireResponse::Kind::kTable || r.rows.size() != 1 ||
          r.rows[0].size() != 2 || !ParseCell(r.rows[0][0], &e) ||
          !ParseCell(r.rows[0][1], &conf)) {
        return "expected one (expectation, conf) row";
      }
      const RowParams& p = t->rows[check.lo];
      double se = MeanStandardError(ProductVariance(p), check.samples);
      if (!WithinStandardErrors(e, ProductMean(p), se)) {
        return Describe("expectation", e, ProductMean(p), 6 * se);
      }
      if (conf != 1.0) return Describe("conf", conf, 1.0, 0);
      return "";
    }
    case Check::Kind::kExactCount: {
      double got = 0;
      std::string err = ScalarOf(r, &got);
      if (!err.empty()) return err;
      double want = 0;
      for (size_t k = 0; k < check.hi; ++k) want += PriceTail(t->rows[k], check.c);
      if (!ExactMatch(got, want)) return Describe("expected_count", got, want, 0);
      return "";
    }
    case Check::Kind::kSum: {
      double got = 0;
      std::string err = ScalarOf(r, &got);
      if (!err.empty()) return err;
      double want = 0, var = 0;
      for (size_t k = 0; k < check.hi; ++k) {
        want += ProductMean(t->rows[k]);
        var += ProductVariance(t->rows[k]);
      }
      double se = MeanStandardError(var, check.samples);
      if (!WithinStandardErrors(got, want, se)) {
        return Describe("expected_sum", got, want, 6 * se);
      }
      return "";
    }
    case Check::Kind::kSumAbove:
    case Check::Kind::kCountAbove:
    case Check::Kind::kAvgAbove: {
      double got = 0;
      std::string err = ScalarOf(r, &got);
      if (!err.empty()) return err;
      // The aggregates relax each row's delta by sqrt(rows), which meets
      // delta on the total only when rows contribute alike. Above a rare
      // threshold a few rows carry the total, so 3 delta can be about two
      // standard errors. The tolerance is therefore the larger of 3 delta
      // and 6 standard errors of the engine's floor -- every row sampled
      // with at least one chunk of draws -- plus the mass of rows below
      // 1%, which the stopping rule may report as 0 after one chunk.
      double first = 0, prob = 0, var_first = 0, var_prob = 0;
      double rare_first = 0, rare_prob = 0;
      for (size_t k = 0; k < check.hi; ++k) {
        TailMoments m = ProductTail(t->rows[k], check.c);
        first += m.first;
        prob += m.prob;
        var_prob += m.prob * (1 - m.prob) / kChunkSamples;
        if (m.prob > 0) {
          double cv2 = m.ConditionalVariance() /
                       (m.ConditionalMean() * m.ConditionalMean());
          var_first += m.first * m.first * (cv2 + 1 - m.prob) / kChunkSamples;
        }
        if (m.prob < 0.01) {
          rare_first += m.first;
          rare_prob += m.prob;
        }
      }
      const double sum_tol = 6 * std::sqrt(var_first) + rare_first;
      const double count_tol = 6 * std::sqrt(var_prob) + rare_prob;
      if (check.kind == Check::Kind::kSumAbove) {
        return CheckAdaptive("expected_sum", got, first, sum_tol);
      }
      if (check.kind == Check::Kind::kCountAbove) {
        return CheckAdaptive("expected_count", got, prob, count_tol);
      }
      return CheckAdaptive("expected_avg", got, first / prob,
                           first / prob * (sum_tol / first + count_tol / prob));
    }
    case Check::Kind::kRowsAbove: {
      if (r.kind != WireResponse::Kind::kTable) return "expected a table";
      const bool fixed = check.samples > 0;
      // Adaptive stopping targets each row's expectation, not its conf,
      // so adaptive confs are checked through their sums.
      double conf_sum = 0, conf_want = 0, mass_sum = 0, mass_want = 0;
      size_t next = check.lo;
      auto skipped = [&](size_t upto) -> std::string {
        // The engine drops only rows it could not reach by sampling.
        for (; next < upto; ++next) {
          TailMoments m = ProductTail(t->rows[next], check.c);
          if (fixed || m.prob >= kCheckedRowProb) return "row " + Num(next) + " missing";
          conf_want += m.prob;
          mass_want += m.first;
        }
        return "";
      };
      for (const auto& row : r.rows) {
        double k = 0, e = 0, conf = 0;
        if (row.size() != 3 || !ParseCell(row[0], &k) ||
            !ParseCell(row[1], &e) || !ParseCell(row[2], &conf)) {
          return "expected (k, expectation, conf) rows";
        }
        if (k < next || k >= check.hi || k != std::floor(k)) {
          return "row key " + row[0] + " out of order or range";
        }
        std::string err = skipped(static_cast<size_t>(k));
        if (!err.empty()) return err;
        ++next;
        TailMoments m = ProductTail(t->rows[static_cast<size_t>(k)], check.c);
        if (fixed) {
          double se_e = MeanStandardError(m.ConditionalVariance(), check.samples);
          if (!WithinStandardErrors(e, m.ConditionalMean(), se_e)) {
            return Describe("row expectation", e, m.ConditionalMean(), 6 * se_e);
          }
          double se_p = AcceptRateStandardError(m.prob, check.samples);
          if (!WithinStandardErrors(conf, m.prob, se_p)) {
            return Describe("row conf", conf, m.prob, 6 * se_p);
          }
          continue;
        }
        if (!(conf >= 0 && conf <= 1)) return Describe("row conf", conf, m.prob, 1);
        if (m.prob >= kCheckedRowProb) {
          // A single row, not an aggregate: 5 delta, since a stopping rule
          // fed by its own noisy variance estimate sometimes stops early.
          err = CheckAdaptive("row expectation", e, m.ConditionalMean(), 0, 5);
          if (!err.empty()) return err + " at k=" + row[0];
        }
        conf_sum += conf;
        conf_want += m.prob;
        if (std::isfinite(e)) mass_sum += conf * e;
        mass_want += m.first;
      }
      std::string err = skipped(check.hi);
      if (!err.empty() || fixed) return err;
      err = CheckAdaptive("sum of row confs", conf_sum, conf_want);
      if (!err.empty()) return err;
      return CheckAdaptive("sum of row conf * expectation", mass_sum, mass_want);
    }
  }
  return "unknown check";
}

}  // namespace pipbench
