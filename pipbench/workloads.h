/// \file workloads.h
/// \brief The four pipbench workloads: tables, statement streams, checks.
///
/// A workload is a set of tables loaded during set-up plus, per client
/// connection, a deterministic statement stream drawn from the run seed.
/// The stream is endless; the client loop stops asking for statements
/// when the measurement window closes. Every statement carries the
/// closed-form check its response must pass (see oracle.h), so replies are
/// verified without knowing which workload produced them.
///
/// Why these four (README.md has the long form):
///   point      transport, codec, parse and the gate carry the time; the
///              expectation index answers most sampling statements.
///   probe      many small cold Monte Carlo regions from concurrent
///              sessions; every statement misses the index.
///   sweep      sampling-bound table sweeps with adaptive stopping, rare
///              events (rejection and Metropolis) and index evictions.
///   tenant_rw  reads beside copy-on-write appends that purge the index.

#ifndef PIPBENCH_WORKLOADS_H_
#define PIPBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "pipbench/oracle.h"
#include "src/server/wire.h"

namespace pipbench {

/// What a statement is, from the user's side: `sample` invokes a
/// probability-removing function, `read` returns a symbolic c-table,
/// `write` is an INSERT.
enum class Op { kSample, kRead, kWrite };
const char* OpName(Op op);

/// One table of uncertain orders: row k has price ~ Normal(mu_k, sigma_k)
/// and qty ~ Poisson(lambda_k).
struct TableData {
  std::string name;
  std::vector<RowParams> rows;  ///< Indexed by k.
};

/// What a response must satisfy. Checks read decoded wire cells, so one
/// check serves wire responses and replayed ones alike.
struct Check {
  enum class Kind {
    kRowExpectation,  ///< One row: E[XQ] of row `lo` within 6 SE, conf 1.
    kRead,            ///< One symbolic row.
    kExactCount,      ///< sum_{k < hi} P[price_k > c], exact.
    kRowsAbove,       ///< Rows (k, E[XQ | XQ > c], P[XQ > c]), k in [lo, hi).
    kSum,             ///< sum_{k < hi} E[XQ], fixed samples.
    kInsert,          ///< ACK of a one-row INSERT.
    kSumAbove,        ///< sum_k E[XQ 1{XQ > c}], adaptive.
    kCountAbove,      ///< sum_k P[XQ > c], adaptive.
    kAvgAbove,        ///< sum_k E[XQ 1{XQ > c}] / sum_k P[XQ > c], adaptive.
  };
  Kind kind = Kind::kRead;
  const TableData* table = nullptr;
  size_t lo = 0, hi = 0;  ///< Key range [lo, hi) the statement touches.
  double c = 0;           ///< Threshold, exactly as the server parses it.
  size_t samples = 0;     ///< FIXED_SAMPLES; 0 = adaptive stopping.
};

struct Statement {
  std::string sql;
  Op op = Op::kRead;
  Check check;
  /// For sampling statements: the plain SELECT of the sampled expression
  /// (as column `v`) over the same rows and condition. The replay times
  /// it as engine.query and samples its rows for the acceptance ratio.
  std::string symbolic;
};

/// Empty when `response` satisfies `check`, else what is wrong with it.
std::string Verify(const Check& check, const pip::server::WireResponse& response);

/// Table-average P[XQ > c] over keys [lo, hi), tabulated on a grid of c
/// so the per-statement threshold search costs a binary search.
struct SelectivityGrid {
  std::vector<double> c, prob;  ///< prob is decreasing in c.
  /// The c at which the average probability is `target` (log-linear
  /// interpolation between grid points).
  double ThresholdFor(double target) const;
};

/// \brief One workload instance for one seed.
struct Workload {
  std::string name;
  int connections = 0;
  size_t fixed_samples = 0;  ///< Database default FIXED_SAMPLES (0 = adaptive).
  /// Statements per connection after which the connection's table is
  /// restored to its set-up state (0 = never): tenant_rw's fixed work
  /// repeats in identical rounds for as long as the window lasts.
  size_t round_length = 0;
  std::vector<TableData> tables;
  /// Set-up SQL in execution order. It runs on one connection,
  /// sequentially, so every database built from it assigns the same
  /// variable ids.
  std::vector<std::string> setup;
  size_t hot_lo = 0;     ///< point: first key of the 64-key warm set.
  size_t hot_keys = 0;   ///< point/tenant_rw: size of the hot key set.
  size_t count_keys = 0;  ///< point: expected_count covers k < count_keys.
  size_t rows_keys = 0;  ///< sweep: the per-row statement covers k < rows_keys.
  SelectivityGrid grid_all, grid_rows;  ///< sweep thresholds.

  /// The table connection `conn` queries.
  const TableData& TableOf(int conn) const;
};

/// Names of the workloads, in the order `--workload all` runs them.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` for `seed`; `smoke` shrinks tables to 1/10 and
/// tenant_rw rounds to 20 statements. Empty name on an unknown workload.
Workload MakeWorkload(const std::string& name, uint64_t seed, bool smoke);

/// \brief A connection's deterministic statement stream.
class StatementStream {
 public:
  StatementStream(const Workload& workload, uint64_t seed, int conn);

  /// True when the next statement opens a round after the first: the
  /// connection's table must be restored before it runs.
  bool AtRoundStart() const;
  /// Statements handed out so far.
  size_t position() const { return index_; }
  Statement Next();

 private:
  Statement NextPoint();
  Statement NextProbe();
  Statement NextSweep();
  Statement NextTenant();

  /// Stratified draws: the next entry of a shuffled block 0 .. n-1 kept
  /// per `slot`, so every n consecutive draws of a slot cover each value
  /// once. A run then sees the same mix and the same spread of thresholds
  /// whatever the seed, and its averages move less from seed to seed.
  size_t FromBlock(int slot, size_t n);
  /// A value in [lo, hi) drawn from one of 8 strata, stratified as above.
  double Stratified(int slot, double lo, double hi);

  const Workload& workload_;
  uint64_t stream_seed_;
  int conn_;
  std::mt19937_64 rng_;
  std::map<int, std::vector<size_t>> blocks_;
  size_t index_ = 0;
};

}  // namespace pipbench

#endif  // PIPBENCH_WORKLOADS_H_
