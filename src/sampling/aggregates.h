/// \file aggregates.h
/// \brief Aggregate sampling operators with per-table semantics (§IV-C).
///
/// Aggregates fold the row-existence probabilities into the expectation:
/// E[sum(h)] = sum over rows of E[chi_phi * h] = sum E[h | phi] * P[phi]
/// (linearity of expectation). expected_sum, expected_count and
/// expected_avg are folds over one row sweep that yields each row's
/// {E[h | phi] * P[phi], P[phi]} terms. Non-linear aggregates (max) get
/// either the sorted early-termination algorithm of Example 4.4 (constant
/// targets, row confidences from the same sweep) or a world-instantiated
/// fallback. *_hist variants return the raw sample arrays "used to
/// generate histograms and similar visualizations".

#ifndef PIP_SAMPLING_AGGREGATES_H_
#define PIP_SAMPLING_AGGREGATES_H_

#include <string>
#include <vector>

#include "src/ctable/ctable.h"
#include "src/sampling/expectation.h"
#include "src/sampling/index_ops.h"

namespace pip {

/// \brief Options specific to aggregate evaluation.
struct AggregateOptions {
  /// Precision cutoff for the expected_max early-termination scan
  /// (Example 4.4: "if the desired precision is 0.1, we can stop...").
  double max_precision = 1e-6;
  /// World count for world-instantiated fallback aggregates.
  size_t world_samples = 1000;
};

/// The table-wide aggregates served by AggregateEvaluator::Evaluate and
/// GroupedAggregate.
enum class GroupAggregate { kExpectedSum, kExpectedCount, kExpectedAvg, kExpectedMax };

/// \brief Aggregate operators bound to a sampling engine and a c-table.
///
/// The linear operators share one row sweep: rows are triaged
/// (index_ops.h), the sampled ones evaluate in parallel (outer axis),
/// each into its own slot, and all fold in row order, so every answer is
/// bit-identical at every thread count. In adaptive mode the
/// sweep runs on an engine whose per-row tolerance is relaxed by sqrt(N)
/// for an N-row table (law of large numbers, §IV-C).
class AggregateEvaluator {
 public:
  AggregateEvaluator(const SamplingEngine* engine,
                     AggregateOptions options = {})
      : engine_(engine), options_(options) {}

  const SamplingEngine& engine() const { return *engine_; }
  const AggregateOptions& options() const { return options_; }

  /// The aggregate `aggregate` of `column` (ignored by expected_count),
  /// with expected_max's default empty value: Prepare, then `finish`.
  StatusOr<double> Evaluate(GroupAggregate aggregate, const CTable& table,
                            const std::string& column) const;

  /// Evaluate stopped at its admission point (index_ops.h): the row
  /// sweep is triaged into exact, hit and sampled rows, and
  /// `sampled_rows` counts the rows that will draw (every row, for
  /// expected_max's world-sampling fallback). This evaluator's engine and
  /// `table` must outlive `finish`.
  StatusOr<Prepared<double>> Prepare(GroupAggregate aggregate,
                                     const CTable& table,
                                     const std::string& column) const;

  /// expected_sum(column): the row sweep's E[h | phi] * P[phi] terms,
  /// summed in row order.
  StatusOr<double> ExpectedSum(const CTable& table,
                               const std::string& column) const;

  /// expected_count(*): the row sweep's count-only P[phi] terms, summed
  /// in row order, at the same per-row tolerance as ExpectedSum.
  StatusOr<double> ExpectedCount(const CTable& table) const;

  /// expected_avg(column): E[sum]/E[count] (first-order approximation of
  /// the expected average; exact when the row count is deterministic),
  /// both folded from one row sweep, so each row's condition is sampled
  /// once. Rows whose sampling budget collapses contribute to neither.
  StatusOr<double> ExpectedAvg(const CTable& table,
                               const std::string& column) const;

  /// expected_max(column) via Example 4.4 when every target cell is
  /// constant: sort descending, accumulate v_i * P[phi_i] * prod_{j<i}
  /// (1 - P[phi_j]), stop when the remaining mass bound drops below
  /// max_precision. The P[phi_i] come from the count-only row sweep on
  /// the unrelaxed engine. Rows are assumed independent across distinct
  /// variable groups (exact in that case); falls back to world sampling
  /// otherwise. Worlds in which the table is empty contribute
  /// `empty_value`.
  StatusOr<double> ExpectedMax(const CTable& table, const std::string& column,
                               double empty_value = 0.0) const;

  /// expected_stddev(column): expectation of the per-world standard
  /// deviation of the column across present rows (the paper's example of
  /// an aggregate without linearity of expectation; world-instantiated).
  /// Worlds with fewer than two rows contribute 0.
  StatusOr<double> ExpectedStdDev(const CTable& table,
                                  const std::string& column) const;

  /// Standard deviation of the *sum* aggregate itself across worlds —
  /// the spread a decision-maker should attach to expected_sum.
  StatusOr<double> SumStdDev(const CTable& table,
                             const std::string& column) const;

  /// expected_sum_hist: per-world samples of the aggregate (length
  /// options.world_samples), for histogramming.
  StatusOr<std::vector<double>> ExpectedSumHist(const CTable& table,
                                                const std::string& column) const;

  /// expected_max_hist: per-world samples of the max.
  StatusOr<std::vector<double>> ExpectedMaxHist(const CTable& table,
                                                const std::string& column,
                                                double empty_value = 0.0) const;

  /// World-instantiated generic aggregate: instantiates
  /// options.world_samples complete worlds and applies `fold` to each
  /// world's column values. This is the worst-case path the paper
  /// describes for aggregates that do not obey linearity of expectation.
  StatusOr<std::vector<double>> SampleWorlds(
      const CTable& table, const std::string& column,
      const std::function<double(const std::vector<double>&)>& fold) const;

 private:
  /// Engine with per-row tolerance relaxed for an N-row sum.
  SamplingEngine RowEngine(size_t num_rows) const;

  /// Prepare for expected_max with an explicit empty value.
  StatusOr<Prepared<double>> PrepareMax(const CTable& table,
                                        const std::string& column,
                                        double empty_value) const;

  const SamplingEngine* engine_;
  AggregateOptions options_;
};

/// Group-by aggregation (paper §II-C: "the above summation simply proceeds
/// within groups of tuples from C_R that agree on the group columns").
/// Partitions `table` on deterministic `group_columns` and evaluates the
/// chosen aggregate of `value_column` within each group — sampling effort
/// is allocated per group, in a goal-directed fashion. Output schema:
/// group columns + the aggregate column.
StatusOr<Table> GroupedAggregate(const AggregateEvaluator& evaluator,
                                 const CTable& table,
                                 const std::vector<std::string>& group_columns,
                                 const std::string& value_column,
                                 GroupAggregate aggregate);

/// \brief A fixed-width histogram built from samples.
struct Histogram {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<size_t> counts;

  size_t total() const;
  std::string ToString(size_t bar_width = 40) const;
};

/// Builds a histogram with `buckets` equal-width buckets spanning the
/// sample range.
Histogram BuildHistogram(const std::vector<double>& samples, size_t buckets);

}  // namespace pip

#endif  // PIP_SAMPLING_AGGREGATES_H_
