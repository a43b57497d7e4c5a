#include "src/sampling/aggregates.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <sstream>

#include "src/common/row_parallel.h"
#include "src/common/running_stats.h"
#include "src/common/thread_pool.h"
#include "src/ctable/algebra.h"

namespace pip {

namespace {
constexpr uint64_t kWorldMarker = 0x3081d5ULL << 32;

/// One row's terms of a linear aggregate (§IV-C): E[h | phi] * P[phi]
/// and P[phi].
struct RowTerm {
  double sum = 0.0;
  double prob = 0.0;
};

/// The one row sweep behind expected_sum, expected_count, expected_avg
/// and Example 4.4's expected_max, triaged (index_ops.h) over the first
/// `num_rows` rows of `table`. With a value column each row makes one
/// Expectation call with probability; count-only (`col` empty) one
/// Confidence call.
std::shared_ptr<RowTriage> SweepRows(const SamplingEngine& engine,
                                     const CTable& table,
                                     std::optional<size_t> col,
                                     size_t num_rows) {
  const auto& rows = table.rows();
  return std::make_shared<RowTriage>(
      engine, table, num_rows, /*calls_per_row=*/1,
      [&rows, col](size_t r, size_t) {
        if (!col) return RowCall{nullptr, &rows[r].condition, false};
        return RowCall{&rows[r].cells[*col], &rows[r].condition, true};
      });
}

/// Runs the sweep's sampled rows and returns one slot per row, in row
/// order, so callers fold them into the serial loop's bits at every
/// thread count. A value-column slot is {E * P, P}, or zero when the row
/// is unsatisfiable or collapsed (absent from (almost) every world); a
/// count-only slot is {0, P}.
StatusOr<std::vector<RowTerm>> SweepTerms(RowTriage* sweep, size_t num_rows,
                                          bool with_col) {
  PIP_RETURN_IF_ERROR(sweep->Run());
  std::vector<RowTerm> terms(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    const ExpectationResult& res = sweep->result(r, 0);
    if (!with_col) {
      terms[r].prob = res.probability;
    } else if (!std::isnan(res.expectation) && res.probability > 0.0) {
      terms[r] = {res.expectation * res.probability, res.probability};
    }
  }
  return terms;
}
}  // namespace

SamplingEngine AggregateEvaluator::RowEngine(size_t num_rows) const {
  SamplingOptions opts = engine_->options();
  if (opts.fixed_samples == 0 && num_rows > 1) {
    // Law of large numbers (§IV-C): summing N independent per-row
    // estimates divides the aggregate's standard error by sqrt(N), so the
    // per-row tolerance may be relaxed by the same factor.
    opts.delta = std::min(0.5, opts.delta * std::sqrt(
                                   static_cast<double>(num_rows)));
  }
  // Share the base engine's plan cache and result index: in fixed-sample
  // mode (where opts are untouched) aggregate rows and Analyze rows then
  // hit the very same index entries.
  return engine_->WithOptions(opts);
}

StatusOr<double> AggregateEvaluator::ExpectedSum(
    const CTable& table, const std::string& column) const {
  return Evaluate(GroupAggregate::kExpectedSum, table, column);
}

StatusOr<double> AggregateEvaluator::ExpectedCount(const CTable& table) const {
  return Evaluate(GroupAggregate::kExpectedCount, table, "");
}

StatusOr<double> AggregateEvaluator::ExpectedAvg(
    const CTable& table, const std::string& column) const {
  return Evaluate(GroupAggregate::kExpectedAvg, table, column);
}

StatusOr<double> AggregateEvaluator::ExpectedMax(const CTable& table,
                                                 const std::string& column,
                                                 double empty_value) const {
  PIP_ASSIGN_OR_RETURN(Prepared<double> prepared,
                       PrepareMax(table, column, empty_value));
  return prepared.finish();
}

StatusOr<double> AggregateEvaluator::Evaluate(GroupAggregate aggregate,
                                              const CTable& table,
                                              const std::string& column) const {
  PIP_ASSIGN_OR_RETURN(Prepared<double> prepared,
                       Prepare(aggregate, table, column));
  return prepared.finish();
}

StatusOr<Prepared<double>> AggregateEvaluator::Prepare(
    GroupAggregate aggregate, const CTable& table,
    const std::string& column) const {
  if (aggregate == GroupAggregate::kExpectedMax) {
    return PrepareMax(table, column, /*empty_value=*/0.0);
  }
  std::optional<size_t> col;
  if (aggregate != GroupAggregate::kExpectedCount) {
    PIP_ASSIGN_OR_RETURN(col, table.schema().IndexOf(column));
  }
  const size_t n = table.num_rows();
  std::shared_ptr<RowTriage> sweep = SweepRows(RowEngine(n), table, col, n);
  Prepared<double> prepared;
  prepared.sampled_rows = sweep->sampled_rows();
  prepared.finish = [sweep, n, aggregate,
                     with_col = col.has_value()]() -> StatusOr<double> {
    PIP_ASSIGN_OR_RETURN(std::vector<RowTerm> terms,
                         SweepTerms(sweep.get(), n, with_col));
    double sum = 0.0, count = 0.0;
    for (const RowTerm& t : terms) {
      sum += t.sum;
      count += t.prob;
    }
    if (aggregate == GroupAggregate::kExpectedSum) return sum;
    if (aggregate == GroupAggregate::kExpectedCount) return count;
    if (count <= 0.0) {
      return Status::Inconsistent("expected_avg over a table that is empty "
                                  "in (almost) every world");
    }
    return sum / count;
  };
  return prepared;
}

StatusOr<Prepared<double>> AggregateEvaluator::PrepareMax(
    const CTable& table, const std::string& column, double empty_value) const {
  PIP_ASSIGN_OR_RETURN(size_t col, table.schema().IndexOf(column));
  Prepared<double> prepared;
  if (table.num_rows() == 0) {
    prepared.finish = [empty_value]() -> StatusOr<double> {
      return empty_value;
    };
    return prepared;
  }

  // Fast path (Example 4.4): constant targets and independent rows.
  bool constants = true;
  for (const auto& row : table.rows()) {
    if (!row.cells[col]->IsConstant()) {
      constants = false;
      break;
    }
  }
  bool independent_rows = true;
  if (constants) {
    std::set<uint64_t> seen_ids;
    for (const auto& row : table.rows()) {
      for (const VarRef& v : row.condition.Variables()) {
        if (!seen_ids.insert(v.var_id).second) {
          // A variable shared across rows breaks the product formula.
          independent_rows = false;
          break;
        }
      }
      if (!independent_rows) break;
    }
  }

  if (!constants || !independent_rows) {
    // General path: world-instantiated evaluation, in which every row
    // draws.
    prepared.sampled_rows = table.num_rows();
    prepared.finish = [self = *this, &table, column,
                       empty_value]() -> StatusOr<double> {
      PIP_ASSIGN_OR_RETURN(
          std::vector<double> worlds,
          self.SampleWorlds(table, column,
                            [&](const std::vector<double>& vals) {
                              if (vals.empty()) return empty_value;
                              return *std::max_element(vals.begin(),
                                                       vals.end());
                            }));
      double total = 0.0;
      for (double w : worlds) total += w;
      return worlds.empty() ? empty_value
                            : total / static_cast<double>(worlds.size());
    };
    return prepared;
  }

  struct Entry {
    double value;
    double prob;
  };
  std::vector<Entry> entries;
  entries.reserve(table.num_rows());
  Status bad_value;
  for (const auto& row : table.rows()) {
    StatusOr<double> v = row.cells[col]->value().AsDouble();
    if (!v.ok()) {
      bad_value = v.status();
      break;
    }
    entries.push_back({v.value(), 0.0});
  }
  // Row confidences on the unrelaxed engine, swept only over the rows
  // before the first bad value: a row's value error comes before its
  // confidence error, and an earlier row's errors before both.
  std::shared_ptr<RowTriage> sweep =
      SweepRows(*engine_, table, std::nullopt, entries.size());
  prepared.sampled_rows = sweep->sampled_rows();
  prepared.finish = [sweep, entries, bad_value, empty_value,
                     max_precision = options_.max_precision]() mutable
      -> StatusOr<double> {
    PIP_ASSIGN_OR_RETURN(
        std::vector<RowTerm> terms,
        SweepTerms(sweep.get(), entries.size(), /*with_col=*/false));
    PIP_RETURN_IF_ERROR(bad_value);
    for (size_t r = 0; r < entries.size(); ++r) {
      entries[r].prob = terms[r].prob;
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.value > b.value; });
    double low_floor = std::min(entries.back().value, empty_value);
    double expectation = 0.0;
    double none_above = 1.0;  // P[no scanned row is present].
    for (size_t i = 0; i < entries.size(); ++i) {
      expectation += entries[i].value * entries[i].prob * none_above;
      none_above *= (1.0 - entries[i].prob);
      // Early termination: everything still unscanned can shift the
      // result by at most (next value - low floor) * P[nothing so far].
      if (i + 1 < entries.size()) {
        double bound = none_above * (entries[i + 1].value - low_floor);
        if (std::fabs(bound) < max_precision) {
          // Close the truncated tail at the floor value.
          expectation += none_above * low_floor;
          return expectation;
        }
      }
    }
    expectation += none_above * empty_value;
    return expectation;
  };
  return prepared;
}

StatusOr<double> AggregateEvaluator::ExpectedStdDev(
    const CTable& table, const std::string& column) const {
  PIP_ASSIGN_OR_RETURN(
      std::vector<double> worlds,
      SampleWorlds(table, column, [](const std::vector<double>& vals) {
        if (vals.size() < 2) return 0.0;
        RunningStats stats;
        for (double v : vals) stats.Add(v);
        return stats.stddev();
      }));
  double total = 0.0;
  for (double w : worlds) total += w;
  return worlds.empty() ? 0.0 : total / static_cast<double>(worlds.size());
}

StatusOr<double> AggregateEvaluator::SumStdDev(
    const CTable& table, const std::string& column) const {
  PIP_ASSIGN_OR_RETURN(std::vector<double> sums,
                       ExpectedSumHist(table, column));
  RunningStats stats;
  for (double s : sums) stats.Add(s);
  return stats.stddev();
}

StatusOr<std::vector<double>> AggregateEvaluator::ExpectedSumHist(
    const CTable& table, const std::string& column) const {
  return SampleWorlds(table, column, [](const std::vector<double>& vals) {
    double s = 0.0;
    for (double v : vals) s += v;
    return s;
  });
}

StatusOr<std::vector<double>> AggregateEvaluator::ExpectedMaxHist(
    const CTable& table, const std::string& column,
    double empty_value) const {
  return SampleWorlds(table, column,
                      [empty_value](const std::vector<double>& vals) {
                        if (vals.empty()) return empty_value;
                        return *std::max_element(vals.begin(), vals.end());
                      });
}

StatusOr<std::vector<double>> AggregateEvaluator::SampleWorlds(
    const CTable& table, const std::string& column,
    const std::function<double(const std::vector<double>&)>& fold) const {
  PIP_ASSIGN_OR_RETURN(size_t col, table.schema().IndexOf(column));
  const VariablePool& pool = engine_->pool();

  // Distinct variable ids across the whole table.
  VarSet vars = table.Variables();
  std::vector<uint64_t> ids;
  for (const VarRef& v : vars) {
    if (ids.empty() || ids.back() != v.var_id) ids.push_back(v.var_id);
  }

  // Every world is a pure function of its sample index, so the world
  // space shards across threads with bit-identical results: each chunk
  // writes its own slots, no cross-world state exists, and the fold
  // below reads the slots in index order.
  const size_t n = options_.world_samples;
  std::vector<double> results(n, 0.0);
  const size_t chunk =
      std::max<size_t>(1, engine_->options().chunk_samples);
  std::vector<Status> chunk_status(NumChunks(n, chunk), Status::OK());
  ThreadPool::For(
      NumChunks(n, chunk), engine_->options().num_threads, [&](size_t c) {
        // Chunk barrier: cooperative cancellation poll (see
        // SamplingOptions::cancel_check) — world chunks after an earlier
        // batch row's failure stop instantiating worlds nobody reads.
        const auto& cancel = engine_->options().cancel_check;
        if (cancel && cancel()) {
          chunk_status[c] = Status::Cancelled("world sampling");
          return;
        }
        std::vector<double> joint;
        Assignment world;
        std::vector<double> values;
        size_t end = std::min(n, (c + 1) * chunk);
        for (size_t w = c * chunk; w < end; ++w) {
          uint64_t sample_index = engine_->options().sample_offset + w;
          world.Clear();
          for (uint64_t id : ids) {
            Status s =
                pool.GenerateJoint(id, sample_index, kWorldMarker, &joint);
            if (!s.ok()) {
              chunk_status[c] = s;
              return;
            }
            for (uint32_t comp = 0; comp < joint.size(); ++comp) {
              world.Set(VarRef{id, comp}, joint[comp]);
            }
          }
          values.clear();
          for (const auto& row : table.rows()) {
            auto present = row.condition.Eval(world);
            if (!present.ok()) {
              chunk_status[c] = present.status();
              return;
            }
            if (!present.value()) continue;
            auto v = row.cells[col]->EvalDouble(world);
            if (!v.ok()) {
              chunk_status[c] = v.status();
              return;
            }
            values.push_back(v.value());
          }
          results[w] = fold(values);
        }
      });
  for (const Status& s : chunk_status) {
    PIP_RETURN_IF_ERROR(s);
  }
  return results;
}

StatusOr<Table> GroupedAggregate(const AggregateEvaluator& evaluator,
                                 const CTable& table,
                                 const std::vector<std::string>& group_columns,
                                 const std::string& value_column,
                                 GroupAggregate aggregate) {
  PIP_ASSIGN_OR_RETURN(std::vector<CTableGroup> groups,
                       GroupBy(table, group_columns));
  std::vector<std::string> out_columns = group_columns;
  switch (aggregate) {
    case GroupAggregate::kExpectedSum:
      out_columns.push_back("expected_sum(" + value_column + ")");
      break;
    case GroupAggregate::kExpectedCount:
      out_columns.push_back("expected_count(*)");
      break;
    case GroupAggregate::kExpectedAvg:
      out_columns.push_back("expected_avg(" + value_column + ")");
      break;
    case GroupAggregate::kExpectedMax:
      out_columns.push_back("expected_max(" + value_column + ")");
      break;
  }
  Table out((Schema(out_columns)));
  // Groups are independent per-table aggregations: with at least as
  // many groups as threads they fan out and each group's rows run
  // inline; with fewer, groups run serially and each group's row sweep
  // (or its rows' samples) takes the width. Values land in per-group
  // slots and emit in group order: identical to the serial loop.
  std::vector<double> values(groups.size(), 0.0);
  PIP_RETURN_IF_ERROR(ParallelRows(
      groups.size(), evaluator.engine().options().num_threads,
      [&](size_t g, const RowBatchContext& ctx) -> Status {
        const SamplingEngine group_engine =
            evaluator.engine().WithCancelCheck(
                [ctx] { return ctx.Cancelled(); });
        const AggregateEvaluator group_eval(&group_engine,
                                            evaluator.options());
        PIP_ASSIGN_OR_RETURN(
            values[g],
            group_eval.Evaluate(aggregate, groups[g].rows, value_column));
        return Status::OK();
      }));
  for (size_t g = 0; g < groups.size(); ++g) {
    Row row = groups[g].key;
    row.push_back(Value(values[g]));
    PIP_RETURN_IF_ERROR(out.Append(std::move(row)));
  }
  return out;
}

size_t Histogram::total() const {
  size_t t = 0;
  for (size_t c : counts) t += c;
  return t;
}

std::string Histogram::ToString(size_t bar_width) const {
  std::ostringstream os;
  size_t max_count = 1;
  for (size_t c : counts) max_count = std::max(max_count, c);
  double width = counts.empty() ? 0.0 : (hi - lo) / counts.size();
  for (size_t i = 0; i < counts.size(); ++i) {
    double b_lo = lo + i * width;
    double b_hi = b_lo + width;
    size_t bar = counts[i] * bar_width / max_count;
    os << "[" << b_lo << ", " << b_hi << ") " << std::string(bar, '#') << " "
       << counts[i] << "\n";
  }
  return os.str();
}

Histogram BuildHistogram(const std::vector<double>& samples, size_t buckets) {
  Histogram h;
  if (samples.empty() || buckets == 0) return h;
  h.lo = *std::min_element(samples.begin(), samples.end());
  h.hi = *std::max_element(samples.begin(), samples.end());
  if (h.hi <= h.lo) h.hi = h.lo + 1.0;
  h.counts.assign(buckets, 0);
  for (double s : samples) {
    size_t b = static_cast<size_t>((s - h.lo) / (h.hi - h.lo) * buckets);
    if (b >= buckets) b = buckets - 1;
    ++h.counts[b];
  }
  return h;
}

}  // namespace pip
