#include "src/engine/query.h"

#include <unordered_map>

#include "src/common/row_parallel.h"
#include "src/sampling/index_ops.h"

namespace pip {

StatusOr<Prepared<Table>> PrepareAnalyze(const CTable& table,
                                         const SamplingEngine& engine,
                                         const AnalyzeSpec& spec) {
  std::vector<size_t> pass_idx, exp_idx;
  std::vector<std::string> out_columns;
  for (const auto& name : spec.passthrough_columns) {
    PIP_ASSIGN_OR_RETURN(size_t idx, table.schema().IndexOf(name));
    pass_idx.push_back(idx);
    out_columns.push_back(name);
  }
  for (const auto& name : spec.expectation_columns) {
    PIP_ASSIGN_OR_RETURN(size_t idx, table.schema().IndexOf(name));
    exp_idx.push_back(idx);
    out_columns.push_back("E[" + name + "]");
  }
  if (spec.with_confidence) out_columns.push_back("conf");

  // A row's passthrough cells are checked before its engine calls, so
  // the rows from the first probabilistic passthrough cell on are never
  // triaged: that row's error is the statement's unless an earlier row
  // fails first.
  const auto& rows = table.rows();
  size_t num_rows = rows.size();
  Status passthrough;
  for (size_t r = 0; r < rows.size() && passthrough.ok(); ++r) {
    for (size_t idx : pass_idx) {
      if (!rows[r].cells[idx]->IsConstant()) {
        passthrough = Status::InvalidArgument(
            "passthrough column '" + table.schema().name(idx) +
            "' holds a probabilistic value");
        num_rows = r;
        break;
      }
    }
  }

  // Each row makes one call per expectation column (the first also
  // yields conf() when asked), or one conf() call when there are none.
  // The triage answers exact calls and index hits now; Run samples the
  // rest through ParallelRows (rows fan out when they fill the width,
  // else each row's samples do; the shape-keyed PlanCache amortizes
  // planning across rows). Results land in per-call slots
  // and emitted rows fold in row order below, so the output table is
  // byte-identical to a serial row loop at every num_threads.
  const bool conf_only = exp_idx.empty() && spec.with_confidence;
  const size_t calls_per_row = conf_only ? 1 : exp_idx.size();
  auto triage = std::make_shared<RowTriage>(
      engine, table, num_rows, calls_per_row,
      [&rows, exp_idx, conf_only, with_conf = spec.with_confidence](
          size_t r, size_t i) {
        if (conf_only) return RowCall{nullptr, &rows[r].condition, false};
        return RowCall{&rows[r].cells[exp_idx[i]], &rows[r].condition,
                       with_conf && i == 0};
      });
  Prepared<Table> prepared;
  prepared.sampled_rows = triage->sampled_rows();
  prepared.finish = [triage, &rows, pass_idx, conf_only, calls_per_row,
                     passthrough, with_conf = spec.with_confidence,
                     out_columns]() -> StatusOr<Table> {
    PIP_RETURN_IF_ERROR(triage->Run());
    PIP_RETURN_IF_ERROR(passthrough);
    Table out((Schema(out_columns)));
    for (size_t r = 0; r < rows.size(); ++r) {
      if (triage->dropped(r)) continue;
      Row cells;
      cells.reserve(out_columns.size());
      for (size_t idx : pass_idx) cells.push_back(rows[r].cells[idx]->value());
      if (!conf_only) {
        for (size_t i = 0; i < calls_per_row; ++i) {
          cells.push_back(Value(triage->result(r, i).expectation));
        }
      }
      if (with_conf) cells.push_back(Value(triage->result(r, 0).probability));
      PIP_RETURN_IF_ERROR(out.Append(std::move(cells)));
    }
    return out;
  };
  return prepared;
}

StatusOr<Table> Analyze(const CTable& table, const SamplingEngine& engine,
                        const AnalyzeSpec& spec) {
  PIP_ASSIGN_OR_RETURN(Prepared<Table> prepared,
                       PrepareAnalyze(table, engine, spec));
  return prepared.finish();
}

StatusOr<Table> AnalyzeJointConfidence(const CTable& table,
                                       const SamplingEngine& engine) {
  // Group rows by identical data cells (the bag-encoded disjunction
  // groups), then aconf() each group.
  struct Group {
    const CTableRow* exemplar;
    std::vector<Condition> disjuncts;
  };
  std::vector<Group> groups;
  std::unordered_map<size_t, std::vector<size_t>> buckets;
  auto hash_cells = [](const std::vector<ExprPtr>& cells) {
    size_t h = 0x811c9dc5ULL;
    for (const auto& c : cells) {
      h ^= c->Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  };
  auto cells_equal = [](const std::vector<ExprPtr>& a,
                        const std::vector<ExprPtr>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i]->Equals(*b[i])) return false;
    }
    return true;
  };
  for (const auto& row : table.rows()) {
    size_t h = hash_cells(row.cells);
    auto& bucket = buckets[h];
    Group* group = nullptr;
    for (size_t gi : bucket) {
      if (cells_equal(groups[gi].exemplar->cells, row.cells)) {
        group = &groups[gi];
        break;
      }
    }
    if (group == nullptr) {
      bucket.push_back(groups.size());
      groups.push_back(Group{&row, {}});
      group = &groups.back();
    }
    group->disjuncts.push_back(row.condition);
  }

  std::vector<std::string> out_columns = table.schema().columns();
  out_columns.push_back("aconf");
  Table out((Schema(out_columns)));
  // Group-parallel aconf(): one JointConfidence call per distinct-row
  // group, fanned out like Analyze's rows (groups are the row axis
  // here). Probabilities land in per-group slots; rows fold in group
  // order, so the output matches the serial loop byte for byte.
  std::vector<double> probs(groups.size(), 0.0);
  PIP_RETURN_IF_ERROR(ParallelRows(
      groups.size(), engine.options().num_threads,
      [&](size_t g, const RowBatchContext& ctx) -> Status {
        for (const auto& cell : groups[g].exemplar->cells) {
          if (!cell->IsConstant()) {
            return Status::InvalidArgument(
                "aconf over probabilistic data cells is not supported; "
                "project to deterministic columns first");
          }
        }
        const SamplingEngine group_engine =
            engine.WithCancelCheck([ctx] { return ctx.Cancelled(); });
        PIP_ASSIGN_OR_RETURN(
            probs[g], group_engine.JointConfidence(groups[g].disjuncts));
        return Status::OK();
      }));
  for (size_t g = 0; g < groups.size(); ++g) {
    Row result;
    for (const auto& cell : groups[g].exemplar->cells) {
      result.push_back(cell->value());
    }
    result.push_back(Value(probs[g]));
    PIP_RETURN_IF_ERROR(out.Append(std::move(result)));
  }
  return out;
}

}  // namespace pip
