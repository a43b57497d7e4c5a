#include "src/samplefirst/sf_ops.h"

#include <unordered_map>

namespace pip {
namespace samplefirst {

StatusOr<Value> EvalColExpr(const ColExpr& expr, const SFTable& table,
                            const SFTuple& tuple, size_t world) {
  using Kind = ColExpr::Kind;
  switch (expr.kind()) {
    case Kind::kColumn: {
      PIP_ASSIGN_OR_RETURN(size_t idx, table.schema().IndexOf(expr.column()));
      const SFCell& cell = tuple.cells[idx];
      if (IsStochastic(cell)) {
        return Value(std::get<std::vector<double>>(cell)[world]);
      }
      return std::get<Value>(cell);
    }
    case Kind::kLiteral:
      return expr.literal();
    case Kind::kEmbed:
      return Status::InvalidArgument(
          "embedded symbolic equations are a PIP feature; Sample-First "
          "plans must introduce randomness via ParametrizeColumn");
    default:
      break;
  }
  std::vector<double> args;
  args.reserve(expr.children().size());
  for (const auto& c : expr.children()) {
    PIP_ASSIGN_OR_RETURN(Value v, EvalColExpr(*c, table, tuple, world));
    PIP_ASSIGN_OR_RETURN(double d, v.AsDouble());
    args.push_back(d);
  }
  switch (expr.kind()) {
    case Kind::kAdd:
      return Value(args[0] + args[1]);
    case Kind::kSub:
      return Value(args[0] - args[1]);
    case Kind::kMul:
      return Value(args[0] * args[1]);
    case Kind::kDiv:
      if (args[1] == 0.0) return Status::OutOfRange("division by zero");
      return Value(args[0] / args[1]);
    case Kind::kNeg:
      return Value(-args[0]);
    case Kind::kFunc:
      switch (expr.func()) {
        case FuncKind::kExp:
          return Value(std::exp(args[0]));
        case FuncKind::kLog:
          if (args[0] <= 0.0) return Status::OutOfRange("log of non-positive");
          return Value(std::log(args[0]));
        case FuncKind::kSqrt:
          if (args[0] < 0.0) return Status::OutOfRange("sqrt of negative");
          return Value(std::sqrt(args[0]));
        case FuncKind::kAbs:
          return Value(std::fabs(args[0]));
        case FuncKind::kMin:
          return Value(std::min(args[0], args[1]));
        case FuncKind::kMax:
          return Value(std::max(args[0], args[1]));
        case FuncKind::kPow:
          return Value(std::pow(args[0], args[1]));
      }
      return Status::Internal("unknown function");
    default:
      return Status::Internal("unexpected ColExpr kind");
  }
}

bool IsDeterministicFor(const ColExpr& expr, const SFTable& table,
                        const SFTuple& tuple) {
  std::vector<std::string> columns;
  expr.CollectColumns(&columns);
  for (const auto& name : columns) {
    auto idx = table.schema().IndexOf(name);
    if (!idx.ok()) return false;
    if (IsStochastic(tuple.cells[idx.value()])) return false;
  }
  return true;
}

StatusOr<SFTable> Filter(const SFTable& in, const ColPredicate& predicate) {
  SFTable out(in.schema(), in.num_worlds());
  for (const auto& tuple : in.tuples()) {
    SFTuple filtered = tuple;
    bool dropped = false;
    for (const auto& atom : predicate.atoms()) {
      bool det = IsDeterministicFor(*atom.lhs, in, tuple) &&
                 IsDeterministicFor(*atom.rhs, in, tuple);
      if (det) {
        PIP_ASSIGN_OR_RETURN(Value l, EvalColExpr(*atom.lhs, in, tuple, 0));
        PIP_ASSIGN_OR_RETURN(Value r, EvalColExpr(*atom.rhs, in, tuple, 0));
        if (!DecideCmp(atom.op, l.Compare(r))) {
          dropped = true;
          break;
        }
        continue;
      }
      for (size_t w = 0; w < in.num_worlds(); ++w) {
        if (!filtered.PresentIn(w)) continue;
        PIP_ASSIGN_OR_RETURN(Value l, EvalColExpr(*atom.lhs, in, tuple, w));
        PIP_ASSIGN_OR_RETURN(Value r, EvalColExpr(*atom.rhs, in, tuple, w));
        if (!DecideCmp(atom.op, l.Compare(r))) filtered.SetAbsent(w);
      }
      if (!filtered.PresentAnywhere()) {
        dropped = true;
        break;
      }
    }
    if (!dropped && filtered.PresentAnywhere()) {
      PIP_RETURN_IF_ERROR(out.Append(std::move(filtered)));
    }
  }
  return out;
}

StatusOr<SFTable> Map(const SFTable& in,
                      const std::vector<NamedColExpr>& targets) {
  std::vector<std::string> names;
  names.reserve(targets.size());
  for (const auto& t : targets) names.push_back(t.name);
  SFTable out(Schema(std::move(names)), in.num_worlds());
  for (const auto& tuple : in.tuples()) {
    SFTuple mapped;
    mapped.presence = tuple.presence;
    mapped.cells.reserve(targets.size());
    for (const auto& t : targets) {
      if (IsDeterministicFor(*t.expr, in, tuple)) {
        PIP_ASSIGN_OR_RETURN(Value v, EvalColExpr(*t.expr, in, tuple, 0));
        mapped.cells.emplace_back(std::move(v));
      } else {
        std::vector<double> arr(in.num_worlds());
        for (size_t w = 0; w < in.num_worlds(); ++w) {
          PIP_ASSIGN_OR_RETURN(Value v, EvalColExpr(*t.expr, in, tuple, w));
          PIP_ASSIGN_OR_RETURN(arr[w], v.AsDouble());
        }
        mapped.cells.emplace_back(std::move(arr));
      }
    }
    PIP_RETURN_IF_ERROR(out.Append(std::move(mapped)));
  }
  return out;
}

StatusOr<SFTable> Join(const SFTable& left, const SFTable& right,
                       const ColPredicate& predicate,
                       const std::string& rhs_prefix) {
  if (left.num_worlds() != right.num_worlds()) {
    return Status::InvalidArgument("joined tables have different world counts");
  }
  SFTable out(left.schema().Concat(right.schema(), rhs_prefix),
              left.num_worlds());
  for (const auto& l : left.tuples()) {
    for (const auto& r : right.tuples()) {
      SFTuple combined;
      combined.cells = l.cells;
      combined.cells.insert(combined.cells.end(), r.cells.begin(),
                            r.cells.end());
      combined.presence.resize(l.presence.size());
      bool any = false;
      for (size_t i = 0; i < l.presence.size(); ++i) {
        combined.presence[i] = l.presence[i] & r.presence[i];
        any = any || combined.presence[i];
      }
      if (!any) continue;
      // Apply the join predicate against the combined schema.
      bool dropped = false;
      for (const auto& atom : predicate.atoms()) {
        bool det = IsDeterministicFor(*atom.lhs, out, combined) &&
                   IsDeterministicFor(*atom.rhs, out, combined);
        if (det) {
          PIP_ASSIGN_OR_RETURN(Value lv,
                               EvalColExpr(*atom.lhs, out, combined, 0));
          PIP_ASSIGN_OR_RETURN(Value rv,
                               EvalColExpr(*atom.rhs, out, combined, 0));
          if (!DecideCmp(atom.op, lv.Compare(rv))) {
            dropped = true;
            break;
          }
          continue;
        }
        for (size_t w = 0; w < out.num_worlds(); ++w) {
          if (!combined.PresentIn(w)) continue;
          PIP_ASSIGN_OR_RETURN(Value lv,
                               EvalColExpr(*atom.lhs, out, combined, w));
          PIP_ASSIGN_OR_RETURN(Value rv,
                               EvalColExpr(*atom.rhs, out, combined, w));
          if (!DecideCmp(atom.op, lv.Compare(rv))) combined.SetAbsent(w);
        }
        if (!combined.PresentAnywhere()) {
          dropped = true;
          break;
        }
      }
      if (!dropped && combined.PresentAnywhere()) {
        PIP_RETURN_IF_ERROR(out.Append(std::move(combined)));
      }
    }
  }
  return out;
}

StatusOr<std::vector<SFGroup>> GroupBy(
    const SFTable& in, const std::vector<std::string>& group_columns) {
  std::vector<size_t> key_indices;
  for (const auto& name : group_columns) {
    PIP_ASSIGN_OR_RETURN(size_t idx, in.schema().IndexOf(name));
    key_indices.push_back(idx);
  }
  std::vector<SFGroup> groups;
  std::unordered_map<size_t, std::vector<size_t>> index;
  for (const auto& tuple : in.tuples()) {
    Row key;
    for (size_t idx : key_indices) {
      if (IsStochastic(tuple.cells[idx])) {
        return Status::InvalidArgument("group-by column '" +
                                       in.schema().name(idx) +
                                       "' is stochastic");
      }
      key.push_back(std::get<Value>(tuple.cells[idx]));
    }
    size_t h = 0;
    for (const auto& v : key) h = h * 1099511628211ULL + v.Hash();
    auto& bucket = index[h];
    SFGroup* group = nullptr;
    for (size_t gi : bucket) {
      if (groups[gi].key == key) {
        group = &groups[gi];
        break;
      }
    }
    if (group == nullptr) {
      bucket.push_back(groups.size());
      groups.push_back(SFGroup{std::move(key),
                               SFTable(in.schema(), in.num_worlds())});
      group = &groups.back();
    }
    PIP_RETURN_IF_ERROR(group->rows.Append(tuple));
  }
  return groups;
}

StatusOr<std::vector<double>> PerWorldSums(const SFTable& table,
                                           const std::string& column) {
  PIP_ASSIGN_OR_RETURN(size_t col, table.schema().IndexOf(column));
  std::vector<double> sums(table.num_worlds(), 0.0);
  for (const auto& tuple : table.tuples()) {
    for (size_t w = 0; w < table.num_worlds(); ++w) {
      if (!tuple.PresentIn(w)) continue;
      PIP_ASSIGN_OR_RETURN(double v, table.CellValue(tuple, col, w));
      sums[w] += v;
    }
  }
  return sums;
}

std::vector<double> PerWorldCounts(const SFTable& table) {
  std::vector<double> counts(table.num_worlds(), 0.0);
  for (const auto& tuple : table.tuples()) {
    for (size_t w = 0; w < table.num_worlds(); ++w) {
      if (tuple.PresentIn(w)) counts[w] += 1.0;
    }
  }
  return counts;
}

StatusOr<std::vector<double>> PerWorldMax(const SFTable& table,
                                          const std::string& column,
                                          double empty_value) {
  PIP_ASSIGN_OR_RETURN(size_t col, table.schema().IndexOf(column));
  std::vector<double> maxima(table.num_worlds(), empty_value);
  std::vector<bool> seen(table.num_worlds(), false);
  for (const auto& tuple : table.tuples()) {
    for (size_t w = 0; w < table.num_worlds(); ++w) {
      if (!tuple.PresentIn(w)) continue;
      PIP_ASSIGN_OR_RETURN(double v, table.CellValue(tuple, col, w));
      if (!seen[w] || v > maxima[w]) {
        maxima[w] = v;
        seen[w] = true;
      }
    }
  }
  return maxima;
}

double MeanOverWorlds(const std::vector<double>& per_world) {
  if (per_world.empty()) return 0.0;
  double sum = 0.0;
  for (double v : per_world) sum += v;
  return sum / static_cast<double>(per_world.size());
}

}  // namespace samplefirst
}  // namespace pip
