#include "src/ctable/algebra.h"

#include <optional>
#include <unordered_map>

namespace pip {

namespace {

/// Structural fingerprint of a row's data cells (not its condition).
size_t HashCells(const std::vector<ExprPtr>& cells) {
  size_t h = 0x811c9dc5ULL;
  for (const auto& c : cells) {
    h ^= c->Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

bool CellsEqual(const std::vector<ExprPtr>& a, const std::vector<ExprPtr>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i]->Equals(*b[i])) return false;
  }
  return true;
}

}  // namespace

StatusOr<CTable> Select(const CTable& in, const ColPredicate& pred) {
  CTable out(in.schema());
  // Selection only filters rows or tightens their conditions, so its
  // output still counts as catalogue rows for the index; the changed
  // condition is part of the index's exact result key.
  out.set_table_id(in.table_id());
  struct ResolvedAtom {
    ResolvedColExpr lhs;
    CmpOp op;
    ResolvedColExpr rhs;
  };
  std::vector<ResolvedAtom> atoms;
  atoms.reserve(pred.atoms().size());
  for (const auto& atom : pred.atoms()) {
    atoms.push_back({ResolvedColExpr(*atom.lhs, in.schema()), atom.op,
                     ResolvedColExpr(*atom.rhs, in.schema())});
  }
  for (const auto& row : in.rows()) {
    // The row's condition is copied once an atom is conjoined onto it.
    std::optional<Condition> cond;
    bool dropped = false;
    for (const auto& atom : atoms) {
      const ExprPtr* l = atom.lhs.Leaf(row.cells);
      const ExprPtr* r = atom.rhs.Leaf(row.cells);
      if (l != nullptr && r != nullptr && (*l)->IsConstant() &&
          (*r)->IsConstant()) {
        // Two constant cells: decided as Condition::AddAtom decides the
        // bound atom (ConstraintAtom::Eval compares two constants by
        // Value::Compare), without building it. True is elided.
        dropped = !DecideCmp(atom.op, (*l)->value().Compare((*r)->value()));
      } else {
        PIP_ASSIGN_OR_RETURN(ExprPtr lhs, atom.lhs.Bind(row.cells));
        PIP_ASSIGN_OR_RETURN(ExprPtr rhs, atom.rhs.Bind(row.cells));
        if (!cond) cond = row.condition;
        cond->AddAtom(ConstraintAtom(std::move(lhs), atom.op, std::move(rhs)));
      }
      if (dropped || (cond ? *cond : row.condition).IsKnownFalse()) {
        dropped = true;
        break;
      }
    }
    if (dropped) continue;
    // Only surviving rows are copied; their cells stay shared.
    CTableRow kept;
    kept.cells = row.cells;
    kept.condition = cond ? std::move(*cond) : row.condition;
    PIP_RETURN_IF_ERROR(out.Append(std::move(kept)));
  }
  return out;
}

StatusOr<CTable> Project(const CTable& in,
                         const std::vector<NamedColExpr>& targets) {
  std::vector<std::string> names;
  std::vector<ResolvedColExpr> exprs;
  names.reserve(targets.size());
  exprs.reserve(targets.size());
  for (const auto& t : targets) {
    names.push_back(t.name);
    exprs.emplace_back(*t.expr, in.schema());
  }
  CTable out((Schema(std::move(names))));
  // Projection is row-preserving: the table id carries through so the
  // index can serve the projected cells' expectations.
  out.set_table_id(in.table_id());
  for (const auto& row : in.rows()) {
    CTableRow projected;
    projected.condition = row.condition;
    projected.cells.reserve(exprs.size());
    for (const auto& expr : exprs) {
      PIP_ASSIGN_OR_RETURN(ExprPtr cell, expr.Bind(row.cells));
      projected.cells.push_back(std::move(cell));
    }
    PIP_RETURN_IF_ERROR(out.Append(std::move(projected)));
  }
  return out;
}

StatusOr<CTable> Product(const CTable& left, const CTable& right,
                         const std::string& rhs_prefix) {
  CTable out(left.schema().Concat(right.schema(), rhs_prefix));
  for (const auto& lrow : left.rows()) {
    for (const auto& rrow : right.rows()) {
      CTableRow combined;
      combined.cells = lrow.cells;
      combined.cells.insert(combined.cells.end(), rrow.cells.begin(),
                            rrow.cells.end());
      combined.condition = lrow.condition.And(rrow.condition);
      if (combined.condition.IsKnownFalse()) continue;
      PIP_RETURN_IF_ERROR(out.Append(std::move(combined)));
    }
  }
  return out;
}

StatusOr<CTable> Join(const CTable& left, const CTable& right,
                      const ColPredicate& pred,
                      const std::string& rhs_prefix) {
  PIP_ASSIGN_OR_RETURN(CTable prod, Product(left, right, rhs_prefix));
  return Select(prod, pred);
}

StatusOr<CTable> Union(const CTable& left, const CTable& right) {
  if (left.schema().size() != right.schema().size()) {
    return Status::InvalidArgument(
        "UNION arity mismatch: " + left.schema().ToString() + " vs " +
        right.schema().ToString());
  }
  CTable out(left.schema());
  for (const auto& row : left.rows()) PIP_RETURN_IF_ERROR(out.Append(row));
  for (const auto& row : right.rows()) PIP_RETURN_IF_ERROR(out.Append(row));
  return out;
}

StatusOr<CTable> Distinct(const CTable& in) {
  CTable out(in.schema());
  // Buckets of already-emitted rows by cell fingerprint; within a bucket,
  // rows with the same data AND same condition are coalesced (phi OR phi
  // = phi); same data with different conditions stay as bag-encoded
  // disjuncts.
  std::unordered_map<size_t, std::vector<size_t>> buckets;
  for (const auto& row : in.rows()) {
    size_t h = HashCells(row.cells);
    auto& bucket = buckets[h];
    bool duplicate = false;
    for (size_t idx : bucket) {
      const CTableRow& seen = out.row(idx);
      if (CellsEqual(seen.cells, row.cells) &&
          seen.condition.Equals(row.condition)) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    bucket.push_back(out.num_rows());
    PIP_RETURN_IF_ERROR(out.Append(row));
  }
  return out;
}

StatusOr<CTable> Difference(const CTable& left, const CTable& right) {
  if (left.schema().size() != right.schema().size()) {
    return Status::InvalidArgument(
        "EXCEPT arity mismatch: " + left.schema().ToString() + " vs " +
        right.schema().ToString());
  }
  PIP_ASSIGN_OR_RETURN(CTable dl, Distinct(left));
  PIP_ASSIGN_OR_RETURN(CTable dr, Distinct(right));

  std::unordered_map<size_t, std::vector<size_t>> rhs_buckets;
  for (size_t i = 0; i < dr.num_rows(); ++i) {
    rhs_buckets[HashCells(dr.row(i).cells)].push_back(i);
  }

  CTable out(left.schema());
  for (const auto& lrow : dl.rows()) {
    std::vector<size_t> matches;
    auto it = rhs_buckets.find(HashCells(lrow.cells));
    if (it != rhs_buckets.end()) {
      for (size_t idx : it->second) {
        if (CellsEqual(dr.row(idx).cells, lrow.cells)) matches.push_back(idx);
      }
    }
    if (matches.empty()) {
      PIP_RETURN_IF_ERROR(out.Append(lrow));
      continue;
    }
    // Result condition: phi AND NOT(pi_1) AND ... AND NOT(pi_k). Each
    // NOT(pi_i) is a DNF of mutually exclusive disjuncts; their conjunction
    // expands as a cross product, each combination becoming one bag row.
    std::vector<Condition> partial = {lrow.condition};
    for (size_t idx : matches) {
      std::vector<Condition> negated = dr.row(idx).condition.NegateToDnf();
      if (negated.empty()) {
        // NOT(TRUE): the S row exists in every world; L row never survives.
        partial.clear();
        break;
      }
      std::vector<Condition> next;
      for (const auto& p : partial) {
        for (const auto& n : negated) {
          Condition combined = p.And(n);
          if (!combined.IsKnownFalse()) next.push_back(std::move(combined));
        }
      }
      partial = std::move(next);
      if (partial.empty()) break;
    }
    for (auto& cond : partial) {
      CTableRow row;
      row.cells = lrow.cells;
      row.condition = std::move(cond);
      PIP_RETURN_IF_ERROR(out.Append(std::move(row)));
    }
  }
  return out;
}

StatusOr<std::vector<CTableGroup>> GroupBy(
    const CTable& in, const std::vector<std::string>& group_columns) {
  std::vector<size_t> key_indices;
  key_indices.reserve(group_columns.size());
  for (const auto& name : group_columns) {
    PIP_ASSIGN_OR_RETURN(size_t idx, in.schema().IndexOf(name));
    key_indices.push_back(idx);
  }

  std::vector<CTableGroup> groups;
  std::unordered_map<size_t, std::vector<size_t>> index;  // hash -> groups
  for (const auto& row : in.rows()) {
    Row key;
    key.reserve(key_indices.size());
    for (size_t idx : key_indices) {
      const ExprPtr& cell = row.cells[idx];
      if (!cell->IsConstant()) {
        return Status::InvalidArgument(
            "group-by column '" + in.schema().name(idx) +
            "' holds a probabilistic value (" + cell->ToString() +
            "); explode discrete variables first");
      }
      key.push_back(cell->value());
    }
    size_t h = 0;
    for (const auto& v : key) h = h * 1099511628211ULL + v.Hash();
    auto& candidates = index[h];
    CTableGroup* group = nullptr;
    for (size_t gi : candidates) {
      if (groups[gi].key == key) {
        group = &groups[gi];
        break;
      }
    }
    if (group == nullptr) {
      candidates.push_back(groups.size());
      CTable members(in.schema());
      // Groups partition the input's rows, so each group keeps the
      // source's table id.
      members.set_table_id(in.table_id());
      groups.push_back(CTableGroup{std::move(key), std::move(members)});
      group = &groups.back();
    }
    PIP_RETURN_IF_ERROR(group->rows.Append(row));
  }
  return groups;
}

StatusOr<CTable> ExplodeDiscrete(const CTable& in, const VariablePool& pool,
                                 size_t max_expansion) {
  CTable out(in.schema());
  // Domains depend only on the variable, so materialize each at most once
  // for the whole table. The DomainSize probe rejects over-budget domains
  // first — for builtins with closed-form sizes (e.g. a 1e6-rank Zipf)
  // without ever building the vector; plugins on the default DomainSize
  // still materialize once to measure. An unusable entry (empty values)
  // marks "leave this variable symbolic".
  std::unordered_map<uint64_t, std::vector<double>> domain_cache;
  auto domain_for =
      [&](uint64_t var_id) -> const std::vector<double>& {
    auto it = domain_cache.find(var_id);
    if (it != domain_cache.end()) return it->second;
    std::vector<double> values;
    auto info = pool.Info(var_id);
    if (info.ok() && info.value()->num_components == 1) {
      auto size = info.value()->dist->DomainSize(info.value()->params);
      if (size.ok() && size.value() > 0 && size.value() <= max_expansion) {
        auto domain = info.value()->dist->DomainValues(info.value()->params);
        if (domain.ok()) values = std::move(domain).value();
      }
    }
    return domain_cache.emplace(var_id, std::move(values)).first->second;
  };
  for (const auto& row : in.rows()) {
    // Collect the univariate finite-discrete variables this row mentions.
    std::vector<VarRef> discrete;
    std::vector<const std::vector<double>*> domains;
    size_t total = 1;
    bool explodable = true;
    for (const VarRef& v : row.Variables()) {
      if (!pool.IsFiniteDiscrete(v.var_id)) continue;
      const std::vector<double>& domain = domain_for(v.var_id);
      if (domain.empty()) continue;
      if (total > max_expansion / domain.size()) {
        explodable = false;
        break;
      }
      total *= domain.size();
      discrete.push_back(v);
      domains.push_back(&domain);
    }
    if (!explodable || discrete.empty()) {
      PIP_RETURN_IF_ERROR(out.Append(row));
      continue;
    }
    // Enumerate the cartesian product of valuations.
    std::vector<size_t> cursor(discrete.size(), 0);
    while (true) {
      Assignment valuation;
      for (size_t i = 0; i < discrete.size(); ++i) {
        valuation.Set(discrete[i], (*domains[i])[cursor[i]]);
      }
      CTableRow exploded;
      exploded.cells.reserve(row.cells.size());
      for (const auto& cell : row.cells) {
        exploded.cells.push_back(Expr::Substitute(cell, valuation));
      }
      Condition cond;
      for (const auto& atom : row.condition.atoms()) {
        cond.AddAtom(ConstraintAtom(Expr::Substitute(atom.lhs(), valuation),
                                    atom.op(),
                                    Expr::Substitute(atom.rhs(), valuation)));
        if (cond.IsKnownFalse()) break;
      }
      if (!cond.IsKnownFalse()) {
        // Guard with mutually exclusive (X = v) atoms.
        for (size_t i = 0; i < discrete.size(); ++i) {
          cond.AddAtom(ConstraintAtom(
              Expr::Var(discrete[i]), CmpOp::kEq,
              Expr::Constant((*domains[i])[cursor[i]])));
        }
        exploded.condition = std::move(cond);
        PIP_RETURN_IF_ERROR(out.Append(std::move(exploded)));
      }
      // Advance the cursor.
      size_t d = 0;
      while (d < cursor.size()) {
        if (++cursor[d] < domains[d]->size()) break;
        cursor[d] = 0;
        ++d;
      }
      if (d == cursor.size()) break;
    }
  }
  return out;
}

}  // namespace pip
