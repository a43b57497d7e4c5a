#include "src/constraints/consistency.h"

#include <cmath>

namespace pip {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Decomposed view of an atom as `var = constant` / `var != constant`.
struct VarConstEq {
  VarRef var;
  double value;
};

/// Tries to view `atom` as (Var op Constant), flipping sides if needed.
std::optional<std::pair<VarRef, double>> AsVarConst(const ConstraintAtom& atom,
                                                    CmpOp* effective_op) {
  const Expr* var_side = nullptr;
  const Expr* const_side = nullptr;
  CmpOp op = atom.op();
  if (atom.lhs()->op() == ExprOp::kVar && atom.rhs()->IsConstant()) {
    var_side = atom.lhs().get();
    const_side = atom.rhs().get();
  } else if (atom.rhs()->op() == ExprOp::kVar && atom.lhs()->IsConstant()) {
    var_side = atom.rhs().get();
    const_side = atom.lhs().get();
    op = FlipCmp(op);
  } else {
    return std::nullopt;
  }
  auto d = const_side->value().AsDouble();
  if (!d.ok()) return std::nullopt;
  *effective_op = op;
  return std::make_pair(var_side->var(), d.value());
}

bool IsContinuous(const VariablePool& pool, VarRef v) {
  auto info = pool.Info(v.var_id);
  return info.ok() && info.value()->dist->domain() == DomainKind::kContinuous;
}

/// Interval of the linear form excluding `target`'s term, under `bounds`.
Interval RestInterval(const LinearForm& form, VarRef target,
                      const std::map<VarRef, Interval>& bounds) {
  Interval acc = Interval::Point(form.constant);
  for (const auto& [v, coef] : form.coefficients) {
    if (v == target) continue;
    auto it = bounds.find(v);
    Interval b = it == bounds.end() ? Interval::All() : it->second;
    acc = Add(acc, Mul(Interval::Point(coef), b));
    if (acc.IsAll()) return acc;  // No information can survive.
  }
  return acc;
}

/// No real lies in `b` (X > 1e999 bounds X to [+inf, +inf]).
bool HoldsNoReal(const Interval& b) {
  return b.IsEmpty() || b.lo == kInf || b.hi == -kInf;
}

}  // namespace

const char* ConsistencyVerdictName(ConsistencyVerdict v) {
  switch (v) {
    case ConsistencyVerdict::kInconsistent:
      return "Inconsistent";
    case ConsistencyVerdict::kConsistent:
      return "Consistent";
    case ConsistencyVerdict::kWeaklyConsistent:
      return "WeaklyConsistent";
  }
  return "?";
}

Interval Tighten1(const LinearForm& form, CmpOp op, VarRef target,
                  const std::map<VarRef, Interval>& bounds) {
  auto it = form.coefficients.find(target);
  if (it == form.coefficients.end() || it->second == 0.0) {
    return Interval::All();
  }
  double a = it->second;
  Interval rest = RestInterval(form, target, bounds);
  if (rest.IsEmpty()) return Interval::Empty();

  switch (op) {
    case CmpOp::kGt:
    case CmpOp::kGe:
      // a*X + R >= 0  =>  X >= -R_hi / a   (a > 0)
      //                   X <= -R_hi / a   (a < 0)
      if (rest.hi == kInf) return Interval::All();
      return a > 0 ? Interval::AtLeast(-rest.hi / a)
                   : Interval::AtMost(-rest.hi / a);
    case CmpOp::kLt:
    case CmpOp::kLe:
      // a*X + R <= 0  =>  X <= -R_lo / a   (a > 0)
      //                   X >= -R_lo / a   (a < 0)
      if (rest.lo == -kInf) return Interval::All();
      return a > 0 ? Interval::AtMost(-rest.lo / a)
                   : Interval::AtLeast(-rest.lo / a);
    case CmpOp::kEq:
      // X = -R / a  ranges over the interval image.
      return Div(Neg(rest), Interval::Point(a));
    case CmpOp::kNe:
      return Interval::All();
  }
  return Interval::All();
}

namespace {

/// Degree-2 polynomial coefficients in at most one variable; the extractor
/// composes these bottom-up, failing on degree overflow or mixed variables.
struct QuadForm {
  std::optional<VarRef> var;
  double a = 0.0, b = 0.0, c = 0.0;

  bool CompatibleWith(const QuadForm& other) const {
    return !var || !other.var || *var == *other.var;
  }
};

std::optional<QuadForm> ExtractQuad(const ExprPtr& e) {
  switch (e->op()) {
    case ExprOp::kConst: {
      auto d = e->value().AsDouble();
      if (!d.ok()) return std::nullopt;
      QuadForm f;
      f.c = d.value();
      return f;
    }
    case ExprOp::kVar: {
      QuadForm f;
      f.var = e->var();
      f.b = 1.0;
      return f;
    }
    case ExprOp::kNeg: {
      auto f = ExtractQuad(e->children()[0]);
      if (!f) return std::nullopt;
      f->a = -f->a;
      f->b = -f->b;
      f->c = -f->c;
      return f;
    }
    case ExprOp::kAdd:
    case ExprOp::kSub: {
      auto l = ExtractQuad(e->children()[0]);
      auto r = ExtractQuad(e->children()[1]);
      if (!l || !r || !l->CompatibleWith(*r)) return std::nullopt;
      double sign = e->op() == ExprOp::kAdd ? 1.0 : -1.0;
      QuadForm f;
      f.var = l->var ? l->var : r->var;
      f.a = l->a + sign * r->a;
      f.b = l->b + sign * r->b;
      f.c = l->c + sign * r->c;
      return f;
    }
    case ExprOp::kMul: {
      auto l = ExtractQuad(e->children()[0]);
      auto r = ExtractQuad(e->children()[1]);
      if (!l || !r || !l->CompatibleWith(*r)) return std::nullopt;
      // Degree overflow: x^2 * x etc.
      if ((l->a != 0.0 && (r->a != 0.0 || r->b != 0.0)) ||
          (r->a != 0.0 && l->b != 0.0)) {
        return std::nullopt;
      }
      QuadForm f;
      f.var = l->var ? l->var : r->var;
      f.a = l->a * r->c + l->c * r->a + l->b * r->b;
      f.b = l->b * r->c + l->c * r->b;
      f.c = l->c * r->c;
      return f;
    }
    case ExprOp::kDiv: {
      auto l = ExtractQuad(e->children()[0]);
      auto r = ExtractQuad(e->children()[1]);
      if (!l || !r || r->var || r->c == 0.0) return std::nullopt;
      l->a /= r->c;
      l->b /= r->c;
      l->c /= r->c;
      return l;
    }
    case ExprOp::kFunc:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

std::optional<UnivariateQuadratic> ToUnivariateQuadratic(const ExprPtr& e) {
  auto f = ExtractQuad(e);
  if (!f || !f->var || f->a == 0.0) return std::nullopt;
  return UnivariateQuadratic{*f->var, f->a, f->b, f->c};
}

Interval Tighten2(const UnivariateQuadratic& q, CmpOp op,
                  const Interval& current) {
  // Normalize to q(x) >= 0 (strictness collapses: boundary points carry no
  // mass for continuous variables, and over-inclusion stays sound for
  // discrete ones — the sampler still checks the atoms).
  double a = q.a, b = q.b, c = q.c;
  if (op == CmpOp::kLt || op == CmpOp::kLe) {
    a = -a;
    b = -b;
    c = -c;
  } else if (op != CmpOp::kGt && op != CmpOp::kGe) {
    return current;  // Equality shapes are handled elsewhere.
  }

  double disc = b * b - 4.0 * a * c;
  if (a > 0.0) {
    if (disc <= 0.0) return current;  // Parabola nonnegative everywhere.
    double sqrt_disc = std::sqrt(disc);
    double r1 = (-b - sqrt_disc) / (2.0 * a);
    double r2 = (-b + sqrt_disc) / (2.0 * a);
    // Solution set: (-inf, r1] U [r2, inf). Intersect each branch with the
    // current interval and hull what survives.
    Interval left = current.Intersect(Interval::AtMost(r1));
    Interval right = current.Intersect(Interval::AtLeast(r2));
    return left.Hull(right);
  }
  // a < 0: solution is the segment between the roots (empty if disc < 0).
  if (disc < 0.0) return Interval::Empty();
  double sqrt_disc = std::sqrt(disc);
  // Note the root order flips for negative leading coefficient.
  double r1 = (-b + sqrt_disc) / (2.0 * a);
  double r2 = (-b - sqrt_disc) / (2.0 * a);
  return current.Intersect(Interval(std::min(r1, r2), std::max(r1, r2)));
}

ConsistencyResult CheckConsistency(const Condition& condition,
                                   const VariablePool& pool,
                                   const ConsistencyOptions& options) {
  ConsistencyResult result;
  if (condition.IsKnownFalse()) {
    result.verdict = ConsistencyVerdict::kInconsistent;
    return result;
  }

  // Seed bounds with distribution supports.
  for (const VarRef& v : condition.Variables()) {
    result.bounds[v] =
        options.use_distribution_support ? pool.Support(v) : Interval::All();
  }

  bool skipped_any = false;
  // Discrete equality bookkeeping: var -> pinned value.
  std::map<VarRef, double> pinned;
  // Disequalities recorded for conflict with pins.
  std::multimap<VarRef, double> excluded;

  struct LinearAtom {
    LinearForm form;
    CmpOp op;
  };
  std::vector<LinearAtom> linear_atoms;
  struct QuadraticAtom {
    UnivariateQuadratic quad;
    CmpOp op;
  };
  std::vector<QuadraticAtom> quadratic_atoms;
  struct IntervalAtom {
    ExprPtr diff;  // Atom is (diff op 0).
    CmpOp op;
  };
  std::vector<IntervalAtom> interval_atoms;

  for (const auto& atom : condition.atoms()) {
    if (atom.IsDeterministic()) {
      auto decided = atom.EvalDeterministic();
      if (decided.ok()) {
        if (!decided.value()) {
          result.verdict = ConsistencyVerdict::kInconsistent;
          return result;
        }
        continue;
      }
      skipped_any = true;  // Incomparable constants.
      continue;
    }

    // Identity X = X / X != X.
    if (atom.lhs()->Equals(*atom.rhs())) {
      if (atom.op() == CmpOp::kNe || atom.op() == CmpOp::kLt ||
          atom.op() == CmpOp::kGt) {
        result.verdict = ConsistencyVerdict::kInconsistent;
        return result;
      }
      continue;  // X = X, X <= X, X >= X: always true.
    }

    // (Var op Const) special handling for discrete pins / continuous
    // zero-mass equalities.
    CmpOp effective_op;
    auto vc = AsVarConst(atom, &effective_op);
    if (vc && (effective_op == CmpOp::kEq || effective_op == CmpOp::kNe)) {
      VarRef v = vc->first;
      double c = vc->second;
      if (IsContinuous(pool, v)) {
        // Rule 3 (§III-C): zero mass — treat equality as inconsistent,
        // disequality as true.
        if (effective_op == CmpOp::kEq) {
          result.verdict = ConsistencyVerdict::kInconsistent;
          return result;
        }
        continue;
      }
      if (effective_op == CmpOp::kEq) {
        auto it = pinned.find(v);
        if (it != pinned.end() && it->second != c) {
          result.verdict = ConsistencyVerdict::kInconsistent;  // Rule 2.
          return result;
        }
        pinned[v] = c;
        auto range = excluded.equal_range(v);
        for (auto e = range.first; e != range.second; ++e) {
          if (e->second == c) {
            result.verdict = ConsistencyVerdict::kInconsistent;
            return result;
          }
        }
        result.bounds[v] = result.bounds[v].Intersect(Interval::Point(c));
        if (result.bounds[v].IsEmpty()) {
          result.verdict = ConsistencyVerdict::kInconsistent;
          return result;
        }
      } else {
        auto it = pinned.find(v);
        if (it != pinned.end() && it->second == c) {
          result.verdict = ConsistencyVerdict::kInconsistent;
          return result;
        }
        excluded.emplace(v, c);
      }
      continue;
    }

    // General equality involving continuous variables: zero mass.
    if (atom.op() == CmpOp::kEq || atom.op() == CmpOp::kNe) {
      bool any_continuous = false;
      for (const VarRef& v : atom.Variables()) {
        any_continuous = any_continuous || IsContinuous(pool, v);
      }
      if (any_continuous) {
        if (atom.op() == CmpOp::kEq) {
          result.verdict = ConsistencyVerdict::kInconsistent;
          return result;
        }
        continue;  // NE over continuous: probability 1, ignore.
      }
      skipped_any = true;  // Discrete-vs-discrete (dis)equality: not handled.
      continue;
    }

    ExprPtr diff = atom.NormalizedDiff();
    int degree = diff->PolynomialDegree();
    if (degree == 1) {
      auto form = diff->ToLinearForm();
      if (form.ok()) {
        linear_atoms.push_back({std::move(form).value(), atom.op()});
        continue;
      }
    }
    if (degree == 2) {
      // tighten2: univariate quadratics solve exactly via the quadratic
      // formula ("all polynomial equations may be handled using a similar
      // ... enumeration of coefficients").
      if (auto quad = ToUnivariateQuadratic(diff)) {
        quadratic_atoms.push_back({*quad, atom.op()});
        continue;
      }
    }
    // Remaining nonlinear (or non-polynomial) inequality: no tightening
    // defined (Alg. 3.2 line 11 "skip E"), but interval evaluation can
    // still refute it under the final bounds.
    interval_atoms.push_back({std::move(diff), atom.op()});
    skipped_any = true;
  }

  // Fixpoint propagation over the linear atoms (Alg. 3.2 lines 6-12).
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    bool changed = false;
    for (const auto& la : linear_atoms) {
      for (const auto& [v, coef] : la.form.coefficients) {
        (void)coef;
        Interval implied = Tighten1(la.form, la.op, v, result.bounds);
        Interval current = result.bounds.count(v) ? result.bounds[v]
                                                  : Interval::All();
        Interval next = current.Intersect(implied);
        if (HoldsNoReal(next)) {
          result.verdict = ConsistencyVerdict::kInconsistent;
          return result;
        }
        bool improved =
            (next.lo > current.lo + options.min_progress ||
             next.hi < current.hi - options.min_progress) ||
            (std::isinf(current.lo) && !std::isinf(next.lo)) ||
            (std::isinf(current.hi) && !std::isinf(next.hi));
        if (improved) {
          result.bounds[v] = next;
          changed = true;
        }
      }
    }
    for (const auto& qa : quadratic_atoms) {
      const VarRef v = qa.quad.var;
      Interval current =
          result.bounds.count(v) ? result.bounds[v] : Interval::All();
      Interval next = Tighten2(qa.quad, qa.op, current);
      if (HoldsNoReal(next)) {
        result.verdict = ConsistencyVerdict::kInconsistent;
        return result;
      }
      bool improved =
          (next.lo > current.lo + options.min_progress ||
           next.hi < current.hi - options.min_progress) ||
          (std::isinf(current.lo) && !std::isinf(next.lo)) ||
          (std::isinf(current.hi) && !std::isinf(next.hi));
      if (improved) {
        result.bounds[v] = next;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Interval refutation of the skipped nonlinear atoms. EvalInterval
  // returns an enclosure of the true range, so an enclosure that cannot
  // satisfy the comparison is a sound inconsistency proof.
  auto lookup = [&](VarRef v) {
    auto it = result.bounds.find(v);
    return it == result.bounds.end() ? Interval::All() : it->second;
  };
  for (const auto& ia : interval_atoms) {
    Interval range = ia.diff->EvalInterval(lookup);
    if (range.IsEmpty()) {
      result.verdict = ConsistencyVerdict::kInconsistent;
      return result;
    }
    bool refuted = false;
    switch (ia.op) {
      case CmpOp::kGt:
        refuted = range.hi <= 0.0;
        break;
      case CmpOp::kGe:
        refuted = range.hi < 0.0;
        break;
      case CmpOp::kLt:
        refuted = range.lo >= 0.0;
        break;
      case CmpOp::kLe:
        refuted = range.lo > 0.0;
        break;
      default:
        break;
    }
    if (refuted) {
      result.verdict = ConsistencyVerdict::kInconsistent;
      return result;
    }
  }

  // Drop entries that carry no information beyond "anything".
  for (auto it = result.bounds.begin(); it != result.bounds.end();) {
    if (it->second.IsAll()) {
      it = result.bounds.erase(it);
    } else {
      ++it;
    }
  }

  result.verdict = skipped_any ? ConsistencyVerdict::kWeaklyConsistent
                               : ConsistencyVerdict::kConsistent;
  return result;
}

}  // namespace pip
