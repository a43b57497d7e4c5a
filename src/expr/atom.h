/// \file atom.h
/// \brief Constraint atoms: comparisons between equations.
///
/// C-table local conditions are boolean combinations of atomic conditions
/// "constructed from variables and constants using =, <, <=, !=, >, >="
/// (paper §II-A). PIP generalizes the sides to arbitrary equations
/// ("arbitrary inequalities of random variables", §III-B).

#ifndef PIP_EXPR_ATOM_H_
#define PIP_EXPR_ATOM_H_

#include <string>

#include "src/expr/expr.h"

namespace pip {

/// Comparison operator of an atom.
enum class CmpOp { kLt, kLe, kGt, kGe, kEq, kNe };

const char* CmpOpName(CmpOp op);
/// The operator c such that (a c b) == !(a op b).
CmpOp NegateCmp(CmpOp op);
/// The operator c such that (b c a) == (a op b).
CmpOp FlipCmp(CmpOp op);
/// Decides (a op b) from cmp, the sign of a three-way comparison of a and
/// b (e.g. Value::Compare). The one comparison rule of the engine: atoms,
/// selection and the sample-first operators all decide through it.
bool DecideCmp(CmpOp op, int cmp);

/// \brief One atomic condition: lhs op rhs.
class ConstraintAtom {
 public:
  ConstraintAtom(ExprPtr lhs, CmpOp op, ExprPtr rhs)
      : lhs_(std::move(lhs)),
        op_(op),
        rhs_(std::move(rhs)),
        numeric_(NumericSides(*lhs_, *rhs_)) {}

  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }
  CmpOp op() const { return op_; }

  /// True when neither side mentions a random variable; such atoms can be
  /// decided immediately during relational evaluation.
  bool IsDeterministic() const {
    return lhs_->IsDeterministic() && rhs_->IsDeterministic();
  }

  /// Decides a deterministic atom. TypeMismatch when sides are
  /// incomparable under Value ordering rules.
  StatusOr<bool> EvalDeterministic() const;

  /// Truth value under a complete assignment of the mentioned variables.
  /// When neither side is a bool, string or null constant (and not both
  /// are constants), the sides are evaluated with Expr::TryEvalNumber and
  /// compared in double by Value::Compare's numeric rule, so NaN compares
  /// equal to everything. Any failure, and every other shape, falls back
  /// to comparing the Values from Expr::Eval, which decides all errors.
  StatusOr<bool> Eval(const Assignment& a) const;

  void CollectVariables(VarSet* out) const {
    lhs_->CollectVariables(out);
    rhs_->CollectVariables(out);
  }
  VarSet Variables() const {
    VarSet s;
    CollectVariables(&s);
    return s;
  }

  /// The atom with the complementary operator (logical negation).
  ConstraintAtom Negated() const {
    return ConstraintAtom(lhs_, NegateCmp(op_), rhs_);
  }

  /// Difference lhs - rhs as an equation; the atom is equivalent to
  /// (diff op 0). Only meaningful for numeric sides.
  ExprPtr NormalizedDiff() const { return Expr::Sub(lhs_, rhs_); }

  bool Equals(const ConstraintAtom& o) const {
    return op_ == o.op_ && lhs_->Equals(*o.lhs_) && rhs_->Equals(*o.rhs_);
  }
  size_t Hash() const;

  std::string ToString() const;

 private:
  /// True when both sides compare as numbers under Value::Compare: a side
  /// that is a bool, string or null constant compares by type tag, and
  /// two int constants compare as int64, not as double.
  static bool NumericSides(const Expr& lhs, const Expr& rhs) {
    auto numeric = [](const Expr& e) {
      return !e.IsConstant() || e.value().is_numeric();
    };
    return numeric(lhs) && numeric(rhs) &&
           !(lhs.IsConstant() && rhs.IsConstant());
  }

  ExprPtr lhs_;
  CmpOp op_;
  ExprPtr rhs_;
  bool numeric_;
};

// Sugar for building atoms from expressions.
inline ConstraintAtom operator<(ExprPtr a, ExprPtr b) {
  return ConstraintAtom(std::move(a), CmpOp::kLt, std::move(b));
}
inline ConstraintAtom operator<=(ExprPtr a, ExprPtr b) {
  return ConstraintAtom(std::move(a), CmpOp::kLe, std::move(b));
}
inline ConstraintAtom operator>(ExprPtr a, ExprPtr b) {
  return ConstraintAtom(std::move(a), CmpOp::kGt, std::move(b));
}
inline ConstraintAtom operator>=(ExprPtr a, ExprPtr b) {
  return ConstraintAtom(std::move(a), CmpOp::kGe, std::move(b));
}
inline ConstraintAtom operator==(ExprPtr a, ExprPtr b) {
  return ConstraintAtom(std::move(a), CmpOp::kEq, std::move(b));
}
inline ConstraintAtom operator!=(ExprPtr a, ExprPtr b) {
  return ConstraintAtom(std::move(a), CmpOp::kNe, std::move(b));
}

}  // namespace pip

#endif  // PIP_EXPR_ATOM_H_
