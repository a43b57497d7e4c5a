/// \file expr.h
/// \brief The equation datatype: symbolic arithmetic over random variables.
///
/// "PIP employs the equation datatype, a flattened parse tree of an
/// arithmetic expression, where leaves are random variables or constants"
/// (paper §III-B). Every c-table cell is an Expr; deterministic cells are
/// constant leaves (of any Value type), probabilistic cells mention VarRefs.
///
/// Nodes are immutable and shared (ExprPtr). Builders constant-fold where
/// both operands are known. Analyses provided for the rest of the engine:
///   * variable collection (independence decomposition, Alg. 4.3 line 5),
///   * polynomial degree (dispatching tighten_N in Alg. 3.2),
///   * linear normal form a.X + b.Y + ... + c (tighten1),
///   * interval evaluation under a bounds map (nonlinear consistency).

#ifndef PIP_EXPR_EXPR_H_
#define PIP_EXPR_EXPR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/interval.h"
#include "src/common/status.h"
#include "src/expr/assignment.h"
#include "src/expr/variable.h"
#include "src/types/value.h"

namespace pip {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Node kind of an equation.
enum class ExprOp {
  kConst,  ///< Leaf: a Value.
  kVar,    ///< Leaf: a random variable component.
  kAdd,
  kSub,
  kMul,
  kDiv,
  kNeg,
  kFunc,  ///< Unary/binary function application (exp, log, min, ...).
};

/// Supported function leaves beyond field arithmetic. These keep the
/// equation datatype expressive enough for the paper's workloads (e.g. the
/// exponential danger decay of the iceberg query) while staying
/// non-recursive.
enum class FuncKind { kExp, kLog, kSqrt, kAbs, kMin, kMax, kPow };

const char* FuncKindName(FuncKind f);

/// \brief Coefficients of a linear expression: sum_i coef[v_i]*v_i + constant.
struct LinearForm {
  std::map<VarRef, double> coefficients;
  double constant = 0.0;
};

/// \brief An immutable symbolic expression node.
class Expr {
 public:
  // -- Builders (constant-folding) ------------------------------------

  static ExprPtr Constant(Value v);
  static ExprPtr Constant(double v) { return Constant(Value(v)); }
  static ExprPtr ConstantInt(int64_t v) { return Constant(Value(v)); }
  static ExprPtr String(std::string s) { return Constant(Value(std::move(s))); }
  static ExprPtr Var(VarRef v);
  static ExprPtr Add(ExprPtr l, ExprPtr r);
  static ExprPtr Sub(ExprPtr l, ExprPtr r);
  static ExprPtr Mul(ExprPtr l, ExprPtr r);
  static ExprPtr Div(ExprPtr l, ExprPtr r);
  static ExprPtr Neg(ExprPtr e);
  static ExprPtr Func(FuncKind f, ExprPtr arg);
  static ExprPtr Func(FuncKind f, ExprPtr a, ExprPtr b);

  // -- Inspection ------------------------------------------------------

  ExprOp op() const { return op_; }
  /// Constant payload; valid only when op() == kConst.
  const Value& value() const { return value_; }
  /// Variable payload; valid only when op() == kVar.
  VarRef var() const { return var_; }
  FuncKind func() const { return func_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  bool IsConstant() const { return op_ == ExprOp::kConst; }
  /// True when the expression mentions no random variables (it may still
  /// be a non-leaf tree of constants if built manually).
  bool IsDeterministic() const;

  /// Inserts every variable mentioned into `out`.
  void CollectVariables(VarSet* out) const;
  VarSet Variables() const;

  // -- Evaluation -------------------------------------------------------

  /// Evaluates under a (total, for the mentioned variables) assignment.
  /// Errors: TypeMismatch on non-numeric arithmetic, InvalidArgument on a
  /// variable missing from the assignment, OutOfRange on log of a
  /// non-positive number etc.
  StatusOr<Value> Eval(const Assignment& a) const;

  /// Eval + AsDouble, computed without building a Value: the numeric path
  /// (TryEvalNumber) recurses in double and returns the same bits as Eval
  /// would. On any error or non-numeric constant it falls back to Eval,
  /// which stays the reference for every error status and message.
  StatusOr<double> EvalDouble(const Assignment& a) const;

  /// The numeric path of EvalDouble: stores the value and returns true
  /// when every leaf is a number, a bool (read as 0/1) or an assigned
  /// variable and no operation fails; returns false otherwise, without
  /// saying why. The Monte Carlo loops call this once per attempt.
  bool TryEvalNumber(const Assignment& a, double* out) const;

  /// Interval enclosure of the expression's range when each variable v
  /// ranges over bounds(v) (missing entries mean unbounded). Sound but not
  /// tight for repeated variables.
  Interval EvalInterval(
      const std::function<Interval(VarRef)>& bounds) const;

  // -- Analyses ----------------------------------------------------------

  /// Polynomial degree in the random variables: 0 for deterministic, 1 for
  /// linear, etc. Returns -1 when not polynomial (function nodes, division
  /// by a variable expression).
  int PolynomialDegree() const;

  /// Extracts the linear normal form when PolynomialDegree() <= 1 and all
  /// leaves are numeric; Status error otherwise.
  StatusOr<LinearForm> ToLinearForm() const;

  /// Partial evaluation: replaces every variable present in `a` by its
  /// value and constant-folds. Variables absent from `a` stay symbolic.
  /// `self` must be the shared_ptr to this node (enables sharing of
  /// untouched subtrees).
  static ExprPtr Substitute(const ExprPtr& self, const Assignment& a);

  /// Structural equality (used by distinct / DNF grouping).
  bool Equals(const Expr& other) const;
  size_t Hash() const;

  std::string ToString() const;

 private:
  Expr() = default;

  ExprOp op_ = ExprOp::kConst;
  Value value_;
  VarRef var_;
  FuncKind func_ = FuncKind::kExp;
  std::vector<ExprPtr> children_;
};

std::ostream& operator<<(std::ostream& os, const Expr& e);

// Operator sugar for building equations fluently in user code / tests.
inline ExprPtr operator+(ExprPtr a, ExprPtr b) { return Expr::Add(a, b); }
inline ExprPtr operator-(ExprPtr a, ExprPtr b) { return Expr::Sub(a, b); }
inline ExprPtr operator*(ExprPtr a, ExprPtr b) { return Expr::Mul(a, b); }
inline ExprPtr operator/(ExprPtr a, ExprPtr b) { return Expr::Div(a, b); }
inline ExprPtr operator-(ExprPtr a) { return Expr::Neg(a); }

}  // namespace pip

#endif  // PIP_EXPR_EXPR_H_
