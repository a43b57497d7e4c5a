/// \file col_expr.h
/// \brief Column-level expressions: the plan language of queries.
///
/// Relational operators in the paper substitute row fields into predicates
/// ("psi[r] denotes psi with each reference to a column A of R replaced by
/// r.A", Fig. 1). A ColExpr is exactly such a column-referencing
/// expression: binding it against a c-table row substitutes the row's
/// (possibly symbolic) cells and yields an equation over random variables.
/// Selection predicates are conjunctions of ColAtoms.

#ifndef PIP_CTABLE_COL_EXPR_H_
#define PIP_CTABLE_COL_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/expr/atom.h"
#include "src/expr/expr.h"
#include "src/types/schema.h"

namespace pip {

class ColExpr;
using ColExprPtr = std::shared_ptr<const ColExpr>;

/// \brief An expression over column references, literals and embedded
/// equations.
class ColExpr {
 public:
  enum class Kind { kColumn, kLiteral, kEmbed, kDistribution,
                    kAdd, kSub, kMul, kDiv, kNeg, kFunc };

  // -- Builders ---------------------------------------------------------

  /// Reference to a column by name.
  static ColExprPtr Column(std::string name);
  /// A constant literal.
  static ColExprPtr Literal(Value v);
  static ColExprPtr Literal(double v) { return Literal(Value(v)); }
  static ColExprPtr Literal(int64_t v) { return Literal(Value(v)); }
  static ColExprPtr Literal(const char* v) { return Literal(Value(v)); }
  /// Embeds an already-built equation (e.g. a freshly created random
  /// variable introduced by the query's target clause).
  static ColExprPtr Embed(ExprPtr e);
  /// A distribution constructor with no variable yet: class name (column())
  /// and constant parameters. SQL replaces it by an Embed before binding.
  static ColExprPtr Distribution(std::string class_name,
                                 std::vector<double> params);
  static ColExprPtr Add(ColExprPtr l, ColExprPtr r);
  static ColExprPtr Sub(ColExprPtr l, ColExprPtr r);
  static ColExprPtr Mul(ColExprPtr l, ColExprPtr r);
  static ColExprPtr Div(ColExprPtr l, ColExprPtr r);
  static ColExprPtr Neg(ColExprPtr e);
  static ColExprPtr Func(FuncKind f, ColExprPtr a);
  static ColExprPtr Func(FuncKind f, ColExprPtr a, ColExprPtr b);

  Kind kind() const { return kind_; }
  const std::string& column() const { return column_; }
  const std::vector<double>& params() const { return params_; }
  const Value& literal() const { return embedded_->value(); }
  const ExprPtr& embedded() const { return embedded_; }
  FuncKind func() const { return func_; }
  const std::vector<ColExprPtr>& children() const { return children_; }

  /// Substitutes the row's cells for column references, producing an
  /// equation. NotFound if a referenced column is missing from the schema.
  /// Binding many rows of one schema: see ResolvedColExpr.
  StatusOr<ExprPtr> Bind(const Schema& schema,
                         const std::vector<ExprPtr>& cells) const;

  /// Column names referenced (transitively).
  void CollectColumns(std::vector<std::string>* out) const;

  std::string ToString() const;

 private:
  ColExpr() = default;

  static ColExprPtr Make(Kind kind, std::vector<ColExprPtr> children);

  Kind kind_ = Kind::kLiteral;
  std::string column_;  // kColumn's name, kDistribution's class.
  std::vector<double> params_;
  /// kEmbed's equation, or kLiteral's constant: built once, at
  /// construction, and shared by every row it binds into (Expr is
  /// immutable).
  ExprPtr embedded_;
  FuncKind func_ = FuncKind::kExp;
  std::vector<ColExprPtr> children_;
};

/// \brief A ColExpr with its column references looked up in one schema
/// once, so that binding it to many rows of that schema searches no names
/// per row. ColExpr::Bind is this class used for a single row.
///
/// The ColExpr must outlive the ResolvedColExpr.
class ResolvedColExpr {
 public:
  ResolvedColExpr(const ColExpr& expr, const Schema& schema);

  /// ColExpr::Bind(schema, cells): the same equation, or, for an unknown
  /// column, the same NotFound (the first one Bind's left-to-right walk
  /// reaches).
  StatusOr<ExprPtr> Bind(const std::vector<ExprPtr>& cells) const;

  /// What Bind returns without building anything: the row's cell for a
  /// bare known column, the shared constant of a literal, the equation of
  /// an embed; nullptr for every other expression.
  const ExprPtr* Leaf(const std::vector<ExprPtr>& cells) const {
    return column_leaf_ ? &cells[columns_[0]] : fixed_leaf_;
  }

 private:
  StatusOr<ExprPtr> BindNode(const ColExpr& e,
                             const std::vector<ExprPtr>& cells,
                             size_t* next_column) const;

  const ColExpr* expr_;
  /// Schema index of each column reference, in Bind's visiting order.
  std::vector<size_t> columns_;
  /// The first unknown column's NotFound, or OK.
  Status unknown_;
  /// Leaf's answer: a bare known column, or a literal's or embed's
  /// equation (else nullptr).
  bool column_leaf_ = false;
  const ExprPtr* fixed_leaf_ = nullptr;
};

/// \brief A named projection/map target.
struct NamedColExpr {
  std::string name;
  ColExprPtr expr;
};

/// \brief One comparison between two column expressions.
struct ColAtom {
  ColExprPtr lhs;
  CmpOp op;
  ColExprPtr rhs;

  /// Binds both sides against a row, yielding a constraint atom.
  StatusOr<ConstraintAtom> Bind(const Schema& schema,
                                const std::vector<ExprPtr>& cells) const;

  std::string ToString() const;
};

/// \brief A conjunction of column-level comparisons (a WHERE clause).
class ColPredicate {
 public:
  ColPredicate() = default;
  ColPredicate(std::initializer_list<ColAtom> atoms) : atoms_(atoms) {}

  ColPredicate& And(ColExprPtr lhs, CmpOp op, ColExprPtr rhs) {
    atoms_.push_back({std::move(lhs), op, std::move(rhs)});
    return *this;
  }
  ColPredicate& And(ColAtom atom) {
    atoms_.push_back(std::move(atom));
    return *this;
  }

  const std::vector<ColAtom>& atoms() const { return atoms_; }
  bool empty() const { return atoms_.empty(); }

  std::string ToString() const;

 private:
  std::vector<ColAtom> atoms_;
};

// Sugar for plan construction.
inline ColExprPtr operator+(ColExprPtr a, ColExprPtr b) {
  return ColExpr::Add(std::move(a), std::move(b));
}
inline ColExprPtr operator-(ColExprPtr a, ColExprPtr b) {
  return ColExpr::Sub(std::move(a), std::move(b));
}
inline ColExprPtr operator*(ColExprPtr a, ColExprPtr b) {
  return ColExpr::Mul(std::move(a), std::move(b));
}
inline ColExprPtr operator/(ColExprPtr a, ColExprPtr b) {
  return ColExpr::Div(std::move(a), std::move(b));
}
inline ColAtom operator<(ColExprPtr a, ColExprPtr b) {
  return {std::move(a), CmpOp::kLt, std::move(b)};
}
inline ColAtom operator<=(ColExprPtr a, ColExprPtr b) {
  return {std::move(a), CmpOp::kLe, std::move(b)};
}
inline ColAtom operator>(ColExprPtr a, ColExprPtr b) {
  return {std::move(a), CmpOp::kGt, std::move(b)};
}
inline ColAtom operator>=(ColExprPtr a, ColExprPtr b) {
  return {std::move(a), CmpOp::kGe, std::move(b)};
}
inline ColAtom operator==(ColExprPtr a, ColExprPtr b) {
  return {std::move(a), CmpOp::kEq, std::move(b)};
}
inline ColAtom operator!=(ColExprPtr a, ColExprPtr b) {
  return {std::move(a), CmpOp::kNe, std::move(b)};
}

}  // namespace pip

#endif  // PIP_CTABLE_COL_EXPR_H_
