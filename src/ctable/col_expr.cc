#include "src/ctable/col_expr.h"

#include <sstream>

namespace pip {

ColExprPtr ColExpr::Make(Kind kind, std::vector<ColExprPtr> children) {
  auto e = std::shared_ptr<ColExpr>(new ColExpr());
  e->kind_ = kind;
  e->children_ = std::move(children);
  return e;
}

ColExprPtr ColExpr::Column(std::string name) {
  auto e = std::shared_ptr<ColExpr>(new ColExpr());
  e->kind_ = Kind::kColumn;
  e->column_ = std::move(name);
  return e;
}

ColExprPtr ColExpr::Literal(Value v) {
  auto e = std::shared_ptr<ColExpr>(new ColExpr());
  e->kind_ = Kind::kLiteral;
  e->embedded_ = Expr::Constant(std::move(v));
  return e;
}

ColExprPtr ColExpr::Embed(ExprPtr expr) {
  auto e = std::shared_ptr<ColExpr>(new ColExpr());
  e->kind_ = Kind::kEmbed;
  e->embedded_ = std::move(expr);
  return e;
}

ColExprPtr ColExpr::Distribution(std::string class_name,
                                 std::vector<double> params) {
  auto e = std::shared_ptr<ColExpr>(new ColExpr());
  e->kind_ = Kind::kDistribution;
  e->column_ = std::move(class_name);
  e->params_ = std::move(params);
  return e;
}

ColExprPtr ColExpr::Add(ColExprPtr l, ColExprPtr r) {
  return Make(Kind::kAdd, {std::move(l), std::move(r)});
}
ColExprPtr ColExpr::Sub(ColExprPtr l, ColExprPtr r) {
  return Make(Kind::kSub, {std::move(l), std::move(r)});
}
ColExprPtr ColExpr::Mul(ColExprPtr l, ColExprPtr r) {
  return Make(Kind::kMul, {std::move(l), std::move(r)});
}
ColExprPtr ColExpr::Div(ColExprPtr l, ColExprPtr r) {
  return Make(Kind::kDiv, {std::move(l), std::move(r)});
}
ColExprPtr ColExpr::Neg(ColExprPtr x) {
  return Make(Kind::kNeg, {std::move(x)});
}

ColExprPtr ColExpr::Func(FuncKind f, ColExprPtr a) {
  auto e = std::shared_ptr<ColExpr>(new ColExpr());
  e->kind_ = Kind::kFunc;
  e->func_ = f;
  e->children_ = {std::move(a)};
  return e;
}

ColExprPtr ColExpr::Func(FuncKind f, ColExprPtr a, ColExprPtr b) {
  auto e = std::shared_ptr<ColExpr>(new ColExpr());
  e->kind_ = Kind::kFunc;
  e->func_ = f;
  e->children_ = {std::move(a), std::move(b)};
  return e;
}

StatusOr<ExprPtr> ColExpr::Bind(const Schema& schema,
                                const std::vector<ExprPtr>& cells) const {
  return ResolvedColExpr(*this, schema).Bind(cells);
}

void ColExpr::CollectColumns(std::vector<std::string>* out) const {
  if (kind_ == Kind::kColumn) {
    out->push_back(column_);
    return;
  }
  for (const auto& c : children_) c->CollectColumns(out);
}

std::string ColExpr::ToString() const {
  switch (kind_) {
    case Kind::kColumn:
    case Kind::kDistribution:  // Its class name.
      return column_;
    case Kind::kLiteral:
      return literal().ToString();
    case Kind::kEmbed:
      return embedded_->ToString();
    case Kind::kNeg:
      return "-(" + children_[0]->ToString() + ")";
    case Kind::kAdd:
      return "(" + children_[0]->ToString() + " + " + children_[1]->ToString() +
             ")";
    case Kind::kSub:
      return "(" + children_[0]->ToString() + " - " + children_[1]->ToString() +
             ")";
    case Kind::kMul:
      return "(" + children_[0]->ToString() + " * " + children_[1]->ToString() +
             ")";
    case Kind::kDiv:
      return "(" + children_[0]->ToString() + " / " + children_[1]->ToString() +
             ")";
    case Kind::kFunc: {
      std::string s = std::string(FuncKindName(func_)) + "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i) s += ", ";
        s += children_[i]->ToString();
      }
      return s + ")";
    }
  }
  return "?";
}

ResolvedColExpr::ResolvedColExpr(const ColExpr& expr, const Schema& schema)
    : expr_(&expr) {
  std::vector<std::string> names;
  expr.CollectColumns(&names);  // The same order as BindNode visits them.
  columns_.reserve(names.size());
  for (const auto& name : names) {
    StatusOr<size_t> idx = schema.IndexOf(name);
    if (!idx.ok()) {
      unknown_ = idx.status();
      break;
    }
    columns_.push_back(idx.value());
  }
  switch (expr.kind()) {
    case ColExpr::Kind::kColumn:
      column_leaf_ = unknown_.ok();
      break;
    case ColExpr::Kind::kLiteral:
    case ColExpr::Kind::kEmbed:
      fixed_leaf_ = &expr.embedded();
      break;
    default:
      break;
  }
}

StatusOr<ExprPtr> ResolvedColExpr::Bind(
    const std::vector<ExprPtr>& cells) const {
  // Binding only builds equations, so failing before the walk returns
  // what failing at the unknown column would.
  if (!unknown_.ok()) return unknown_;
  size_t next_column = 0;
  return BindNode(*expr_, cells, &next_column);
}

StatusOr<ExprPtr> ResolvedColExpr::BindNode(const ColExpr& e,
                                            const std::vector<ExprPtr>& cells,
                                            size_t* next_column) const {
  using Kind = ColExpr::Kind;
  switch (e.kind()) {
    case Kind::kColumn:
      return cells[columns_[(*next_column)++]];
    case Kind::kLiteral:
    case Kind::kEmbed:
      return e.embedded();
    default:
      break;
  }
  std::vector<ExprPtr> bound;
  bound.reserve(e.children().size());
  for (const auto& c : e.children()) {
    PIP_ASSIGN_OR_RETURN(ExprPtr b, BindNode(*c, cells, next_column));
    bound.push_back(std::move(b));
  }
  switch (e.kind()) {
    case Kind::kAdd:
      return Expr::Add(bound[0], bound[1]);
    case Kind::kSub:
      return Expr::Sub(bound[0], bound[1]);
    case Kind::kMul:
      return Expr::Mul(bound[0], bound[1]);
    case Kind::kDiv:
      return Expr::Div(bound[0], bound[1]);
    case Kind::kNeg:
      return Expr::Neg(bound[0]);
    case Kind::kFunc:
      return bound.size() == 1 ? Expr::Func(e.func(), bound[0])
                               : Expr::Func(e.func(), bound[0], bound[1]);
    default:
      return Status::Internal("unexpected ColExpr kind");
  }
}

StatusOr<ConstraintAtom> ColAtom::Bind(
    const Schema& schema, const std::vector<ExprPtr>& cells) const {
  PIP_ASSIGN_OR_RETURN(ExprPtr l, lhs->Bind(schema, cells));
  PIP_ASSIGN_OR_RETURN(ExprPtr r, rhs->Bind(schema, cells));
  return ConstraintAtom(std::move(l), op, std::move(r));
}

std::string ColAtom::ToString() const {
  return lhs->ToString() + " " + CmpOpName(op) + " " + rhs->ToString();
}

std::string ColPredicate::ToString() const {
  if (atoms_.empty()) return "TRUE";
  std::ostringstream os;
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i) os << " AND ";
    os << atoms_[i].ToString();
  }
  return os.str();
}

}  // namespace pip
