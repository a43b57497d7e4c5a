#include "src/expr/expr.h"

#include <cmath>
#include <sstream>

namespace pip {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

size_t HashCombine(size_t h, size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

bool BothNumericConstants(const ExprPtr& l, const ExprPtr& r) {
  return l->IsConstant() && r->IsConstant() && l->value().is_numeric() &&
         r->value().is_numeric();
}

ExprPtr FoldBinary(ExprOp op, const ExprPtr& l, const ExprPtr& r) {
  double a = l->value().AsDouble().value();
  double b = r->value().AsDouble().value();
  double out = 0;
  switch (op) {
    case ExprOp::kAdd:
      out = a + b;
      break;
    case ExprOp::kSub:
      out = a - b;
      break;
    case ExprOp::kMul:
      out = a * b;
      break;
    case ExprOp::kDiv:
      if (b == 0.0) return nullptr;  // Keep symbolic; Eval will report.
      out = a / b;
      break;
    default:
      return nullptr;
  }
  return Expr::Constant(out);
}

}  // namespace

const char* FuncKindName(FuncKind f) {
  switch (f) {
    case FuncKind::kExp:
      return "exp";
    case FuncKind::kLog:
      return "log";
    case FuncKind::kSqrt:
      return "sqrt";
    case FuncKind::kAbs:
      return "abs";
    case FuncKind::kMin:
      return "min";
    case FuncKind::kMax:
      return "max";
    case FuncKind::kPow:
      return "pow";
  }
  return "?";
}

ExprPtr Expr::Constant(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kConst;
  e->value_ = std::move(v);
  return e;
}

ExprPtr Expr::Var(VarRef v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kVar;
  e->var_ = v;
  return e;
}

ExprPtr Expr::Add(ExprPtr l, ExprPtr r) {
  if (BothNumericConstants(l, r)) {
    if (auto folded = FoldBinary(ExprOp::kAdd, l, r)) return folded;
  }
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kAdd;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Sub(ExprPtr l, ExprPtr r) {
  if (BothNumericConstants(l, r)) {
    if (auto folded = FoldBinary(ExprOp::kSub, l, r)) return folded;
  }
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kSub;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Mul(ExprPtr l, ExprPtr r) {
  if (BothNumericConstants(l, r)) {
    if (auto folded = FoldBinary(ExprOp::kMul, l, r)) return folded;
  }
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kMul;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Div(ExprPtr l, ExprPtr r) {
  if (BothNumericConstants(l, r)) {
    if (auto folded = FoldBinary(ExprOp::kDiv, l, r)) return folded;
  }
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kDiv;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Neg(ExprPtr x) {
  if (x->IsConstant() && x->value().is_numeric()) {
    return Constant(-x->value().AsDouble().value());
  }
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kNeg;
  e->children_ = {std::move(x)};
  return e;
}

ExprPtr Expr::Func(FuncKind f, ExprPtr arg) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kFunc;
  e->func_ = f;
  e->children_ = {std::move(arg)};
  // Fold constant applications when they evaluate cleanly (domain errors
  // stay symbolic so Eval can report them in context).
  if (e->children_[0]->IsConstant() && e->children_[0]->value().is_numeric()) {
    auto folded = e->Eval(Assignment());
    if (folded.ok()) return Constant(std::move(folded).value());
  }
  return e;
}

ExprPtr Expr::Func(FuncKind f, ExprPtr a, ExprPtr b) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kFunc;
  e->func_ = f;
  e->children_ = {std::move(a), std::move(b)};
  if (e->children_[0]->IsConstant() && e->children_[1]->IsConstant() &&
      e->children_[0]->value().is_numeric() &&
      e->children_[1]->value().is_numeric()) {
    auto folded = e->Eval(Assignment());
    if (folded.ok()) return Constant(std::move(folded).value());
  }
  return e;
}

bool Expr::IsDeterministic() const {
  if (op_ == ExprOp::kVar) return false;
  for (const auto& c : children_) {
    if (!c->IsDeterministic()) return false;
  }
  return true;
}

void Expr::CollectVariables(VarSet* out) const {
  if (op_ == ExprOp::kVar) {
    out->insert(var_);
    return;
  }
  for (const auto& c : children_) c->CollectVariables(out);
}

VarSet Expr::Variables() const {
  VarSet out;
  CollectVariables(&out);
  return out;
}

StatusOr<Value> Expr::Eval(const Assignment& a) const {
  switch (op_) {
    case ExprOp::kConst:
      return value_;
    case ExprOp::kVar: {
      auto v = a.Get(var_);
      if (!v) {
        return Status::InvalidArgument("variable " + var_.ToString() +
                                       " has no assigned value");
      }
      return Value(*v);
    }
    case ExprOp::kNeg: {
      PIP_ASSIGN_OR_RETURN(Value c, children_[0]->Eval(a));
      PIP_ASSIGN_OR_RETURN(double d, c.AsDouble());
      return Value(-d);
    }
    case ExprOp::kAdd:
    case ExprOp::kSub:
    case ExprOp::kMul:
    case ExprOp::kDiv: {
      PIP_ASSIGN_OR_RETURN(Value lv, children_[0]->Eval(a));
      PIP_ASSIGN_OR_RETURN(Value rv, children_[1]->Eval(a));
      PIP_ASSIGN_OR_RETURN(double l, lv.AsDouble());
      PIP_ASSIGN_OR_RETURN(double r, rv.AsDouble());
      switch (op_) {
        case ExprOp::kAdd:
          return Value(l + r);
        case ExprOp::kSub:
          return Value(l - r);
        case ExprOp::kMul:
          return Value(l * r);
        default:
          if (r == 0.0) return Status::OutOfRange("division by zero");
          return Value(l / r);
      }
    }
    case ExprOp::kFunc: {
      PIP_ASSIGN_OR_RETURN(Value av, children_[0]->Eval(a));
      PIP_ASSIGN_OR_RETURN(double x, av.AsDouble());
      switch (func_) {
        case FuncKind::kExp:
          return Value(std::exp(x));
        case FuncKind::kLog:
          if (x <= 0.0) return Status::OutOfRange("log of non-positive value");
          return Value(std::log(x));
        case FuncKind::kSqrt:
          if (x < 0.0) return Status::OutOfRange("sqrt of negative value");
          return Value(std::sqrt(x));
        case FuncKind::kAbs:
          return Value(std::fabs(x));
        case FuncKind::kMin:
        case FuncKind::kMax:
        case FuncKind::kPow: {
          PIP_ASSIGN_OR_RETURN(Value bv, children_[1]->Eval(a));
          PIP_ASSIGN_OR_RETURN(double y, bv.AsDouble());
          if (func_ == FuncKind::kMin) return Value(std::min(x, y));
          if (func_ == FuncKind::kMax) return Value(std::max(x, y));
          return Value(std::pow(x, y));
        }
      }
      return Status::Internal("unknown function kind");
    }
  }
  return Status::Internal("unknown expression op");
}

bool Expr::TryEvalNumber(const Assignment& a, double* out) const {
  // The same double operations as Eval, with every error branch turned
  // into `return false`. Children evaluate first: they are pure, and a
  // failure anywhere sends the caller to Eval for the error.
  switch (op_) {
    case ExprOp::kConst:
      if (value_.type() == ValueType::kBool) {
        *out = value_.bool_value() ? 1.0 : 0.0;
        return true;
      }
      if (!value_.is_numeric()) return false;
      *out = value_.type() == ValueType::kInt
                 ? static_cast<double>(value_.int_value())
                 : value_.double_value();
      return true;
    case ExprOp::kVar: {
      std::optional<double> v = a.Get(var_);
      if (!v) return false;
      *out = *v;
      return true;
    }
    default:
      break;
  }
  double x = 0.0, y = 0.0;
  if (!children_[0]->TryEvalNumber(a, &x)) return false;
  if (children_.size() > 1 && !children_[1]->TryEvalNumber(a, &y)) {
    return false;
  }
  switch (op_) {
    case ExprOp::kNeg:
      *out = -x;
      return true;
    case ExprOp::kAdd:
      *out = x + y;
      return true;
    case ExprOp::kSub:
      *out = x - y;
      return true;
    case ExprOp::kMul:
      *out = x * y;
      return true;
    case ExprOp::kDiv:
      if (y == 0.0) return false;
      *out = x / y;
      return true;
    default:
      break;
  }
  switch (func_) {
    case FuncKind::kExp:
      *out = std::exp(x);
      return true;
    case FuncKind::kLog:
      if (x <= 0.0) return false;
      *out = std::log(x);
      return true;
    case FuncKind::kSqrt:
      if (x < 0.0) return false;
      *out = std::sqrt(x);
      return true;
    case FuncKind::kAbs:
      *out = std::fabs(x);
      return true;
    case FuncKind::kMin:
      *out = std::min(x, y);
      return true;
    case FuncKind::kMax:
      *out = std::max(x, y);
      return true;
    case FuncKind::kPow:
      *out = std::pow(x, y);
      return true;
  }
  return false;
}

StatusOr<double> Expr::EvalDouble(const Assignment& a) const {
  double out = 0.0;
  if (TryEvalNumber(a, &out)) return out;
  PIP_ASSIGN_OR_RETURN(Value v, Eval(a));
  return v.AsDouble();
}

Interval Expr::EvalInterval(
    const std::function<Interval(VarRef)>& bounds) const {
  switch (op_) {
    case ExprOp::kConst: {
      auto d = value_.AsDouble();
      if (!d.ok()) return Interval::All();
      return Interval::Point(d.value());
    }
    case ExprOp::kVar:
      return bounds(var_);
    case ExprOp::kNeg:
      return pip::Neg(children_[0]->EvalInterval(bounds));
    case ExprOp::kAdd:
      return pip::Add(children_[0]->EvalInterval(bounds),
                      children_[1]->EvalInterval(bounds));
    case ExprOp::kSub:
      return pip::Sub(children_[0]->EvalInterval(bounds),
                      children_[1]->EvalInterval(bounds));
    case ExprOp::kMul:
      return pip::Mul(children_[0]->EvalInterval(bounds),
                      children_[1]->EvalInterval(bounds));
    case ExprOp::kDiv:
      return pip::Div(children_[0]->EvalInterval(bounds),
                      children_[1]->EvalInterval(bounds));
    case ExprOp::kFunc: {
      Interval a = children_[0]->EvalInterval(bounds);
      if (a.IsEmpty()) return Interval::Empty();
      switch (func_) {
        case FuncKind::kExp:
          return Interval(std::exp(a.lo), std::exp(a.hi));
        case FuncKind::kLog:
          if (a.hi <= 0.0) return Interval::Empty();
          return Interval(a.lo <= 0.0 ? -kInf : std::log(a.lo),
                          std::log(a.hi));
        case FuncKind::kSqrt:
          if (a.hi < 0.0) return Interval::Empty();
          return Interval(a.lo <= 0.0 ? 0.0 : std::sqrt(a.lo),
                          std::sqrt(a.hi));
        case FuncKind::kAbs: {
          double hi = std::max(std::fabs(a.lo), std::fabs(a.hi));
          double lo = a.Contains(0.0) ? 0.0
                                      : std::min(std::fabs(a.lo),
                                                 std::fabs(a.hi));
          return Interval(lo, hi);
        }
        case FuncKind::kMin: {
          Interval b = children_[1]->EvalInterval(bounds);
          if (b.IsEmpty()) return Interval::Empty();
          return Interval(std::min(a.lo, b.lo), std::min(a.hi, b.hi));
        }
        case FuncKind::kMax: {
          Interval b = children_[1]->EvalInterval(bounds);
          if (b.IsEmpty()) return Interval::Empty();
          return Interval(std::max(a.lo, b.lo), std::max(a.hi, b.hi));
        }
        case FuncKind::kPow:
          // General powers: give up on tightness, stay sound.
          return Interval::All();
      }
      return Interval::All();
    }
  }
  return Interval::All();
}

int Expr::PolynomialDegree() const {
  switch (op_) {
    case ExprOp::kConst:
      return 0;
    case ExprOp::kVar:
      return 1;
    case ExprOp::kNeg:
      return children_[0]->PolynomialDegree();
    case ExprOp::kAdd:
    case ExprOp::kSub: {
      int l = children_[0]->PolynomialDegree();
      int r = children_[1]->PolynomialDegree();
      if (l < 0 || r < 0) return -1;
      return std::max(l, r);
    }
    case ExprOp::kMul: {
      int l = children_[0]->PolynomialDegree();
      int r = children_[1]->PolynomialDegree();
      if (l < 0 || r < 0) return -1;
      return l + r;
    }
    case ExprOp::kDiv: {
      int l = children_[0]->PolynomialDegree();
      int r = children_[1]->PolynomialDegree();
      if (l < 0 || r != 0) return -1;  // Division by a variable expression.
      return l;
    }
    case ExprOp::kFunc:
      return -1;
  }
  return -1;
}

StatusOr<LinearForm> Expr::ToLinearForm() const {
  switch (op_) {
    case ExprOp::kConst: {
      PIP_ASSIGN_OR_RETURN(double d, value_.AsDouble());
      LinearForm f;
      f.constant = d;
      return f;
    }
    case ExprOp::kVar: {
      LinearForm f;
      f.coefficients[var_] = 1.0;
      return f;
    }
    case ExprOp::kNeg: {
      PIP_ASSIGN_OR_RETURN(LinearForm f, children_[0]->ToLinearForm());
      f.constant = -f.constant;
      for (auto& [v, c] : f.coefficients) c = -c;
      return f;
    }
    case ExprOp::kAdd:
    case ExprOp::kSub: {
      PIP_ASSIGN_OR_RETURN(LinearForm l, children_[0]->ToLinearForm());
      PIP_ASSIGN_OR_RETURN(LinearForm r, children_[1]->ToLinearForm());
      double sign = op_ == ExprOp::kAdd ? 1.0 : -1.0;
      l.constant += sign * r.constant;
      for (const auto& [v, c] : r.coefficients) {
        l.coefficients[v] += sign * c;
        if (l.coefficients[v] == 0.0) l.coefficients.erase(v);
      }
      return l;
    }
    case ExprOp::kMul: {
      PIP_ASSIGN_OR_RETURN(LinearForm l, children_[0]->ToLinearForm());
      PIP_ASSIGN_OR_RETURN(LinearForm r, children_[1]->ToLinearForm());
      if (!l.coefficients.empty() && !r.coefficients.empty()) {
        return Status::InvalidArgument("expression is not linear");
      }
      const LinearForm& varside = l.coefficients.empty() ? r : l;
      double scale = l.coefficients.empty() ? l.constant : r.constant;
      LinearForm out;
      out.constant = varside.constant * scale;
      for (const auto& [v, c] : varside.coefficients) {
        if (c * scale != 0.0) out.coefficients[v] = c * scale;
      }
      return out;
    }
    case ExprOp::kDiv: {
      PIP_ASSIGN_OR_RETURN(LinearForm l, children_[0]->ToLinearForm());
      PIP_ASSIGN_OR_RETURN(LinearForm r, children_[1]->ToLinearForm());
      if (!r.coefficients.empty()) {
        return Status::InvalidArgument("division by a variable expression");
      }
      if (r.constant == 0.0) return Status::OutOfRange("division by zero");
      l.constant /= r.constant;
      for (auto& [v, c] : l.coefficients) c /= r.constant;
      return l;
    }
    case ExprOp::kFunc:
      return Status::InvalidArgument("function expression is not linear");
  }
  return Status::Internal("unknown expression op");
}

ExprPtr Expr::Substitute(const ExprPtr& self, const Assignment& a) {
  switch (self->op_) {
    case ExprOp::kConst:
      return self;
    case ExprOp::kVar: {
      auto v = a.Get(self->var_);
      return v ? Constant(*v) : self;
    }
    default:
      break;
  }
  std::vector<ExprPtr> new_children;
  new_children.reserve(self->children_.size());
  bool changed = false;
  for (const auto& c : self->children_) {
    new_children.push_back(Substitute(c, a));
    changed = changed || new_children.back() != c;
  }
  if (!changed) return self;
  switch (self->op_) {
    case ExprOp::kAdd:
      return Add(new_children[0], new_children[1]);
    case ExprOp::kSub:
      return Sub(new_children[0], new_children[1]);
    case ExprOp::kMul:
      return Mul(new_children[0], new_children[1]);
    case ExprOp::kDiv:
      return Div(new_children[0], new_children[1]);
    case ExprOp::kNeg:
      return Neg(new_children[0]);
    case ExprOp::kFunc:
      return new_children.size() == 1
                 ? Func(self->func_, new_children[0])
                 : Func(self->func_, new_children[0], new_children[1]);
    default:
      return self;
  }
}

bool Expr::Equals(const Expr& other) const {
  if (op_ != other.op_) return false;
  switch (op_) {
    case ExprOp::kConst:
      return value_ == other.value_;
    case ExprOp::kVar:
      return var_ == other.var_;
    default:
      break;
  }
  if (op_ == ExprOp::kFunc && func_ != other.func_) return false;
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

size_t Expr::Hash() const {
  size_t h = static_cast<size_t>(op_) * 0x9e3779b97f4a7c15ULL;
  switch (op_) {
    case ExprOp::kConst:
      return HashCombine(h, value_.Hash());
    case ExprOp::kVar:
      return HashCombine(h, std::hash<VarRef>{}(var_));
    default:
      break;
  }
  if (op_ == ExprOp::kFunc) h = HashCombine(h, static_cast<size_t>(func_));
  for (const auto& c : children_) h = HashCombine(h, c->Hash());
  return h;
}

std::string Expr::ToString() const {
  switch (op_) {
    case ExprOp::kConst:
      return value_.ToString();
    case ExprOp::kVar:
      return var_.ToString();
    case ExprOp::kNeg:
      return "-(" + children_[0]->ToString() + ")";
    case ExprOp::kAdd:
      return "(" + children_[0]->ToString() + " + " +
             children_[1]->ToString() + ")";
    case ExprOp::kSub:
      return "(" + children_[0]->ToString() + " - " +
             children_[1]->ToString() + ")";
    case ExprOp::kMul:
      return "(" + children_[0]->ToString() + " * " +
             children_[1]->ToString() + ")";
    case ExprOp::kDiv:
      return "(" + children_[0]->ToString() + " / " +
             children_[1]->ToString() + ")";
    case ExprOp::kFunc: {
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

std::ostream& operator<<(std::ostream& os, const Expr& e) {
  return os << e.ToString();
}

}  // namespace pip
