#include "src/expr/atom.h"

namespace pip {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
  }
  return "?";
}

CmpOp NegateCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGe;
    case CmpOp::kLe:
      return CmpOp::kGt;
    case CmpOp::kGt:
      return CmpOp::kLe;
    case CmpOp::kGe:
      return CmpOp::kLt;
    case CmpOp::kEq:
      return CmpOp::kNe;
    case CmpOp::kNe:
      return CmpOp::kEq;
  }
  return CmpOp::kEq;
}

CmpOp FlipCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    case CmpOp::kEq:
    case CmpOp::kNe:
      return op;
  }
  return op;
}

bool DecideCmp(CmpOp op, int cmp) {
  switch (op) {
    case CmpOp::kLt:
      return cmp < 0;
    case CmpOp::kLe:
      return cmp <= 0;
    case CmpOp::kGt:
      return cmp > 0;
    case CmpOp::kGe:
      return cmp >= 0;
    case CmpOp::kEq:
      return cmp == 0;
    case CmpOp::kNe:
      return cmp != 0;
  }
  return false;
}

StatusOr<bool> ConstraintAtom::EvalDeterministic() const {
  return Eval(Assignment());
}

StatusOr<bool> ConstraintAtom::Eval(const Assignment& a) const {
  double x = 0.0, y = 0.0;
  if (numeric_ && lhs_->TryEvalNumber(a, &x) && rhs_->TryEvalNumber(a, &y)) {
    return DecideCmp(op_, x < y ? -1 : (x > y ? 1 : 0));
  }
  PIP_ASSIGN_OR_RETURN(Value l, lhs_->Eval(a));
  PIP_ASSIGN_OR_RETURN(Value r, rhs_->Eval(a));
  return DecideCmp(op_, l.Compare(r));
}

size_t ConstraintAtom::Hash() const {
  size_t h = lhs_->Hash();
  h ^= static_cast<size_t>(op_) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= rhs_->Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::string ConstraintAtom::ToString() const {
  return lhs_->ToString() + " " + CmpOpName(op_) + " " + rhs_->ToString();
}

}  // namespace pip
