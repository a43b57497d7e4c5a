#include "src/ctable/col_expr.h"

#include <gtest/gtest.h>

namespace pip {
namespace {

using CE = ColExpr;

class ColExprTest : public ::testing::Test {
 protected:
  Schema schema_{{"a", "b", "name"}};
  std::vector<ExprPtr> cells_{Expr::Constant(2.0), Expr::Var(VarRef{9, 0}),
                              Expr::String("joe")};
};

TEST_F(ColExprTest, ColumnBindsCell) {
  ExprPtr bound = CE::Column("a")->Bind(schema_, cells_).value();
  EXPECT_EQ(bound->value(), Value(2.0));
  ExprPtr var = CE::Column("b")->Bind(schema_, cells_).value();
  EXPECT_EQ(var->op(), ExprOp::kVar);
}

TEST_F(ColExprTest, MissingColumnIsNotFound) {
  EXPECT_EQ(CE::Column("zz")->Bind(schema_, cells_).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ColExprTest, LiteralAndEmbed) {
  EXPECT_EQ(CE::Literal(5.5)->Bind(schema_, cells_).value()->value(),
            Value(5.5));
  ExprPtr sym = Expr::Var(VarRef{3, 0});
  EXPECT_EQ(CE::Embed(sym)->Bind(schema_, cells_).value().get(), sym.get());
}

TEST_F(ColExprTest, ArithmeticFoldsThroughBind) {
  // (a * 3) binds to the constant 6 because a is a constant cell.
  ExprPtr bound =
      (CE::Column("a") * CE::Literal(3.0))->Bind(schema_, cells_).value();
  ASSERT_TRUE(bound->IsConstant());
  EXPECT_EQ(bound->value(), Value(6.0));
}

TEST_F(ColExprTest, ArithmeticStaysSymbolicOverVariables) {
  ExprPtr bound =
      (CE::Column("b") + CE::Literal(1.0))->Bind(schema_, cells_).value();
  EXPECT_FALSE(bound->IsConstant());
  Assignment a;
  a.Set(VarRef{9, 0}, 4.0);
  EXPECT_EQ(bound->EvalDouble(a).value(), 5.0);
}

TEST_F(ColExprTest, FunctionsBind) {
  ExprPtr bound = CE::Func(FuncKind::kSqrt, CE::Column("a"))
                      ->Bind(schema_, cells_)
                      .value();
  EXPECT_NEAR(bound->EvalDouble(Assignment()).value(), std::sqrt(2.0), 1e-12);
  ExprPtr two_arg = CE::Func(FuncKind::kMax, CE::Column("a"), CE::Literal(9.0))
                        ->Bind(schema_, cells_)
                        .value();
  EXPECT_EQ(two_arg->EvalDouble(Assignment()).value(), 9.0);
}

TEST_F(ColExprTest, NegationAndDivision) {
  ExprPtr neg = CE::Neg(CE::Column("a"))->Bind(schema_, cells_).value();
  EXPECT_EQ(neg->value(), Value(-2.0));
  ExprPtr div =
      (CE::Literal(10.0) / CE::Column("a"))->Bind(schema_, cells_).value();
  EXPECT_EQ(div->value(), Value(5.0));
}

TEST_F(ColExprTest, CollectColumns) {
  auto expr = (CE::Column("a") + CE::Column("b")) * CE::Column("a");
  std::vector<std::string> cols;
  expr->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::vector<std::string>{"a", "b", "a"}));
}

TEST_F(ColExprTest, ToStringShapes) {
  EXPECT_EQ(CE::Column("a")->ToString(), "a");
  EXPECT_EQ((CE::Column("a") + CE::Literal(1.0))->ToString(), "(a + 1)");
  EXPECT_EQ(CE::Func(FuncKind::kExp, CE::Column("a"))->ToString(), "exp(a)");
  EXPECT_EQ(CE::Neg(CE::Column("a"))->ToString(), "-(a)");
}

TEST_F(ColExprTest, LiteralBindsOneSharedConstant) {
  // Expr is immutable, so every row a literal binds into shares the one
  // constant built when the literal was.
  ColExprPtr lit = CE::Literal(int64_t{7});
  ExprPtr first = lit->Bind(schema_, cells_).value();
  EXPECT_EQ(first.get(), lit->Bind(schema_, cells_).value().get());
  EXPECT_EQ(first.get(), lit->embedded().get());
  EXPECT_EQ(first->value(), Value(int64_t{7}));
  EXPECT_EQ(lit->literal(), Value(int64_t{7}));
  ResolvedColExpr resolved(*lit, schema_);
  EXPECT_EQ(resolved.Bind(cells_).value().get(), first.get());
  EXPECT_EQ(resolved.Leaf(cells_)->get(), first.get());
}

TEST_F(ColExprTest, ColAtomBindsBothSides) {
  ColAtom atom = CE::Column("a") < CE::Column("b");
  ConstraintAtom bound = atom.Bind(schema_, cells_).value();
  EXPECT_EQ(bound.op(), CmpOp::kLt);
  EXPECT_TRUE(bound.lhs()->IsConstant());
  EXPECT_EQ(bound.rhs()->op(), ExprOp::kVar);
}

TEST_F(ColExprTest, AtomSugarCoversAllOperators) {
  EXPECT_EQ((CE::Column("a") < CE::Literal(1.0)).op, CmpOp::kLt);
  EXPECT_EQ((CE::Column("a") <= CE::Literal(1.0)).op, CmpOp::kLe);
  EXPECT_EQ((CE::Column("a") > CE::Literal(1.0)).op, CmpOp::kGt);
  EXPECT_EQ((CE::Column("a") >= CE::Literal(1.0)).op, CmpOp::kGe);
  EXPECT_EQ((CE::Column("a") == CE::Literal(1.0)).op, CmpOp::kEq);
  EXPECT_EQ((CE::Column("a") != CE::Literal(1.0)).op, CmpOp::kNe);
}

TEST_F(ColExprTest, PredicateBuilderAndToString) {
  ColPredicate pred;
  pred.And(CE::Column("a"), CmpOp::kGt, CE::Literal(0.0))
      .And(CE::Column("name") == CE::Literal("joe"));
  EXPECT_EQ(pred.atoms().size(), 2u);
  EXPECT_EQ(pred.ToString(), "a > 0 AND name = 'joe'");
  EXPECT_EQ(ColPredicate{}.ToString(), "TRUE");
}

}  // namespace
}  // namespace pip
