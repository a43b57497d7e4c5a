#include "src/ctable/algebra.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "src/ctable/ctable.h"

namespace pip {
namespace {

using CE = ColExpr;

VarRef X1{101, 0};
VarRef X2{102, 0};
VarRef X3{103, 0};
VarRef X4{104, 0};

/// The running example of the paper: Order(Cust, ShipTo, Price) and
/// Shipping(Dest, Duration) with variable prices and durations.
CTable MakeOrderTable() {
  CTable t(Schema({"Cust", "ShipTo", "Price"}));
  PIP_CHECK(t.Append({Expr::String("Joe"), Expr::String("NY"), Expr::Var(X1)})
                .ok());
  PIP_CHECK(t.Append({Expr::String("Bob"), Expr::String("LA"), Expr::Var(X3)})
                .ok());
  return t;
}

CTable MakeShippingTable() {
  CTable t(Schema({"Dest", "Duration"}));
  PIP_CHECK(t.Append({Expr::String("NY"), Expr::Var(X2)}).ok());
  PIP_CHECK(t.Append({Expr::String("LA"), Expr::Var(X4)}).ok());
  return t;
}

TEST(CTableTest, FromTableLiftsDeterministically) {
  Table t(Schema({"a", "b"}));
  ASSERT_TRUE(t.Append({Value(int64_t{1}), Value("x")}).ok());
  CTable ct = CTable::FromTable(t);
  EXPECT_EQ(ct.num_rows(), 1u);
  EXPECT_TRUE(ct.row(0).IsDeterministic());
  EXPECT_TRUE(ct.row(0).condition.IsTrue());
}

TEST(CTableTest, AppendDropsKnownFalseRows) {
  CTable t(Schema({"a"}));
  ASSERT_TRUE(t.Append({Expr::Constant(1.0)}, Condition::False()).ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(CTableTest, InstantiatePossibleWorld) {
  CTable t(Schema({"p"}));
  Condition c(Expr::Var(X2) >= Expr::Constant(7.0));
  ASSERT_TRUE(t.Append({Expr::Var(X1)}, c).ok());
  Assignment world;
  world.Set(X1, 42.0);
  world.Set(X2, 9.0);
  Table w = t.Instantiate(world).value();
  ASSERT_EQ(w.num_rows(), 1u);
  EXPECT_EQ(w.row(0)[0], Value(42.0));
  world.Set(X2, 3.0);
  EXPECT_EQ(t.Instantiate(world).value().num_rows(), 0u);
}

// The full Example 2.1 pipeline:
//   pi_Price(sigma_{ShipTo=Dest}(sigma_{Cust='Joe'}(Order) x
//            sigma_{Duration>=7}(Shipping)))
TEST(AlgebraTest, RunningExampleProducesExpectedCTable) {
  CTable orders = MakeOrderTable();
  CTable shipping = MakeShippingTable();

  CTable joe = Select(orders, ColPredicate{CE::Column("Cust") ==
                                           CE::Literal("Joe")})
                   .value();
  ASSERT_EQ(joe.num_rows(), 1u);  // Deterministic filter applied eagerly.

  CTable late =
      Select(shipping,
             ColPredicate{CE::Column("Duration") >= CE::Literal(7.0)})
          .value();
  ASSERT_EQ(late.num_rows(), 2u);  // Probabilistic: both rows conditioned.
  EXPECT_EQ(late.row(0).condition.size(), 1u);

  CTable product = Product(joe, late).value();
  ASSERT_EQ(product.num_rows(), 2u);

  CTable matched =
      Select(product,
             ColPredicate{CE::Column("ShipTo") == CE::Column("Dest")})
          .value();
  // ShipTo and Dest are constants: 'NY'='NY' keeps row 1, 'NY'='LA' drops
  // row 2.
  ASSERT_EQ(matched.num_rows(), 1u);

  CTable prices =
      Project(matched, {{"Price", CE::Column("Price")}}).value();
  ASSERT_EQ(prices.num_rows(), 1u);
  EXPECT_EQ(prices.schema().ToString(), "(Price)");
  // The surviving row is (X1 | X2 >= 7) — the paper's result table R.
  EXPECT_TRUE(prices.row(0).cells[0]->Equals(*Expr::Var(X1)));
  ASSERT_EQ(prices.row(0).condition.size(), 1u);
  EXPECT_EQ(prices.row(0).condition.atoms()[0].ToString(), "X102 >= 7");
}

TEST(AlgebraTest, SelectBindsRowCellsIntoAtoms) {
  CTable t(Schema({"v"}));
  ASSERT_TRUE(t.Append({Expr::Var(X1)}).ok());
  CTable sel =
      Select(t, ColPredicate{CE::Column("v") * CE::Literal(2.0) >
                             CE::Literal(10.0)})
          .value();
  ASSERT_EQ(sel.num_rows(), 1u);
  EXPECT_EQ(sel.row(0).condition.atoms()[0].ToString(), "(X101 * 2) > 10");
}

TEST(AlgebraTest, ProjectComputesArithmeticTargets) {
  CTable t(Schema({"a", "b"}));
  ASSERT_TRUE(t.Append({Expr::Constant(3.0), Expr::Var(X1)}).ok());
  CTable p = Project(t, {{"sum", CE::Column("a") + CE::Column("b")},
                         {"double_a", CE::Column("a") * CE::Literal(2.0)}})
                 .value();
  EXPECT_EQ(p.row(0).cells[1]->value(), Value(6.0));  // Folded constant.
  Assignment a;
  a.Set(X1, 4.0);
  EXPECT_EQ(p.row(0).cells[0]->EvalDouble(a).value(), 7.0);
}

TEST(AlgebraTest, ProductConjoinsConditions) {
  CTable l(Schema({"a"})), r(Schema({"b"}));
  ASSERT_TRUE(l.Append({Expr::Constant(1.0)},
                       Condition(Expr::Var(X1) > Expr::Constant(0.0)))
                  .ok());
  ASSERT_TRUE(r.Append({Expr::Constant(2.0)},
                       Condition(Expr::Var(X2) > Expr::Constant(0.0)))
                  .ok());
  CTable prod = Product(l, r).value();
  ASSERT_EQ(prod.num_rows(), 1u);
  EXPECT_EQ(prod.row(0).condition.size(), 2u);
}

TEST(AlgebraTest, UnionPreservesBagSemantics) {
  CTable l(Schema({"a"})), r(Schema({"a"}));
  ASSERT_TRUE(l.Append({Expr::Constant(1.0)}).ok());
  ASSERT_TRUE(r.Append({Expr::Constant(1.0)}).ok());
  CTable u = Union(l, r).value();
  EXPECT_EQ(u.num_rows(), 2u);  // Duplicates preserved.
}

TEST(AlgebraTest, UnionArityMismatchRejected) {
  CTable l(Schema({"a"})), r(Schema({"a", "b"}));
  EXPECT_FALSE(Union(l, r).ok());
}

TEST(AlgebraTest, DistinctCoalescesIdenticalRowsSameCondition) {
  CTable t(Schema({"a"}));
  Condition c(Expr::Var(X1) > Expr::Constant(0.0));
  ASSERT_TRUE(t.Append({Expr::Constant(1.0)}, c).ok());
  ASSERT_TRUE(t.Append({Expr::Constant(1.0)}, c).ok());
  CTable d = Distinct(t).value();
  EXPECT_EQ(d.num_rows(), 1u);
}

TEST(AlgebraTest, DistinctKeepsDisjunctsSeparate) {
  // Same data, different conditions: bag-encoded disjunction survives.
  CTable t(Schema({"a"}));
  ASSERT_TRUE(t.Append({Expr::Constant(1.0)},
                       Condition(Expr::Var(X1) > Expr::Constant(0.0)))
                  .ok());
  ASSERT_TRUE(t.Append({Expr::Constant(1.0)},
                       Condition(Expr::Var(X2) > Expr::Constant(0.0)))
                  .ok());
  CTable d = Distinct(t).value();
  EXPECT_EQ(d.num_rows(), 2u);
}

TEST(AlgebraTest, DifferenceWithUnconditionalRhsRemovesRow) {
  CTable l(Schema({"a"})), r(Schema({"a"}));
  ASSERT_TRUE(l.Append({Expr::Constant(1.0)}).ok());
  ASSERT_TRUE(l.Append({Expr::Constant(2.0)}).ok());
  ASSERT_TRUE(r.Append({Expr::Constant(1.0)}).ok());
  CTable d = Difference(l, r).value();
  ASSERT_EQ(d.num_rows(), 1u);
  EXPECT_EQ(d.row(0).cells[0]->value(), Value(2.0));
}

TEST(AlgebraTest, DifferenceNegatesConditionalRhs) {
  // L has unconditional (1); R has (1 | X1 > 0). Result: (1 | X1 <= 0).
  CTable l(Schema({"a"})), r(Schema({"a"}));
  ASSERT_TRUE(l.Append({Expr::Constant(1.0)}).ok());
  ASSERT_TRUE(r.Append({Expr::Constant(1.0)},
                       Condition(Expr::Var(X1) > Expr::Constant(0.0)))
                  .ok());
  CTable d = Difference(l, r).value();
  ASSERT_EQ(d.num_rows(), 1u);
  Assignment a;
  a.Set(X1, -1.0);
  EXPECT_TRUE(d.row(0).condition.Eval(a).value());
  a.Set(X1, 1.0);
  EXPECT_FALSE(d.row(0).condition.Eval(a).value());
}

/// Property: for every operator, instantiating the symbolic result in a
/// possible world equals applying the deterministic operator to the
/// instantiated inputs (Fig. 1 correctness), checked over random worlds.
class AlgebraWorldEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(AlgebraWorldEquivalenceTest, SelectProductProjectCommuteWithWorlds) {
  CTable orders = MakeOrderTable();
  CTable shipping = MakeShippingTable();
  CTable joined =
      Join(orders, shipping,
           ColPredicate{CE::Column("ShipTo") == CE::Column("Dest"),
                        CE::Column("Duration") >= CE::Literal(7.0)})
          .value();
  CTable projected =
      Project(joined, {{"Price", CE::Column("Price")}}).value();

  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    Assignment world;
    world.Set(X1, rng.NextUniform(0, 100));
    world.Set(X2, rng.NextUniform(0, 14));
    world.Set(X3, rng.NextUniform(0, 100));
    world.Set(X4, rng.NextUniform(0, 14));

    // Deterministic evaluation in the world.
    Table det_orders = orders.Instantiate(world).value();
    Table det_shipping = shipping.Instantiate(world).value();
    std::vector<double> expected;
    for (const auto& orow : det_orders.rows()) {
      for (const auto& srow : det_shipping.rows()) {
        if (orow[1] == srow[0] && srow[1].AsDouble().value() >= 7.0) {
          expected.push_back(orow[2].AsDouble().value());
        }
      }
    }
    // Symbolic-then-instantiate.
    Table actual = projected.Instantiate(world).value();
    ASSERT_EQ(actual.num_rows(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual.row(i)[0].AsDouble().value(), expected[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraWorldEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(AlgebraTest, DifferenceAgainstDisjunctiveRhs) {
  // R = {(1)}, S = {(1 | X>0), (1 | Y>0)} (bag-encoded disjunction):
  // surviving condition is NOT(X>0) AND NOT(Y>0).
  CTable l(Schema({"a"})), r(Schema({"a"}));
  ASSERT_TRUE(l.Append({Expr::Constant(1.0)}).ok());
  ASSERT_TRUE(r.Append({Expr::Constant(1.0)},
                       Condition(Expr::Var(X1) > Expr::Constant(0.0)))
                  .ok());
  ASSERT_TRUE(r.Append({Expr::Constant(1.0)},
                       Condition(Expr::Var(X2) > Expr::Constant(0.0)))
                  .ok());
  CTable d = Difference(l, r).value();
  for (double x : {-1.0, 1.0}) {
    for (double y : {-1.0, 1.0}) {
      Assignment world;
      world.Set(X1, x);
      world.Set(X2, y);
      size_t present = 0;
      for (const auto& row : d.rows()) {
        if (row.condition.Eval(world).value()) ++present;
      }
      bool expect_present = !(x > 0.0) && !(y > 0.0);
      EXPECT_EQ(present, expect_present ? 1u : 0u) << x << "," << y;
    }
  }
}

TEST(AlgebraTest, DifferenceConditionalLhsKeepsItsCondition) {
  // R = {(1 | X1 > 0)}, S = {(1 | X1 > 5)}: survivor needs X1 > 0 AND
  // NOT(X1 > 5), i.e. 0 < X1 <= 5.
  CTable l(Schema({"a"})), r(Schema({"a"}));
  ASSERT_TRUE(l.Append({Expr::Constant(1.0)},
                       Condition(Expr::Var(X1) > Expr::Constant(0.0)))
                  .ok());
  ASSERT_TRUE(r.Append({Expr::Constant(1.0)},
                       Condition(Expr::Var(X1) > Expr::Constant(5.0)))
                  .ok());
  CTable d = Difference(l, r).value();
  for (double x : {-1.0, 3.0, 7.0}) {
    Assignment world;
    world.Set(X1, x);
    size_t present = 0;
    for (const auto& row : d.rows()) {
      if (row.condition.Eval(world).value()) ++present;
    }
    EXPECT_EQ(present, (x > 0.0 && x <= 5.0) ? 1u : 0u) << "x=" << x;
  }
}

TEST(AlgebraTest, SelectOnEmptyTable) {
  CTable t(Schema({"a"}));
  CTable out = Select(t, ColPredicate{CE::Column("a") > CE::Literal(0.0)})
                   .value();
  EXPECT_EQ(out.num_rows(), 0u);
}

TEST(AlgebraTest, ProjectMissingColumnFails) {
  CTable t(Schema({"a"}));
  PIP_CHECK(t.Append({Expr::Constant(1.0)}).ok());
  EXPECT_FALSE(Project(t, {{"z", CE::Column("zz")}}).ok());
}

TEST(AlgebraTest, ProductOfEmptyIsEmpty) {
  CTable l(Schema({"a"})), r(Schema({"b"}));
  PIP_CHECK(l.Append({Expr::Constant(1.0)}).ok());
  CTable out = Product(l, r).value();
  EXPECT_EQ(out.num_rows(), 0u);
  EXPECT_EQ(out.schema().size(), 2u);
}

TEST(AlgebraTest, GroupByPartitionsOnConstants) {
  CTable t(Schema({"g", "v"}));
  ASSERT_TRUE(t.Append({Expr::String("a"), Expr::Var(X1)}).ok());
  ASSERT_TRUE(t.Append({Expr::String("b"), Expr::Var(X2)}).ok());
  ASSERT_TRUE(t.Append({Expr::String("a"), Expr::Var(X3)}).ok());
  auto groups = GroupBy(t, {"g"}).value();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].key[0], Value("a"));
  EXPECT_EQ(groups[0].rows.num_rows(), 2u);
  EXPECT_EQ(groups[1].key[0], Value("b"));
  EXPECT_EQ(groups[1].rows.num_rows(), 1u);
}

TEST(AlgebraTest, GroupByRejectsProbabilisticKey) {
  CTable t(Schema({"g"}));
  ASSERT_TRUE(t.Append({Expr::Var(X1)}).ok());
  EXPECT_FALSE(GroupBy(t, {"g"}).ok());
}

TEST(AlgebraTest, ExplodeDiscreteEnumeratesValuations) {
  VariablePool pool;
  VarRef b = pool.Create("Bernoulli", {0.5}).value();
  CTable t(Schema({"v"}));
  ASSERT_TRUE(
      t.Append({Expr::Var(b) * Expr::Constant(10.0)}).ok());
  CTable e = ExplodeDiscrete(t, pool).value();
  ASSERT_EQ(e.num_rows(), 2u);
  // Cells are substituted to constants; conditions carry the X = v guard.
  EXPECT_EQ(e.row(0).cells[0]->value(), Value(0.0));
  EXPECT_EQ(e.row(1).cells[0]->value(), Value(10.0));
  EXPECT_EQ(e.row(0).condition.size(), 1u);
}

TEST(AlgebraTest, ExplodeDiscretePrunesContradictoryRows) {
  VariablePool pool;
  VarRef d = pool.Create("DiscreteUniform", {1.0, 3.0}).value();
  CTable t(Schema({"v"}));
  Condition c(Expr::Var(d) >= Expr::Constant(2.0));
  ASSERT_TRUE(t.Append({Expr::Var(d)}, c).ok());
  CTable e = ExplodeDiscrete(t, pool).value();
  // Valuation d=1 contradicts d >= 2 and is dropped.
  EXPECT_EQ(e.num_rows(), 2u);
}

TEST(AlgebraTest, ExplodeLeavesContinuousAlone) {
  VariablePool pool;
  VarRef n = pool.Create("Normal", {0.0, 1.0}).value();
  CTable t(Schema({"v"}));
  ASSERT_TRUE(t.Append({Expr::Var(n)}).ok());
  CTable e = ExplodeDiscrete(t, pool).value();
  EXPECT_EQ(e.num_rows(), 1u);
  EXPECT_FALSE(e.row(0).cells[0]->IsConstant());
}

TEST(AlgebraTest, ExplodeRespectsExpansionCap) {
  VariablePool pool;
  VarRef d = pool.Create("DiscreteUniform", {0.0, 99.0}).value();
  CTable t(Schema({"v"}));
  ASSERT_TRUE(t.Append({Expr::Var(d)}).ok());
  CTable e = ExplodeDiscrete(t, pool, /*max_expansion=*/10).value();
  EXPECT_EQ(e.num_rows(), 1u);  // Too large: left unexploded.
}

TEST(AlgebraTest, WorldEquivalenceOfExplosion) {
  // Explosion must not change possible-world semantics.
  VariablePool pool;
  VarRef d = pool.Create("DiscreteUniform", {0.0, 2.0}).value();
  CTable t(Schema({"v"}));
  ASSERT_TRUE(t.Append({Expr::Var(d) * Expr::Constant(2.0)},
                       Condition(Expr::Var(d) > Expr::Constant(0.0)))
                  .ok());
  CTable e = ExplodeDiscrete(t, pool).value();
  for (double val : {0.0, 1.0, 2.0}) {
    Assignment world;
    world.Set(d, val);
    Table before = t.Instantiate(world).value();
    Table after = e.Instantiate(world).value();
    ASSERT_EQ(before.num_rows(), after.num_rows()) << "val=" << val;
    for (size_t i = 0; i < before.num_rows(); ++i) {
      EXPECT_EQ(before.row(i)[0], after.row(i)[0]);
    }
  }
}

// ---------------------------------------------------------------------------
// Select against a reference that binds every atom of every row.
// ---------------------------------------------------------------------------

/// ColExpr::Bind written out naively: a name search per column reference
/// and a fresh constant per literal, on every call.
StatusOr<ExprPtr> ReferenceBind(const ColExpr& e, const Schema& schema,
                                const std::vector<ExprPtr>& cells) {
  switch (e.kind()) {
    case CE::Kind::kColumn: {
      PIP_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(e.column()));
      return cells[idx];
    }
    case CE::Kind::kLiteral:
      return Expr::Constant(e.literal());
    case CE::Kind::kEmbed:
      return e.embedded();
    default:
      break;
  }
  std::vector<ExprPtr> bound;
  for (const auto& c : e.children()) {
    PIP_ASSIGN_OR_RETURN(ExprPtr b, ReferenceBind(*c, schema, cells));
    bound.push_back(std::move(b));
  }
  switch (e.kind()) {
    case CE::Kind::kAdd:
      return Expr::Add(bound[0], bound[1]);
    case CE::Kind::kSub:
      return Expr::Sub(bound[0], bound[1]);
    case CE::Kind::kMul:
      return Expr::Mul(bound[0], bound[1]);
    case CE::Kind::kDiv:
      return Expr::Div(bound[0], bound[1]);
    case CE::Kind::kNeg:
      return Expr::Neg(bound[0]);
    default:
      return Status::Internal("kind not generated by this test");
  }
}

/// Selection as Fig. 1 states it: every atom is bound against the row and
/// conjoined with Condition::AddAtom, which decides deterministic atoms.
StatusOr<CTable> ReferenceSelect(const CTable& in, const ColPredicate& pred) {
  CTable out(in.schema());
  out.set_table_id(in.table_id());
  for (const auto& row : in.rows()) {
    Condition cond = row.condition;
    for (const auto& atom : pred.atoms()) {
      PIP_ASSIGN_OR_RETURN(ExprPtr l,
                           ReferenceBind(*atom.lhs, in.schema(), row.cells));
      PIP_ASSIGN_OR_RETURN(ExprPtr r,
                           ReferenceBind(*atom.rhs, in.schema(), row.cells));
      cond.AddAtom(ConstraintAtom(std::move(l), atom.op, std::move(r)));
      if (cond.IsKnownFalse()) break;
    }
    if (cond.IsKnownFalse()) continue;
    CTableRow copy = row;
    copy.condition = std::move(cond);
    PIP_RETURN_IF_ERROR(out.Append(std::move(copy)));
  }
  return out;
}

/// Same outcome: the same error (code and message), or the same rows in
/// the same order, sharing the input's cell pointers, with equal
/// conditions and the same table id.
void ExpectSameSelect(const CTable& in, const ColPredicate& pred) {
  SCOPED_TRACE(pred.ToString());
  StatusOr<CTable> got = Select(in, pred);
  StatusOr<CTable> want = ReferenceSelect(in, pred);
  ASSERT_EQ(got.ok(), want.ok());
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  const CTable& g = got.value();
  const CTable& w = want.value();
  EXPECT_EQ(g.table_id(), w.table_id());
  EXPECT_EQ(g.schema().columns(), w.schema().columns());
  ASSERT_EQ(g.num_rows(), w.num_rows());
  for (size_t i = 0; i < w.num_rows(); ++i) {
    ASSERT_EQ(g.row(i).cells.size(), w.row(i).cells.size());
    for (size_t j = 0; j < w.row(i).cells.size(); ++j) {
      EXPECT_EQ(g.row(i).cells[j].get(), w.row(i).cells[j].get())
          << "row " << i << " cell " << j;
    }
    EXPECT_TRUE(g.row(i).condition.Equals(w.row(i).condition))
        << g.row(i).condition.ToString() << " vs "
        << w.row(i).condition.ToString();
    EXPECT_EQ(g.row(i).condition.ToString(), w.row(i).condition.ToString());
  }
}

/// Constants of every Value type, chosen to hit Value::Compare's edges:
/// NaN, signed zeros, and 2^53 as a double against the int 2^53 + 1
/// (equal as doubles, unequal as ints).
std::vector<Value> EdgeValues() {
  const int64_t two53 = int64_t{1} << 53;
  return {Value(int64_t{0}),      Value(int64_t{3}),
          Value(int64_t{-2}),     Value(two53),
          Value(two53 + 1),       Value(0.0),
          Value(-0.0),            Value(3.0),
          Value(-1.5),            Value(std::nan("")),
          Value(9007199254740992.0), Value("c5"),
          Value("c50"),           Value(""),
          Value(true),            Value(false),
          Value()};
}

TEST(SelectDifferentialTest, MatchesBindEveryAtomOnRandomCTables) {
  const std::vector<Value> values = EdgeValues();
  const std::vector<std::string> columns = {"a", "b", "c", "d"};
  const CmpOp ops[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                       CmpOp::kGe, CmpOp::kEq, CmpOp::kNe};
  std::mt19937_64 rng(20260917);
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  auto random_cell = [&]() -> ExprPtr {
    switch (pick(8)) {
      case 0:
        return Expr::Var(X1);
      case 1:
        return Expr::Add(Expr::Var(X2), Expr::Constant(1.0));
      default:
        return Expr::Constant(values[pick(values.size())]);
    }
  };
  auto random_side = [&]() -> ColExprPtr {
    switch (pick(12)) {
      case 0:
        return CE::Column("zz");  // Unknown column.
      case 1:
        return CE::Column(columns[pick(columns.size())]) +
               CE::Literal(values[pick(values.size())]);
      case 2:
        return CE::Column(columns[pick(columns.size())]) *
               CE::Column(columns[pick(columns.size())]);
      case 3:
        return CE::Neg(CE::Column(columns[pick(columns.size())]));
      case 4:
      case 5:
      case 6:
        return CE::Literal(values[pick(values.size())]);
      default:
        return CE::Column(columns[pick(columns.size())]);
    }
  };
  for (int trial = 0; trial < 3000; ++trial) {
    CTable t((Schema(columns)));
    t.set_table_id(trial % 3);
    const size_t rows = pick(12);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<ExprPtr> cells;
      for (size_t c = 0; c < columns.size(); ++c) {
        cells.push_back(random_cell());
      }
      Condition cond;
      if (pick(4) == 0) cond.AddAtom(Expr::Var(X3) > Expr::Constant(0.5));
      ASSERT_TRUE(t.Append(std::move(cells), std::move(cond)).ok());
    }
    ColPredicate pred;
    const size_t atoms = 1 + pick(3);
    for (size_t a = 0; a < atoms; ++a) {
      pred.And(random_side(), ops[pick(6)], random_side());
    }
    ExpectSameSelect(t, pred);
    if (HasFatalFailure()) return;
  }
}

TEST(SelectDifferentialTest, UnknownColumnErrorsMatch) {
  CTable t(Schema({"k", "v"}));
  for (int64_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(t.Append({Expr::ConstantInt(k), Expr::Var(X1)}).ok());
  }
  // Unknown column on the first row reached.
  ExpectSameSelect(t, ColPredicate{CE::Column("nope") == CE::Literal(1.0)});
  ExpectSameSelect(
      t, ColPredicate{CE::Column("k") == CE::Literal(int64_t{3}),
                      CE::Column("v") + CE::Column("nope") > CE::Literal(0.0)});
  // An earlier atom drops every row, so the unknown column is never bound.
  ExpectSameSelect(
      t, ColPredicate{CE::Column("k") > CE::Literal(int64_t{99}),
                      CE::Column("nope") == CE::Literal(1.0)});
  // An empty table binds nothing.
  ExpectSameSelect(CTable(Schema({"k", "v"})),
                   ColPredicate{CE::Column("nope") == CE::Literal(1.0)});
  EXPECT_FALSE(
      Select(t, ColPredicate{CE::Column("nope") == CE::Literal(1.0)}).ok());
  EXPECT_TRUE(Select(t, ColPredicate{CE::Column("k") > CE::Literal(int64_t{99}),
                                     CE::Column("nope") == CE::Literal(1.0)})
                  .ok());
}

}  // namespace
}  // namespace pip
