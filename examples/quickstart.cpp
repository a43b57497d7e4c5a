/// \file quickstart.cpp
/// \brief First steps with PIP: the paper's running example.
///
/// A database holds next quarter's expected orders (uncertain prices) and
/// per-destination shipping-time distributions. We ask: what is the
/// expected loss from late deliveries to Joe, where the product is free if
/// not delivered within seven days?
///
///   select expected_sum(O.Price)
///   from Order O, Shipping S
///   where O.ShipTo = S.Dest and O.Cust = 'Joe' and S.Duration >= 7;

#include <cstdio>
#include <memory>

#include "src/ctable/algebra.h"
#include "src/engine/database.h"
#include "src/sampling/aggregates.h"

using namespace pip;
using CE = ColExpr;

int main() {
  Database db(/*seed=*/42);

  // 1. Declare random variables: CREATE_VARIABLE(distribution, params).
  VarRef joe_price = db.CreateVariable("Normal", {120.0, 20.0}).value();
  VarRef bob_price = db.CreateVariable("Normal", {340.0, 45.0}).value();
  VarRef ny_days = db.CreateVariable("Normal", {5.0, 1.0}).value();
  VarRef la_days = db.CreateVariable("Exponential", {0.25}).value();

  // 2. Build c-tables: cells may be constants or symbolic equations.
  CTable orders(Schema({"cust", "ship_to", "price"}));
  PIP_CHECK(orders.Append({Expr::String("Joe"), Expr::String("NY"),
                           Expr::Var(joe_price)})
                .ok());
  PIP_CHECK(orders.Append({Expr::String("Bob"), Expr::String("LA"),
                           Expr::Var(bob_price)})
                .ok());
  CTable shipping(Schema({"dest", "duration"}));
  PIP_CHECK(shipping.Append({Expr::String("NY"), Expr::Var(ny_days)}).ok());
  PIP_CHECK(shipping.Append({Expr::String("LA"), Expr::Var(la_days)}).ok());
  PIP_CHECK(db.RegisterCTable("orders", orders).ok());
  PIP_CHECK(db.RegisterCTable("shipping", shipping).ok());

  // 3. Query symbolically with the c-table algebra, on the catalogue's
  //    snapshots. Deterministic predicates filter rows now; probabilistic
  //    predicates become row conditions, and no sampling happens yet.
  std::shared_ptr<const CTable> order_rows = db.GetTable("orders").value();
  std::shared_ptr<const CTable> shipping_rows =
      db.GetTable("shipping").value();
  CTable late = Join(*order_rows, *shipping_rows,
                     {CE::Column("ship_to") == CE::Column("dest"),
                      CE::Column("duration") >= CE::Literal(7.0)})
                    .value();
  CTable joe = Select(late, {CE::Column("cust") == CE::Literal("Joe")}).value();
  CTable result = Project(joe, {{"price", CE::Column("price")}}).value();
  std::printf("Symbolic result (the paper's c-table R):\n%s\n",
              result.ToString().c_str());

  // 4. Only now integrate: the expectation operator sees the whole
  //    expression and its context, picks CDF integration for the
  //    shipping-time condition, and samples only what it must.
  SamplingEngine engine = db.MakeEngine();
  AggregateEvaluator agg(&engine);
  double expected_loss = agg.ExpectedSum(result, "price").value();
  std::printf("Expected loss from late deliveries to Joe: %.2f\n",
              expected_loss);

  // The row's confidence (probability the delivery is actually late) is
  // computed exactly from the Normal CDF: P[duration >= 7] = 1 - Phi(2).
  ExpectationResult conf =
      engine.Confidence(result.row(0).condition).value();
  std::printf("P[NY delivery >= 7 days] = %.4f (%s)\n", conf.probability,
              conf.exact ? "exact, via CDF" : "estimated");
  return 0;
}
