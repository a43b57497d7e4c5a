/// \file algebra.h
/// \brief Relational algebra on c-tables (paper Fig. 1).
///
/// Every operator is purely symbolic: no sampling, no reference to the
/// joint distribution p. Selection predicates whose atoms are decidable
/// (deterministic) filter rows immediately; atoms over random variables
/// are conjoined into the row's local condition. This is exactly the
/// "lossless symbolic phase" that lets PIP defer integration until the
/// full expression is known.
///
/// The SQL session, the workloads and library code call these functions
/// directly. Operators read their inputs in place (a caller passes the
/// catalogue snapshot from Database::GetTable itself, not a copy) and
/// copy only the rows they emit. Column names are looked up once per
/// call, not once per row.

#ifndef PIP_CTABLE_ALGEBRA_H_
#define PIP_CTABLE_ALGEBRA_H_

#include <string>
#include <vector>

#include "src/ctable/col_expr.h"
#include "src/ctable/ctable.h"
#include "src/dist/variable_pool.h"

namespace pip {

/// sigma_psi(R): conjoins psi[r] onto each row's condition (Fig. 1).
/// Rows whose condition becomes decidably false are dropped. An atom
/// whose two sides are a column or literal holding constant cells is
/// decided by DecideCmp on Value::Compare, exactly as Condition::AddAtom
/// would decide it, without building it; other atoms are bound and
/// conjoined in predicate order. A row is copied only if it survives.
StatusOr<CTable> Select(const CTable& in, const ColPredicate& pred);

/// pi_A(R): generalized projection — each target may be any column
/// expression, so this subsumes SQL target-clause arithmetic.
StatusOr<CTable> Project(const CTable& in,
                         const std::vector<NamedColExpr>& targets);

/// R x S: concatenates tuples and conjoins conditions (Fig. 1). Right-hand
/// columns colliding with left-hand names get `rhs_prefix.` prepended.
StatusOr<CTable> Product(const CTable& left, const CTable& right,
                         const std::string& rhs_prefix = "r");

/// Theta-join: Product followed by Select.
StatusOr<CTable> Join(const CTable& left, const CTable& right,
                      const ColPredicate& pred,
                      const std::string& rhs_prefix = "r");

/// R union S (bag union). Schemas must have equal arity; the left schema's
/// names win.
StatusOr<CTable> Union(const CTable& left, const CTable& right);

/// distinct(R): coalesces rows with identical data *and* identical
/// condition (phi OR phi = phi). Rows with identical data but different
/// conditions remain separate — they are the bag-encoded disjuncts of
/// Fig. 1's "OR of phi"; aconf() integrates such groups jointly.
StatusOr<CTable> Distinct(const CTable& in);

/// R - S (Fig. 1): for each distinct row r of R, conjoins the negation of
/// the conditions of all matching rows of S. Negations of conjunctions
/// expand to mutually exclusive DNF disjuncts, each emitted as its own row
/// (bag encoding).
StatusOr<CTable> Difference(const CTable& left, const CTable& right);

/// One group of a group-by partition.
struct CTableGroup {
  Row key;      ///< Values of the grouping columns.
  CTable rows;  ///< Member rows (full schema).
};

/// Partitions by deterministic grouping columns. InvalidArgument if any
/// grouping cell is probabilistic: "grouping by (continuously) uncertain
/// columns [is] of doubtful value" (paper §II-C) — explode finite discrete
/// variables first if needed.
StatusOr<std::vector<CTableGroup>> GroupBy(
    const CTable& in, const std::vector<std::string>& group_columns);

/// Repair-key style explosion (paper §III-C, footnote 2): rewrites each row
/// mentioning finite-domain discrete variables into one row per valuation,
/// substituting the value into the cells and guarding the row with
/// mutually exclusive (X = v) atoms. `max_expansion` bounds the blow-up
/// per row. After explosion, discrete-variable columns are constants and
/// deterministic optimizers can filter them early.
StatusOr<CTable> ExplodeDiscrete(const CTable& in, const VariablePool& pool,
                                 size_t max_expansion = 4096);

}  // namespace pip

#endif  // PIP_CTABLE_ALGEBRA_H_
