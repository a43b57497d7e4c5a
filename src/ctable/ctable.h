/// \file ctable.h
/// \brief Conditional tables: the symbolic representation of uncertain data.
///
/// A c-table is "a relational table extended by a column for holding a
/// local condition for each tuple" (paper §II-A). In PIP the data fields
/// hold equations (constants are the deterministic special case) and the
/// local condition is a conjunction of constraint atoms; disjunction is
/// encoded across rows with bag semantics (§III-B).

#ifndef PIP_CTABLE_CTABLE_H_
#define PIP_CTABLE_CTABLE_H_

#include <vector>

#include "src/expr/condition.h"
#include "src/expr/expr.h"
#include "src/types/table.h"

namespace pip {

/// \brief One row of a c-table: data cells plus the local condition.
struct CTableRow {
  std::vector<ExprPtr> cells;
  Condition condition;

  /// True when every cell is a constant and the condition mentions no
  /// random variables.
  bool IsDeterministic() const;

  /// All random variables mentioned in cells or condition.
  VarSet Variables() const;
};

/// \brief A multiset of conditional rows under a schema.
class CTable {
 public:
  CTable() = default;
  explicit CTable(Schema schema) : schema_(std::move(schema)) {}

  /// Lifts a deterministic table: every cell becomes a constant equation
  /// and every condition TRUE.
  static CTable FromTable(const Table& table);

  const Schema& schema() const { return schema_; }

  /// Catalogue identity of the snapshot these rows came from, assigned
  /// by the Database when it publishes the table and carried through
  /// row-preserving operators (Select / Project / GroupBy). 0 means "not
  /// a catalogue table" (inline values, joins, unions, ...). It is only
  /// the marker for whether the expectation index is consulted: entries
  /// are keyed by row content, so writes never need to re-stamp rows.
  uint64_t table_id() const { return table_id_; }
  void set_table_id(uint64_t table_id) { table_id_ = table_id; }

  size_t num_rows() const { return rows_.size(); }
  const CTableRow& row(size_t i) const { return rows_[i]; }
  CTableRow& mutable_row(size_t i) { return rows_[i]; }
  const std::vector<CTableRow>& rows() const { return rows_; }

  /// Appends a row. Rows whose condition is already known FALSE are
  /// silently dropped (they exist in no possible world). InvalidArgument
  /// on arity mismatch.
  Status Append(CTableRow row);
  Status Append(std::vector<ExprPtr> cells, Condition condition = {});

  /// The deterministic table obtained under a complete assignment: rows
  /// whose condition evaluates true, with cells evaluated to values. This
  /// is the possible-world semantics theta(CR); tests use it to verify the
  /// algebra against world-by-world evaluation.
  StatusOr<Table> Instantiate(const Assignment& a) const;

  /// All random variables mentioned anywhere in the table.
  VarSet Variables() const;

  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<CTableRow> rows_;
  uint64_t table_id_ = 0;
};

}  // namespace pip

#endif  // PIP_CTABLE_CTABLE_H_
