#include "src/engine/query.h"

#include <sstream>
#include <unordered_map>

#include "src/common/row_parallel.h"
#include "src/sampling/index_ops.h"

namespace pip {

struct Query::Node {
  enum class Kind {
    kScan,
    kValues,
    kWhere,
    kSelect,
    kProduct,
    kJoin,
    kUnion,
    kDistinct,
    kExcept,
    kExplode,
  };

  Kind kind;
  // Payloads (unused fields empty).
  std::string table_name;
  CTable inline_table;
  ColPredicate predicate;
  std::vector<NamedColExpr> targets;
  std::string rhs_prefix;
  std::vector<NodePtr> children;
};

Query Query::Scan(std::string table_name) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kScan;
  node->table_name = std::move(table_name);
  return Query(std::move(node));
}

Query Query::Values(CTable table) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kValues;
  node->inline_table = std::move(table);
  return Query(std::move(node));
}

Query Query::Where(ColPredicate predicate) const {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kWhere;
  node->predicate = std::move(predicate);
  node->children = {node_};
  return Query(std::move(node));
}

Query Query::SelectCols(std::vector<NamedColExpr> targets) const {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kSelect;
  node->targets = std::move(targets);
  node->children = {node_};
  return Query(std::move(node));
}

Query Query::CrossJoin(Query right, std::string rhs_prefix) const {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kProduct;
  node->rhs_prefix = std::move(rhs_prefix);
  node->children = {node_, right.node_};
  return Query(std::move(node));
}

Query Query::JoinOn(Query right, ColPredicate predicate,
                    std::string rhs_prefix) const {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kJoin;
  node->predicate = std::move(predicate);
  node->rhs_prefix = std::move(rhs_prefix);
  node->children = {node_, right.node_};
  return Query(std::move(node));
}

Query Query::UnionAll(Query right) const {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kUnion;
  node->children = {node_, right.node_};
  return Query(std::move(node));
}

Query Query::DistinctRows() const {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kDistinct;
  node->children = {node_};
  return Query(std::move(node));
}

Query Query::Except(Query right) const {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kExcept;
  node->children = {node_, right.node_};
  return Query(std::move(node));
}

Query Query::Explode() const {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kExplode;
  node->children = {node_};
  return Query(std::move(node));
}

namespace {

StatusOr<CTable> ExecuteNode(const Query::Node* node, const Database& db);

/// An operator's input: a Scan's catalogue snapshot, read in place (the
/// query holds it while it runs), or the subplan's own result. Operators
/// copy only the rows they keep, so no catalogue table is copied here.
StatusOr<std::shared_ptr<const CTable>> ExecuteInput(const Query::Node* node,
                                                     const Database& db) {
  if (node->kind == Query::Node::Kind::kScan) {
    return db.GetTable(node->table_name);
  }
  PIP_ASSIGN_OR_RETURN(CTable t, ExecuteNode(node, db));
  return std::make_shared<const CTable>(std::move(t));
}

}  // namespace

StatusOr<CTable> Query::Execute(const Database& db) const {
  return ExecuteNode(node_.get(), db);
}

namespace {

StatusOr<CTable> ExecuteNode(const Query::Node* node, const Database& db) {
  using Kind = Query::Node::Kind;
  auto input = [&](size_t i) {
    return ExecuteInput(node->children[i].get(), db);
  };
  switch (node->kind) {
    case Kind::kScan: {
      // A bare scan is the statement's whole result, so it is a copy.
      PIP_ASSIGN_OR_RETURN(std::shared_ptr<const CTable> t,
                           db.GetTable(node->table_name));
      return *t;
    }
    case Kind::kValues:
      return node->inline_table;
    case Kind::kWhere: {
      PIP_ASSIGN_OR_RETURN(auto in, input(0));
      return Select(*in, node->predicate);
    }
    case Kind::kSelect: {
      PIP_ASSIGN_OR_RETURN(auto in, input(0));
      return Project(*in, node->targets);
    }
    case Kind::kProduct: {
      PIP_ASSIGN_OR_RETURN(auto l, input(0));
      PIP_ASSIGN_OR_RETURN(auto r, input(1));
      return Product(*l, *r, node->rhs_prefix);
    }
    case Kind::kJoin: {
      PIP_ASSIGN_OR_RETURN(auto l, input(0));
      PIP_ASSIGN_OR_RETURN(auto r, input(1));
      return Join(*l, *r, node->predicate, node->rhs_prefix);
    }
    case Kind::kUnion: {
      PIP_ASSIGN_OR_RETURN(auto l, input(0));
      PIP_ASSIGN_OR_RETURN(auto r, input(1));
      return Union(*l, *r);
    }
    case Kind::kDistinct: {
      PIP_ASSIGN_OR_RETURN(auto in, input(0));
      return Distinct(*in);
    }
    case Kind::kExcept: {
      PIP_ASSIGN_OR_RETURN(auto l, input(0));
      PIP_ASSIGN_OR_RETURN(auto r, input(1));
      return Difference(*l, *r);
    }
    case Kind::kExplode: {
      PIP_ASSIGN_OR_RETURN(auto in, input(0));
      return ExplodeDiscrete(*in, db.pool());
    }
  }
  return Status::Internal("unknown plan node");
}

std::string NodeToString(const Query::Node* node, int indent) {
  using Kind = Query::Node::Kind;
  std::string pad(indent * 2, ' ');
  std::ostringstream os;
  switch (node->kind) {
    case Kind::kScan:
      os << pad << "Scan(" << node->table_name << ")";
      break;
    case Kind::kValues:
      os << pad << "Values(" << node->inline_table.num_rows() << " rows)";
      break;
    case Kind::kWhere:
      os << pad << "Where(" << node->predicate.ToString() << ")";
      break;
    case Kind::kSelect: {
      os << pad << "Select(";
      for (size_t i = 0; i < node->targets.size(); ++i) {
        if (i) os << ", ";
        os << node->targets[i].name << " := " << node->targets[i].expr->ToString();
      }
      os << ")";
      break;
    }
    case Kind::kProduct:
      os << pad << "CrossJoin";
      break;
    case Kind::kJoin:
      os << pad << "Join(" << node->predicate.ToString() << ")";
      break;
    case Kind::kUnion:
      os << pad << "UnionAll";
      break;
    case Kind::kDistinct:
      os << pad << "Distinct";
      break;
    case Kind::kExcept:
      os << pad << "Except";
      break;
    case Kind::kExplode:
      os << pad << "Explode";
      break;
  }
  for (const auto& c : node->children) {
    os << "\n" << NodeToString(c.get(), indent + 1);
  }
  return os.str();
}

}  // namespace

std::string Query::ToString() const { return NodeToString(node_.get(), 0); }

StatusOr<Prepared<Table>> PrepareAnalyze(const CTable& table,
                                         const SamplingEngine& engine,
                                         const AnalyzeSpec& spec) {
  std::vector<size_t> pass_idx, exp_idx;
  std::vector<std::string> out_columns;
  for (const auto& name : spec.passthrough_columns) {
    PIP_ASSIGN_OR_RETURN(size_t idx, table.schema().IndexOf(name));
    pass_idx.push_back(idx);
    out_columns.push_back(name);
  }
  for (const auto& name : spec.expectation_columns) {
    PIP_ASSIGN_OR_RETURN(size_t idx, table.schema().IndexOf(name));
    exp_idx.push_back(idx);
    out_columns.push_back("E[" + name + "]");
  }
  if (spec.with_confidence) out_columns.push_back("conf");

  // A row's passthrough cells are checked before its engine calls, so
  // the rows from the first probabilistic passthrough cell on are never
  // triaged: that row's error is the statement's unless an earlier row
  // fails first.
  const auto& rows = table.rows();
  size_t num_rows = rows.size();
  Status passthrough;
  for (size_t r = 0; r < rows.size() && passthrough.ok(); ++r) {
    for (size_t idx : pass_idx) {
      if (!rows[r].cells[idx]->IsConstant()) {
        passthrough = Status::InvalidArgument(
            "passthrough column '" + table.schema().name(idx) +
            "' holds a probabilistic value");
        num_rows = r;
        break;
      }
    }
  }

  // Each row makes one call per expectation column (the first also
  // yields conf() when asked), or one conf() call when there are none.
  // The triage answers exact calls and index hits now; Run samples the
  // rest through ParallelRows (rows fan out when they fill the width,
  // else each row's samples do; the shape-keyed PlanCache amortizes
  // planning across rows). Results land in per-call slots
  // and emitted rows fold in row order below, so the output table is
  // byte-identical to a serial row loop at every num_threads.
  const bool conf_only = exp_idx.empty() && spec.with_confidence;
  const size_t calls_per_row = conf_only ? 1 : exp_idx.size();
  auto triage = std::make_shared<RowTriage>(
      engine, table, num_rows, calls_per_row,
      [&rows, exp_idx, conf_only, with_conf = spec.with_confidence](
          size_t r, size_t i) {
        if (conf_only) return RowCall{nullptr, &rows[r].condition, false};
        return RowCall{&rows[r].cells[exp_idx[i]], &rows[r].condition,
                       with_conf && i == 0};
      });
  Prepared<Table> prepared;
  prepared.sampled_rows = triage->sampled_rows();
  prepared.finish = [triage, &rows, pass_idx, conf_only, calls_per_row,
                     passthrough, with_conf = spec.with_confidence,
                     out_columns]() -> StatusOr<Table> {
    PIP_RETURN_IF_ERROR(triage->Run());
    PIP_RETURN_IF_ERROR(passthrough);
    Table out((Schema(out_columns)));
    for (size_t r = 0; r < rows.size(); ++r) {
      if (triage->dropped(r)) continue;
      Row cells;
      cells.reserve(out_columns.size());
      for (size_t idx : pass_idx) cells.push_back(rows[r].cells[idx]->value());
      if (!conf_only) {
        for (size_t i = 0; i < calls_per_row; ++i) {
          cells.push_back(Value(triage->result(r, i).expectation));
        }
      }
      if (with_conf) cells.push_back(Value(triage->result(r, 0).probability));
      PIP_RETURN_IF_ERROR(out.Append(std::move(cells)));
    }
    return out;
  };
  return prepared;
}

StatusOr<Table> Analyze(const CTable& table, const SamplingEngine& engine,
                        const AnalyzeSpec& spec) {
  PIP_ASSIGN_OR_RETURN(Prepared<Table> prepared,
                       PrepareAnalyze(table, engine, spec));
  return prepared.finish();
}

StatusOr<Table> AnalyzeJointConfidence(const CTable& table,
                                       const SamplingEngine& engine) {
  // Group rows by identical data cells (the bag-encoded disjunction
  // groups), then aconf() each group.
  struct Group {
    const CTableRow* exemplar;
    std::vector<Condition> disjuncts;
  };
  std::vector<Group> groups;
  std::unordered_map<size_t, std::vector<size_t>> buckets;
  auto hash_cells = [](const std::vector<ExprPtr>& cells) {
    size_t h = 0x811c9dc5ULL;
    for (const auto& c : cells) {
      h ^= c->Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  };
  auto cells_equal = [](const std::vector<ExprPtr>& a,
                        const std::vector<ExprPtr>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i]->Equals(*b[i])) return false;
    }
    return true;
  };
  for (const auto& row : table.rows()) {
    size_t h = hash_cells(row.cells);
    auto& bucket = buckets[h];
    Group* group = nullptr;
    for (size_t gi : bucket) {
      if (cells_equal(groups[gi].exemplar->cells, row.cells)) {
        group = &groups[gi];
        break;
      }
    }
    if (group == nullptr) {
      bucket.push_back(groups.size());
      groups.push_back(Group{&row, {}});
      group = &groups.back();
    }
    group->disjuncts.push_back(row.condition);
  }

  std::vector<std::string> out_columns = table.schema().columns();
  out_columns.push_back("aconf");
  Table out((Schema(out_columns)));
  // Group-parallel aconf(): one JointConfidence call per distinct-row
  // group, fanned out like Analyze's rows (groups are the row axis
  // here). Probabilities land in per-group slots; rows fold in group
  // order, so the output matches the serial loop byte for byte.
  std::vector<double> probs(groups.size(), 0.0);
  PIP_RETURN_IF_ERROR(ParallelRows(
      groups.size(), engine.options().num_threads,
      [&](size_t g, const RowBatchContext& ctx) -> Status {
        for (const auto& cell : groups[g].exemplar->cells) {
          if (!cell->IsConstant()) {
            return Status::InvalidArgument(
                "aconf over probabilistic data cells is not supported; "
                "project to deterministic columns first");
          }
        }
        const SamplingEngine group_engine =
            engine.WithCancelCheck([ctx] { return ctx.Cancelled(); });
        PIP_ASSIGN_OR_RETURN(
            probs[g],
            IndexedJointConfidence(group_engine, table, groups[g].disjuncts));
        return Status::OK();
      }));
  for (size_t g = 0; g < groups.size(); ++g) {
    Row result;
    for (const auto& cell : groups[g].exemplar->cells) {
      result.push_back(cell->value());
    }
    result.push_back(Value(probs[g]));
    PIP_RETURN_IF_ERROR(out.Append(std::move(result)));
  }
  return out;
}

}  // namespace pip
