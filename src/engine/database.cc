#include "src/engine/database.h"

#include <algorithm>


namespace pip {

Status Database::RegisterTable(const std::string& name, Table table) {
  return RegisterCTable(name, CTable::FromTable(table));
}

Status Database::RegisterCTable(const std::string& name, CTable table) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (tables_.count(name)) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  table.set_table_id(next_table_id_++);
  tables_.emplace(name, std::make_shared<const CTable>(std::move(table)));
  return Status::OK();
}

void Database::MaterializeView(const std::string& name, CTable table) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = tables_.find(name);
  // A replacement keeps the table id. The index needs no purge: rows
  // identical to the old ones keep their keys (and their entries), and
  // different rows have different keys.
  table.set_table_id(it != tables_.end() ? it->second->table_id()
                                         : next_table_id_++);
  tables_[name] = std::make_shared<const CTable>(std::move(table));
}

Status Database::AppendRows(const std::string& name,
                            std::vector<CTableRow> rows) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  CTable updated = *it->second;
  for (CTableRow& row : rows) {
    PIP_RETURN_IF_ERROR(updated.Append(std::move(row)));
  }
  it->second = std::make_shared<const CTable>(std::move(updated));
  return Status::OK();
}

StatusOr<std::shared_ptr<const CTable>> Database::GetTable(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return it->second;
}

bool Database::HasTable(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return tables_.count(name) > 0;
}

std::vector<std::string> Database::TableNames() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

StatusOr<VarRef> Database::CreateNamedVariable(const std::string& name,
                                               const std::string& distribution,
                                               std::vector<double> params) {
  // Reserve the name before allocating so two racing CREATE VARIABLE x
  // statements cannot both succeed; losing the race to a bad parameter
  // set releases the reservation.
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (named_vars_.count(name)) {
      return Status::AlreadyExists("variable '" + name + "' already exists");
    }
    named_vars_.emplace(name, VarRef{0, 0});
  }
  auto created = pool_.Create(distribution, std::move(params));
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!created.ok()) {
    named_vars_.erase(name);
    return created.status();
  }
  named_vars_[name] = created.value();
  return created.value();
}

StatusOr<VarRef> Database::GetNamedVariable(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = named_vars_.find(name);
  if (it == named_vars_.end() || it->second.var_id == 0) {
    return Status::NotFound("no variable named '" + name + "'");
  }
  return it->second;
}

bool Database::HasNamedVariable(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = named_vars_.find(name);
  return it != named_vars_.end() && it->second.var_id != 0;
}

std::vector<std::pair<std::string, VarRef>> Database::NamedVariables() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::pair<std::string, VarRef>> out;
  out.reserve(named_vars_.size());
  for (const auto& [name, ref] : named_vars_) {
    if (ref.var_id != 0) out.emplace_back(name, ref);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace pip
