/// \file database.h
/// \brief The top-level PIP database: named tables plus the variable pool.
///
/// Plays the role of the modified-PostgreSQL host of the paper's §V: it
/// owns the catalogue of (c-)tables, the CREATE_VARIABLE entry point, and
/// hands out sampling engines configured against its variable pool.
///
/// Thread model (server mode): one Database is shared by every
/// connection's sql::Session. The catalogue and the named-variable map
/// are guarded by a shared_mutex — readers take snapshots
/// (shared_ptr<const CTable>), writers swap entries under the exclusive
/// lock — so concurrent DDL/DML/SELECT across sessions is safe, and a
/// long-running SELECT keeps sampling its snapshot even while another
/// session replaces the table. The variable pool is internally
/// synchronized (lock-free reads), and the plan cache and expectation
/// index handed to every engine are shared, internally synchronized
/// instances. Writes never purge the index: its entries are keyed by
/// the content of a row's expressions, not by where the row lives.

#ifndef PIP_ENGINE_DATABASE_H_
#define PIP_ENGINE_DATABASE_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/ctable/ctable.h"
#include "src/dist/variable_pool.h"
#include "src/index/expectation_index.h"
#include "src/sampling/expectation.h"

namespace pip {

/// \brief An in-memory probabilistic database.
class Database {
 public:
  explicit Database(uint64_t seed = VariablePool::kDefaultSeed)
      : pool_(seed),
        plan_cache_(std::make_shared<PlanCache>()),
        result_index_(std::make_shared<ExpectationIndex>()) {}

  VariablePool* pool() { return &pool_; }
  const VariablePool& pool() const { return pool_; }

  /// Database-wide sampling defaults, inherited by MakeEngine() and new
  /// SQL sessions. This is where deployment-level knobs (num_threads,
  /// fixed_samples, tolerances) are threaded down to the engine. Set
  /// these before serving traffic; the accessor returns a reference and
  /// is not synchronized against concurrent set_default_options.
  const SamplingOptions& default_options() const { return default_options_; }
  void set_default_options(SamplingOptions options) {
    default_options_ = options;
  }

  /// CREATE_VARIABLE(distribution, params): allocates a fresh random
  /// variable (paper §V-A).
  StatusOr<VarRef> CreateVariable(const std::string& distribution,
                                  std::vector<double> params) {
    return pool_.Create(distribution, std::move(params));
  }

  /// CREATE VARIABLE name AS Dist(params): allocates a fresh variable
  /// and binds it to `name` for reuse in later statements (paper §V-A's
  /// named form). AlreadyExists if the name is taken.
  StatusOr<VarRef> CreateNamedVariable(const std::string& name,
                                       const std::string& distribution,
                                       std::vector<double> params);

  /// The variable bound by CREATE VARIABLE `name`; NotFound otherwise.
  StatusOr<VarRef> GetNamedVariable(const std::string& name) const;
  bool HasNamedVariable(const std::string& name) const;
  /// (name, variable) pairs sorted by name — the SHOW VARIABLES listing.
  std::vector<std::pair<std::string, VarRef>> NamedVariables() const;

  /// Registers a deterministic table (lifted to a c-table with TRUE
  /// conditions).
  Status RegisterTable(const std::string& name, Table table);

  /// Registers a probabilistic table.
  Status RegisterCTable(const std::string& name, CTable table);

  /// Replaces a table if present, else registers it (view
  /// materialization: "intermediate query results or views may be
  /// materialized", §III-A). Rows identical to the replaced table's keep
  /// hitting the expectation index.
  void MaterializeView(const std::string& name, CTable table);

  /// Appends rows to an existing table atomically (the SQL INSERT path).
  /// The read-copy-update (copy, append, publish) runs under the
  /// exclusive catalogue lock, so concurrent INSERTs into one table never
  /// lose rows; concurrent readers keep their pre-insert snapshot. The
  /// expectation index is not touched: it is keyed by row content, so
  /// the old rows' entries stay valid.
  Status AppendRows(const std::string& name, std::vector<CTableRow> rows);

  /// Immutable snapshot of a table. The snapshot stays valid (and
  /// unchanged) for as long as the caller holds it, regardless of
  /// concurrent DDL/DML.
  StatusOr<std::shared_ptr<const CTable>> GetTable(
      const std::string& name) const;
  bool HasTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// A sampling engine bound to this database's pool, using the
  /// database-wide default options.
  SamplingEngine MakeEngine() const { return MakeEngine(default_options_); }
  /// A sampling engine with explicit options (callers typically copy
  /// default_options() and tweak). All engines share the database's
  /// plan cache and result index; the options' index_memory_budget is
  /// applied to the shared index (last engine created wins).
  SamplingEngine MakeEngine(SamplingOptions options) const {
    result_index_->SetMemoryBudget(options.index_memory_budget);
    SamplingEngine engine(&pool_, options, plan_cache_);
    engine.set_result_index(result_index_);
    return engine;
  }

  /// Hit/miss counters of the database-wide plan cache.
  PlanCache::Stats plan_cache_stats() const { return plan_cache_->stats(); }

  /// The shared materialized-result index and its counters (the SHOW
  /// INDEX surface).
  ExpectationIndex* result_index() const { return result_index_.get(); }
  ExpectationIndex::Stats result_index_stats() const {
    return result_index_->stats();
  }

 private:
  VariablePool pool_;
  SamplingOptions default_options_;
  std::shared_ptr<PlanCache> plan_cache_;
  std::shared_ptr<ExpectationIndex> result_index_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const CTable>> tables_;
  std::unordered_map<std::string, VarRef> named_vars_;
  uint64_t next_table_id_ = 1;
};

}  // namespace pip

#endif  // PIP_ENGINE_DATABASE_H_
