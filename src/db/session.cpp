#include "db/session.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <shared_mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "baseline/monet.hpp"
#include "baseline/reference.hpp"
#include "db/snapshot_manager.hpp"
#include "engine/explain.hpp"
#include "engine/fault_injector.hpp"
#include "engine/hash_join.hpp"
#include "engine/pim_store.hpp"
#include "engine/prejoin.hpp"
#include "pim/module.hpp"
#include "sql/parser.hpp"
#include "ssb/dbgen.hpp"

namespace bbpim::db {
namespace {

std::vector<ResultSet::Column> result_columns(const sql::BoundQuery& q,
                                              const rel::Schema& schema) {
  std::vector<ResultSet::Column> cols;
  for (const std::size_t attr : q.group_by) {
    const rel::Attribute& a = schema.attribute(attr);
    cols.push_back({a.name, false, a.dict});
  }
  ResultSet::Column agg;
  agg.name = q.agg_alias.empty() ? "agg" : q.agg_alias;
  agg.is_agg = true;
  cols.push_back(std::move(agg));
  return cols;
}

std::vector<ResultSet::Column> join_result_columns(
    const sql::BoundJoin& jp, const std::vector<const rel::Table*>& tables) {
  std::vector<ResultSet::Column> cols;
  for (const sql::BoundColumnRef& g : jp.group_by) {
    const rel::Attribute& a = tables[g.table]->schema().attribute(g.attr);
    cols.push_back({a.name, false, a.dict});
  }
  ResultSet::Column agg;
  agg.name = jp.agg_alias.empty() ? "agg" : jp.agg_alias;
  agg.is_agg = true;
  cols.push_back(std::move(agg));
  return cols;
}

/// PIM backends: a zero-copy view over the table's shared snapshot store.
/// The executor pins the current StoreSnapshot (published by the table's
/// db::SnapshotManager), allocates only private scratch pages in its own
/// module, and serves queries against the snapshot's immutable crossbar
/// data. Updates route through the manager's single builder store; the
/// executor then re-pins the version it produced (read-your-writes).
/// Models are fitted only when a query actually needs the GROUP-BY planner.
class PimExecutor final : public Executor {
 public:
  PimExecutor(Session& session, engine::EngineKind kind,
              const rel::Table& table)
      : session_(&session),
        kind_(kind),
        table_(&table),
        writes_(&session.database().writes(table)),
        manager_(&session.database().snapshot_manager(
            table, kind == engine::EngineKind::kTwoXb,
            session.options().pim)),
        snap_(manager_->acquire(session.options().host)),
        module_(session.options().pim),
        store_(module_, table, manager_->store_options(), snap_),
        engine_(kind, store_, session.options().host) {
    if (session.options().verbose) {
      std::cerr << "[db] pinned '" << table.name() << "' snapshot v"
                << snap_->version() << " ("
                << engine::engine_kind_name(kind) << "): "
                << store_.record_count() << " records, "
                << store_.pages_per_part() << " pages/part\n";
    }
  }

  BackendKind backend() const override { return backend_of(kind_); }
  const rel::Table& target() const override { return *table_; }

  engine::QueryOutput execute(const sql::BoundQuery& q,
                              const engine::ExecOptions& opts) override {
    // The planner (Equation 3) is the only consumer of the fitted models;
    // forced-k and ungrouped queries run model-free, exactly as the seed's
    // ablation benches did.
    if (q.has_group_by() && !opts.force_k.has_value()) ensure_models();
    refresh();
    engine::QueryOutput out = engine_.execute(q, opts);
    observed_version_ = snap_->version();
    return out;
  }

  engine::PimQueryEngine::BatchOutput execute_many(
      const std::vector<const sql::BoundQuery*>& queries,
      const engine::ExecOptions& opts,
      const std::vector<engine::CancelToken>& cancels) override {
    bool grouped = false;
    for (const sql::BoundQuery* q : queries) grouped |= q->has_group_by();
    if (grouped && !opts.force_k.has_value()) ensure_models();
    // One refresh pins ONE snapshot version for the whole batch: every
    // member reads the same prefix of the table's update log, and a commit
    // landing mid-batch is observed by all members or by none.
    refresh();
    engine::PimQueryEngine::BatchOutput out =
        engine_.execute_batch(queries, opts, cancels);
    observed_version_ = snap_->version();
    return out;
  }

  UpdateResult execute_update(const sql::BoundUpdate& update,
                              const engine::ExecOptions&) override {
    UpdateResult result;
    std::uint64_t version = 0;
    result.stats =
        manager_->apply_update(update, session_->options().host, &version);
    // Read-your-writes: re-pin at (at least) the version this update
    // produced before the caller's next read through this executor.
    snap_ = manager_->acquire(session_->options().host);
    store_.adopt(snap_);
    observed_version_ = version;
    result.data_version = version;
    return result;
  }

  std::uint64_t last_data_version() const override {
    return observed_version_;
  }

  engine::ScanOutput execute_scan(
      const std::vector<sql::BoundPredicate>& filters,
      const std::vector<std::size_t>& attrs,
      const engine::ExecOptions& opts) override {
    refresh();
    engine::ScanOutput out = engine_.execute_scan(filters, attrs, opts);
    observed_version_ = snap_->version();
    return out;
  }

  std::string explain(const sql::BoundQuery& q) override {
    return engine::explain_query(q, store_);
  }

  std::string explain_scan(
      const std::vector<sql::BoundPredicate>& filters) override {
    return engine::explain_scan(filters, store_);
  }

  void ensure_models() {
    if (!engine_.models().fitted()) {
      engine_.set_models(session_->models(kind_));
    }
  }

  engine::PimQueryEngine& engine() { return engine_; }

 private:
  /// Re-pins the current snapshot when behind. The fast path is one atomic
  /// load with no locks anywhere: when the table's committed counter equals
  /// the pinned version (the common case in read-mostly serving) the
  /// executor touches neither the writer gate nor the manager — this is
  /// what removed the reader-side contention that made HTAP worker scaling
  /// negative. A commit racing the check serializes after this read.
  void refresh() {
    if (writes_->committed.load(std::memory_order_acquire) !=
        snap_->version()) {
      snap_ = manager_->acquire(session_->options().host);
      store_.adopt(snap_);
    }
  }

  Session* session_;
  engine::EngineKind kind_;
  const rel::Table* table_;
  TableWrites* writes_;
  SnapshotManager* manager_;
  std::shared_ptr<const engine::StoreSnapshot> snap_;  ///< pinned version
  pim::PimModule module_;      ///< scratch pages only (data is the snapshot's)
  engine::PimStore store_;     ///< view over snap_
  engine::PimQueryEngine engine_;
  std::uint64_t observed_version_ = 0;  ///< version of the last execution
};

/// The PIM-only execution knobs are meaningless for the host baselines;
/// silently ignoring them would let an ablation pointed at the wrong
/// backend report plausible-looking but meaningless numbers.
void reject_pim_exec_options(BackendKind backend,
                             const engine::ExecOptions& opts) {
  if (opts.force_k.has_value() || opts.skip_host_gb ||
      opts.sim_threads.has_value() || opts.sim_scalar ||
      opts.prune.has_value()) {
    throw std::invalid_argument(
        std::string("execute: backend '") + backend_name(backend) +
        "' does not honor ExecOptions (force_k / skip_host_gb / sim_threads /"
        " sim_scalar / prune are PIM-only)");
  }
}

/// The host baselines scan the immutable catalog table, so once PIM-side
/// updates exist their results would silently diverge from every PIM
/// backend. Refuse instead of serving stale rows.
void reject_updated_table(BackendKind backend, Database& db,
                          const rel::Table& table) {
  if (db.update_version(table) > 0) {
    throw std::runtime_error(
        std::string("execute: backend '") + backend_name(backend) +
        "' reads the immutable catalog table and cannot observe the " +
        "committed PIM updates on '" + table.name() + "'");
  }
}

/// MonetDB-like columnar cost model over the target relation (mnt-join).
class ColumnarExecutor final : public Executor {
 public:
  ColumnarExecutor(Database& db, const rel::Table& table)
      : db_(&db), table_(&table), monet_(no_dimensions_, table) {}

  BackendKind backend() const override { return BackendKind::kColumnar; }
  const rel::Table& target() const override { return *table_; }

  engine::QueryOutput execute(const sql::BoundQuery& q,
                              const engine::ExecOptions& opts) override {
    reject_pim_exec_options(backend(), opts);
    reject_updated_table(backend(), *db_, *table_);
    baseline::BaselineRun run = monet_.execute_prejoined(q);
    engine::QueryOutput out;
    out.rows = std::move(run.rows);
    out.stats.total_ns = run.model_ns;
    out.stats.selected_records = run.selected_records;
    out.stats.selectivity =
        table_->row_count() > 0
            ? static_cast<double>(run.selected_records) / table_->row_count()
            : 0.0;
    return out;
  }

 private:
  Database* db_;
  const rel::Table* table_;
  ssb::SsbData no_dimensions_;  ///< star-plan dimensions unused by mnt-join
  baseline::MonetLikeEngine monet_;
};

/// Scalar reference scan: exact rows, no cost model.
class ReferenceExecutor final : public Executor {
 public:
  ReferenceExecutor(Database& db, const rel::Table& table)
      : db_(&db), table_(&table) {}

  BackendKind backend() const override { return BackendKind::kReference; }
  const rel::Table& target() const override { return *table_; }

  engine::QueryOutput execute(const sql::BoundQuery& q,
                              const engine::ExecOptions& opts) override {
    reject_pim_exec_options(backend(), opts);
    reject_updated_table(backend(), *db_, *table_);
    baseline::ReferenceRun run = baseline::scan_execute(*table_, q);
    engine::QueryOutput out;
    out.rows = std::move(run.rows);
    out.stats.selected_records = run.selected_records;
    out.stats.selectivity =
        table_->row_count() > 0
            ? static_cast<double>(run.selected_records) / table_->row_count()
            : 0.0;
    return out;
  }

  /// Exact row-at-a-time scan of the catalog table: the oracle half of the
  /// join parity tests. No cost model (stats stay zero).
  engine::ScanOutput execute_scan(
      const std::vector<sql::BoundPredicate>& filters,
      const std::vector<std::size_t>& attrs,
      const engine::ExecOptions& opts) override {
    reject_pim_exec_options(backend(), opts);
    reject_updated_table(backend(), *db_, *table_);
    engine::ScanOutput out;
    out.columns.resize(attrs.size());
    for (std::size_t r = 0; r < table_->row_count(); ++r) {
      bool pass = true;
      for (const sql::BoundPredicate& p : filters) {
        if (p.kind == sql::BoundPredicate::Kind::kAlways) continue;
        if (!p.matches(table_->value(r, p.attr))) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      out.row_ids.push_back(r);
      for (std::size_t i = 0; i < attrs.size(); ++i) {
        out.columns[i].push_back(table_->value(r, attrs[i]));
      }
    }
    out.stats.selected_records = out.row_ids.size();
    out.stats.selectivity =
        table_->row_count() > 0
            ? static_cast<double>(out.row_ids.size()) / table_->row_count()
            : 0.0;
    return out;
  }

 private:
  Database* db_;
  const rel::Table* table_;
};

}  // namespace

engine::FitConfig quick_fit_config() {
  engine::FitConfig fit;
  fit.page_counts = {2, 4};
  fit.ratios = {0.02, 0.2, 0.6};
  fit.s_values = {2, 4};
  fit.n_values = {1, 2};
  return fit;
}

// --- ModelCache ------------------------------------------------------------

ModelCache::ModelCache(std::string dir, std::string tag)
    : dir_(std::move(dir)), tag_(std::move(tag)) {}

std::string ModelCache::cache_path(engine::EngineKind kind,
                                   std::uint64_t fingerprint) const {
  std::ostringstream ss;
  ss << dir_ << "/bbpim_models_" << engine::engine_kind_name(kind) << tag_
     << '_' << fingerprint << ".txt";
  return ss.str();
}

bool ModelCache::contains(engine::EngineKind kind) const {
  std::lock_guard lock(mutex_);
  for (auto it = slots_.lower_bound({kind, 0});
       it != slots_.end() && it->first.first == kind; ++it) {
    if (it->second.ready) return true;
  }
  return false;
}

void ModelCache::put(engine::EngineKind kind, engine::LatencyModels models) {
  std::lock_guard lock(mutex_);
  Slot& slot = slots_[{kind, 0}];
  if (slot.ready) {
    // Resident models are immutable — other threads may hold references
    // into them — so injection only works before first use.
    throw std::logic_error(std::string("ModelCache::put: models for '") +
                           engine::engine_kind_name(kind) +
                           "' already resident");
  }
  slot.models = std::move(models);
  slot.ready = true;
}

std::size_t ModelCache::fit_count() const {
  std::lock_guard lock(mutex_);
  return fits_;
}

engine::LatencyModels ModelCache::load_or_fit(
    engine::EngineKind kind, std::uint64_t fingerprint,
    const pim::PimConfig& pim, const host::HostConfig& host,
    const engine::FitConfig& fit, bool verbose, bool& did_fit) const {
  did_fit = false;
  const std::string path = cache_path(kind, fingerprint);
  if (!dir_.empty()) {
    if (std::ifstream in(path); in.good()) {
      // A cache file is only trusted when it parses cleanly, carries the
      // fingerprint of OUR configuration, and holds a usable (non-empty)
      // model. Anything else — truncation, corruption, a hand-copied file
      // fitted under different configs, the pre-fingerprint format — is a
      // miss.
      try {
        std::uint64_t file_fingerprint = 0;
        engine::LatencyModels loaded =
            engine::LatencyModels::load(in, &file_fingerprint);
        if (loaded.fitted() && file_fingerprint == fingerprint) {
          if (verbose) {
            std::cerr << "[db] loading cached models from " << path << "\n";
          }
          return loaded;
        }
        if (verbose) {
          std::cerr << "[db] stale model cache " << path
                    << (loaded.fitted() ? " (config fingerprint mismatch)"
                                        : " (empty model)")
                    << " — refitting\n";
        }
      } catch (const std::exception& e) {
        if (verbose) {
          std::cerr << "[db] unreadable model cache " << path << " ("
                    << e.what() << ") — refitting\n";
        }
      }
    }
  }
  if (verbose) {
    std::cerr << "[db] fitting latency models for "
              << engine::engine_kind_name(kind) << "...\n";
  }
  engine::LatencyModels models =
      engine::fit_latency_models(kind, pim, host, fit).models;
  did_fit = true;
  if (!dir_.empty()) {
    // Write a temp file and rename it into place (atomic on POSIX) so a
    // concurrent reader never sees a partial write. Writers that race on
    // the same temp name are by construction fitting the same configuration
    // — the campaign is deterministic, so they write identical bytes.
    const std::string tmp = path + ".tmp";
    bool written = false;
    {
      std::ofstream out(tmp);
      if (out.good()) {
        models.save(out, fingerprint);
        written = out.good();
      }
    }
    if (!written || std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
    }
  }
  return models;
}

const engine::LatencyModels& ModelCache::get_or_fit(
    engine::EngineKind kind, const pim::PimConfig& pim,
    const host::HostConfig& host, const engine::FitConfig& fit, bool verbose) {
  const std::uint64_t fingerprint = engine::config_fingerprint(pim, host, fit);
  std::unique_lock lock(mutex_);
  // Explicitly injected models (put) pre-empt fitting for their kind.
  if (const auto it = slots_.find({kind, 0});
      it != slots_.end() && it->second.ready) {
    return it->second.models;
  }
  // Node-based map: the slot reference stays stable across the unlock.
  Slot& slot = slots_[{kind, fingerprint}];
  cv_.wait(lock, [&] { return !slot.busy; });
  if (slot.ready) return slot.models;

  // First caller for this configuration: fit (or load) outside the lock so
  // waiters block on the condition variable instead of serializing behind a
  // held mutex, and so contains()/put() on other slots stay responsive.
  slot.busy = true;
  lock.unlock();
  engine::LatencyModels models;
  bool did_fit = false;
  try {
    models = load_or_fit(kind, fingerprint, pim, host, fit, verbose, did_fit);
  } catch (...) {
    lock.lock();
    slot.busy = false;
    cv_.notify_all();
    throw;
  }
  lock.lock();
  if (did_fit) ++fits_;
  slot.models = std::move(models);
  slot.ready = true;
  slot.busy = false;
  cv_.notify_all();
  return slot.models;
}

// --- PreparedStatement -----------------------------------------------------

ResultSet PreparedStatement::execute(const engine::ExecOptions& opts) const {
  if (session_ == nullptr) {
    throw std::logic_error("PreparedStatement: not prepared by a session");
  }
  return execute(session_->default_backend(), opts);
}

ResultSet PreparedStatement::execute(BackendKind backend,
                                     const engine::ExecOptions& opts) const {
  if (session_ == nullptr) {
    throw std::logic_error("PreparedStatement: not prepared by a session");
  }
  if (plan_->is_join()) {
    return session_->execute_join(*plan_, backend, opts);
  }
  Executor& ex = session_->executor_for(backend, *plan_->target);
  if (plan_->kind == sql::Statement::Kind::kUpdate) {
    const UpdateResult result = ex.execute_update(plan_->update, opts);
    ResultSet rs(result.stats, backend);
    rs.set_data_version(result.data_version);
    return rs;
  }
  engine::QueryOutput out = ex.execute(plan_->bound, opts);
  ResultSet rs(std::move(out),
               result_columns(plan_->bound, plan_->target->schema()), backend);
  rs.set_data_version(ex.last_data_version());
  return rs;
}

// --- Session ---------------------------------------------------------------

UpdateResult Executor::execute_update(const sql::BoundUpdate&,
                                      const engine::ExecOptions&) {
  throw std::invalid_argument(
      std::string("execute: backend '") + backend_name(backend()) +
      "' does not support UPDATE (host baselines read the immutable "
      "catalog table; route updates through a PIM backend)");
}

std::string Executor::explain(const sql::BoundQuery&) {
  throw std::invalid_argument(std::string("explain: backend '") +
                              backend_name(backend()) +
                              "' has no physical plan rendering");
}

engine::ScanOutput Executor::execute_scan(
    const std::vector<sql::BoundPredicate>&, const std::vector<std::size_t>&,
    const engine::ExecOptions&) {
  throw std::invalid_argument(
      std::string("execute: backend '") + backend_name(backend()) +
      "' has no per-table scan path (joins run on PIM or reference "
      "backends; the columnar baseline models pre-joined plans only)");
}

std::string Executor::explain_scan(const std::vector<sql::BoundPredicate>&) {
  throw std::invalid_argument(std::string("explain: backend '") +
                              backend_name(backend()) +
                              "' has no physical plan rendering");
}

engine::PimQueryEngine::BatchOutput Executor::execute_many(
    const std::vector<const sql::BoundQuery*>& queries,
    const engine::ExecOptions& opts,
    const std::vector<engine::CancelToken>& cancels) {
  engine::PimQueryEngine::BatchOutput out;
  out.outputs.resize(queries.size());
  out.errors.resize(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    try {
      if (!cancels.empty() && cancels[i].valid()) {
        engine::ExecOptions member_opts = opts;
        member_opts.cancel = cancels[i];
        out.outputs[i] = execute(*queries[i], member_opts);
      } else {
        out.outputs[i] = execute(*queries[i], opts);
      }
    } catch (...) {
      out.errors[i] = std::current_exception();
    }
  }
  return out;
}

Session::Session(Database& db, SessionOptions opts)
    : db_(&db), opts_(std::move(opts)) {
  model_cache_ = opts_.models != nullptr
                     ? opts_.models
                     : std::make_shared<ModelCache>(opts_.model_cache_dir,
                                                    opts_.model_cache_tag);
}

Session::~Session() = default;

PreparedStatement Session::prepare(std::string_view sql_text) {
  std::lock_guard lock(plans_mutex_);
  // Catalog mutations can change FROM resolution; drop plans bound against
  // the old catalog rather than serving a stale target. The version is read
  // once so a registration racing this prepare invalidates on the next call
  // instead of leaving the cache permanently stale.
  const std::uint64_t version = db_->catalog_version();
  if (catalog_version_ != version) {
    plans_.clear();
    catalog_version_ = version;
  }
  auto it = plans_.find(sql_text);
  if (it == plans_.end()) {
    // Session miss: go through the Database-scope bind-once front door, so
    // N sessions (QueryService workers) racing the same uncached statement
    // bind it exactly once — one binds, the rest block on its claim and
    // leave with the shared plan as cache hits.
    std::shared_ptr<const Plan> plan = db_->find_or_bind(
        sql_text, [&] { return build_plan(sql_text); });
    it = plans_.emplace(plan->sql, std::move(plan)).first;
  }
  return PreparedStatement(*this, it->second);
}

std::shared_ptr<const Plan> Session::build_plan(std::string_view sql_text) {
  // Fault seam: binding sits before any shared state mutates (a throwing
  // bind releases the Database plan-cache claim), so an injected fault here
  // is transient — the service's retry re-binds cleanly.
  engine::fault_point(engine::FaultSeam::kPlanBind);
  auto plan = std::make_shared<Plan>();
  plan->sql = std::string(sql_text);
  const sql::Statement stmt = sql::parse_statement(plan->sql);
  plan->kind = stmt.kind;
  if (stmt.kind == sql::Statement::Kind::kUpdate) {
    // UPDATE targets resolve like FROM lists: a registered table by name,
    // else the default target (SSB updates name logical source tables the
    // pre-joined relation subsumes).
    const rel::Table& target = db_->resolve_target({stmt.update.table});
    plan->update = sql::bind_update(stmt.update, target.schema());
    plan->target = &target;
    return plan;
  }
  // The join path triggers only when EVERY name in a multi-table FROM list
  // is a registered table. Otherwise the seed semantics hold: SSB texts
  // naming logical source tables fall through to the default (pre-joined)
  // target, so the same query runs normalized or pre-joined depending only
  // on what the catalog holds.
  const std::vector<std::string>& from = stmt.select.from;
  bool join_path = from.size() > 1;
  for (const std::string& name : from) {
    if (!db_->has_table(name)) {
      join_path = false;
      break;
    }
  }
  if (join_path) {
    std::vector<sql::JoinTableRef> refs;
    refs.reserve(from.size());
    plan->join_tables.reserve(from.size());
    for (const std::string& name : from) {
      const rel::Table& t = db_->table(name);
      refs.push_back({name, &t.schema(), t.row_count()});
      plan->join_tables.push_back(&t);
    }
    plan->join = sql::bind_join(stmt.select, refs);
    plan->target = plan->join_tables[plan->join.fact];
    return plan;
  }
  const rel::Table& target = db_->resolve_target(stmt.select.from);
  plan->bound = sql::bind(stmt.select, target.schema());
  plan->target = &target;
  return plan;
}

ResultSet Session::execute_join(const Plan& plan, BackendKind backend,
                                const engine::ExecOptions& opts) {
  const sql::BoundJoin& jp = plan.join;
  const std::vector<std::vector<std::size_t>> attrs =
      engine::join_scan_attrs(jp);

  // Resolve the abort token ONCE for the whole join: the deadline covers
  // every per-table scan plus the host build/probe, not each scan afresh.
  engine::ExecOptions scan_opts = opts;
  scan_opts.cancel = engine::resolve_cancel(opts);

  // One snapshot-pinned scan per touched table. The scans run sequentially
  // through this session's executors; each pins exactly one store version,
  // reported per table in the result's table_versions().
  std::vector<engine::JoinScanInput> inputs(jp.table_names.size());
  std::vector<std::pair<std::string, std::uint64_t>> versions;
  versions.reserve(jp.table_names.size());
  engine::QueryStats stats;
  std::uint64_t fact_version = 0;
  for (std::size_t t = 0; t < jp.table_names.size(); ++t) {
    Executor& ex = executor_for(backend, *plan.join_tables[t]);
    engine::ScanOutput scan =
        ex.execute_scan(jp.filters[t], attrs[t], scan_opts);
    versions.emplace_back(jp.table_names[t], ex.last_data_version());
    if (t == jp.fact) {
      fact_version = ex.last_data_version();
      stats.selected_records = scan.stats.selected_records;
      stats.selectivity = scan.stats.selectivity;
    }
    // Scans are independent devices running back to back in the model:
    // latency, energy, and pruning effectiveness all add.
    stats.total_ns += scan.stats.total_ns;
    stats.phases.filter += scan.stats.phases.filter;
    stats.phases.transfer += scan.stats.phases.transfer;
    stats.phases.host_gb += scan.stats.phases.host_gb;
    stats.energy_j += scan.stats.energy_j;
    stats.energy_logic_j += scan.stats.energy_logic_j;
    stats.energy_read_j += scan.stats.energy_read_j;
    stats.energy_write_j += scan.stats.energy_write_j;
    stats.energy_controller_j += scan.stats.energy_controller_j;
    stats.energy_agg_circuit_j += scan.stats.energy_agg_circuit_j;
    stats.peak_chip_w = std::max(stats.peak_chip_w, scan.stats.peak_chip_w);
    stats.host_lines += scan.stats.host_lines;
    stats.pim_requests += scan.stats.pim_requests;
    stats.pages_skipped += scan.stats.pages_skipped;
    stats.pages_synthesized += scan.stats.pages_synthesized;
    stats.crossbars_skipped += scan.stats.crossbars_skipped;
    stats.predicates_short_circuited +=
        scan.stats.predicates_short_circuited;
    stats.filter_cache_hits += scan.stats.filter_cache_hits;
    stats.filter_cache_misses += scan.stats.filter_cache_misses;
    stats.classification_memo_hits += scan.stats.classification_memo_hits;
    // Each scan resets its module's wear, so a table's worst row is that
    // scan's; the join's worst-row writes sum them, as its latency does.
    stats.wear_row_writes += scan.stats.wear_row_writes;
    inputs[t].columns = std::move(scan.columns);
  }

  // Host-side partitioned hash join over the survivors; its build/probe CPU
  // time lands in the host-gb phase, the merge/sort in finalize.
  engine::JoinOutput joined =
      engine::hash_join_execute(jp, inputs, opts_.host, scan_opts.cancel);
  stats.phases.host_gb += joined.stats.build_ns + joined.stats.probe_ns;
  stats.phases.finalize += joined.stats.finalize_ns;
  stats.total_ns += joined.stats.build_ns + joined.stats.probe_ns +
                    joined.stats.finalize_ns;

  engine::QueryOutput out;
  out.rows = std::move(joined.rows);
  out.stats = stats;
  ResultSet rs(std::move(out), join_result_columns(jp, plan.join_tables),
               backend);
  rs.set_data_version(fact_version);
  rs.set_table_versions(std::move(versions));
  return rs;
}

ResultSet Session::execute(std::string_view sql_text,
                           const engine::ExecOptions& opts) {
  return prepare(sql_text).execute(opts);
}

ResultSet Session::execute(std::string_view sql_text, BackendKind backend,
                           const engine::ExecOptions& opts) {
  return prepare(sql_text).execute(backend, opts);
}

std::vector<Session::BatchItem> Session::execute_batch(
    const std::vector<std::string>& sqls, const engine::ExecOptions& opts,
    const std::vector<engine::CancelToken>& cancels) {
  return execute_batch(sqls, opts_.default_backend, opts, cancels);
}

std::vector<Session::BatchItem> Session::execute_batch(
    const std::vector<std::string>& sqls, BackendKind backend,
    const engine::ExecOptions& opts,
    const std::vector<engine::CancelToken>& cancels) {
  if (!cancels.empty() && cancels.size() != sqls.size()) {
    throw std::invalid_argument(
        "Session::execute_batch: cancels must be empty or one per statement");
  }
  const auto token_of = [&](std::size_t i) {
    return i < cancels.size() ? cancels[i] : engine::CancelToken{};
  };
  std::vector<BatchItem> items(sqls.size());

  // Front end, per statement: a text that fails to parse or bind carries
  // its own error without touching its batchmates.
  std::vector<std::shared_ptr<const Plan>> plans(sqls.size());
  for (std::size_t i = 0; i < sqls.size(); ++i) {
    try {
      plans[i] = prepare(sqls[i]).plan_;
    } catch (...) {
      items[i].error = std::current_exception();
    }
  }
  const auto batchable = [&](std::size_t i) {
    return items[i].error == nullptr && plans[i] != nullptr &&
           plans[i]->kind == sql::Statement::Kind::kSelect &&
           !plans[i]->is_join();
  };

  // Admission: single-table SELECTs group by target table (backend and
  // options are uniform across the call); a mixed-table batch splits into
  // one group per table. Groups form in first-statement order.
  struct Group {
    const rel::Table* target = nullptr;
    std::vector<std::size_t> members;  ///< item indices, statement order
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < sqls.size(); ++i) {
    if (!batchable(i)) continue;
    Group* g = nullptr;
    for (Group& cand : groups) {
      if (cand.target == plans[i]->target) {
        g = &cand;
        break;
      }
    }
    if (g == nullptr) {
      groups.push_back({plans[i]->target, {}});
      g = &groups.back();
    }
    g->members.push_back(i);
  }

  for (Group& g : groups) {
    // Duplicate texts share one plan (the cache interns by SQL text); the
    // engine executes each unique plan once and every duplicate copies the
    // result — the cheapest scan is the one that never runs. Members that
    // carry their own abort token are never interned: a cancelled member
    // must not take a duplicate's result (or fate) with it.
    std::vector<const Plan*> unique;
    std::vector<engine::CancelToken> unique_cancels;
    std::vector<std::size_t> slot_of(g.members.size());
    for (std::size_t m = 0; m < g.members.size(); ++m) {
      const std::size_t i = g.members[m];
      const Plan* p = plans[i].get();
      const engine::CancelToken tok = token_of(i);
      std::size_t u = unique.size();
      if (!tok.valid()) {
        for (u = 0; u < unique.size(); ++u) {
          if (unique[u] == p && !unique_cancels[u].valid()) break;
        }
      }
      if (u == unique.size()) {
        unique.push_back(p);
        unique_cancels.push_back(tok);
      }
      slot_of[m] = u;
    }
    std::vector<const sql::BoundQuery*> queries;
    queries.reserve(unique.size());
    for (const Plan* p : unique) queries.push_back(&p->bound);

    std::vector<std::size_t> dup_count(unique.size(), 0);
    for (const std::size_t u : slot_of) ++dup_count[u];

    bool any_token = false;
    for (const engine::CancelToken& t : unique_cancels) any_token |= t.valid();
    if (!any_token) unique_cancels.clear();

    Executor& ex = executor_for(backend, *g.target);
    engine::PimQueryEngine::BatchOutput out =
        ex.execute_many(queries, opts, unique_cancels);
    const std::uint64_t version = ex.last_data_version();
    for (std::size_t m = 0; m < g.members.size(); ++m) {
      const std::size_t i = g.members[m];
      if (out.errors[slot_of[m]] != nullptr) {
        items[i].error = out.errors[slot_of[m]];
        continue;
      }
      engine::QueryOutput qo = out.outputs[slot_of[m]];
      // batched_queries counts the statements whose answers this execution
      // produced. A fused member served the whole group (duplicates ride
      // along); an unfused one (engine fell back, or a singleton) still
      // served its own duplicates. 0 = genuinely solo, today's path.
      if (qo.stats.batched_queries > 0) {
        qo.stats.batched_queries = g.members.size();
      } else if (dup_count[slot_of[m]] > 1) {
        qo.stats.batched_queries = dup_count[slot_of[m]];
      }
      ResultSet rs(std::move(qo),
                   result_columns(plans[i]->bound, plans[i]->target->schema()),
                   backend);
      rs.set_data_version(version);
      items[i].result = std::move(rs);
    }
  }

  // Everything that cannot share a scan (UPDATEs, joins) runs after the
  // groups, in statement order, exactly as a plain execute() would.
  for (std::size_t i = 0; i < sqls.size(); ++i) {
    if (items[i].error != nullptr || plans[i] == nullptr || batchable(i)) {
      continue;
    }
    try {
      const engine::CancelToken tok = token_of(i);
      if (tok.valid()) {
        engine::ExecOptions member_opts = opts;
        member_opts.cancel = tok;
        items[i].result =
            PreparedStatement(*this, plans[i]).execute(backend, member_opts);
      } else {
        items[i].result = PreparedStatement(*this, plans[i]).execute(backend,
                                                                     opts);
      }
    } catch (...) {
      items[i].error = std::current_exception();
    }
  }
  return items;
}

std::string Session::explain(std::string_view sql_text) {
  return explain(sql_text, opts_.default_backend);
}

std::string Session::explain(std::string_view sql_text, BackendKind backend) {
  const PreparedStatement st = prepare(sql_text);
  if (st.is_update()) {
    throw std::invalid_argument(
        "explain: UPDATE statements have no physical plan rendering");
  }
  if (st.is_join()) {
    const Plan& plan = *st.plan_;
    std::ostringstream ss;
    engine::explain_join_tree(plan.join, plan.join_tables, ss);
    for (std::size_t t = 0; t < plan.join.table_names.size(); ++t) {
      ss << "-- scan " << plan.join.table_names[t] << " --\n"
         << executor_for(backend, *plan.join_tables[t])
                .explain_scan(plan.join.filters[t]);
    }
    return ss.str();
  }
  return executor_for(backend, st.target()).explain(st.bound());
}

void Session::set_default_backend(BackendKind backend) {
  opts_.default_backend = backend;
}

Executor& Session::executor(BackendKind backend) {
  return executor_for(backend, db_->default_target());
}

Executor& Session::executor(BackendKind backend, std::string_view table) {
  return executor_for(backend, db_->table(table));
}

Executor& Session::executor_for(BackendKind backend, const rel::Table& table) {
  const auto key = std::make_pair(backend, &table);
  std::lock_guard lock(executors_mutex_);
  auto it = executors_.find(key);
  if (it != executors_.end()) return *it->second;

  std::unique_ptr<Executor> ex;
  if (const auto kind = engine_kind_of(backend)) {
    ex = std::make_unique<PimExecutor>(*this, *kind, table);
  } else if (backend == BackendKind::kColumnar) {
    ex = std::make_unique<ColumnarExecutor>(*db_, table);
  } else {
    ex = std::make_unique<ReferenceExecutor>(*db_, table);
  }
  return *executors_.emplace(key, std::move(ex)).first->second;
}

const engine::LatencyModels& Session::models(engine::EngineKind kind) {
  return model_cache_->get_or_fit(kind, opts_.pim, opts_.host, opts_.fit,
                                  opts_.verbose);
}

void Session::set_models(engine::EngineKind kind, engine::LatencyModels m) {
  model_cache_->put(kind, std::move(m));
}

engine::PimQueryEngine& Session::pim_engine(engine::EngineKind kind) {
  return static_cast<PimExecutor&>(
             executor_for(backend_of(kind), db_->default_target()))
      .engine();
}

engine::PimQueryEngine& Session::pim_engine(engine::EngineKind kind,
                                            std::string_view table) {
  return static_cast<PimExecutor&>(
             executor_for(backend_of(kind), db_->table(table)))
      .engine();
}

}  // namespace bbpim::db
