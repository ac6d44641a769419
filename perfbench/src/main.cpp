// pimbench: the repository benchmark.
//
//   pimbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file>]
//
// Every workload is one process with one client thread in a closed loop
// against a one-worker db::QueryService with sim_threads 1, over SSB data
// generated at SF 0.1 from --seed. Latency models are fitted in memory with
// the facade's default grid; nothing is read from or written to disk. A run
// sets up several times (setup_s is the median), calibrates the machine,
// measures whole rounds for --seconds, then checks every result against
// the benchmark's own evaluator and prints one JSON object as the last line
// of stdout. See README.md for the workloads and metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "db/db.hpp"
#include "db/snapshot_manager.hpp"
#include "engine/hash_join.hpp"
#include "evaluator.hpp"
#include "pim/endurance.hpp"
#include "record.hpp"
#include "spec.hpp"
#include "ssb/dbgen.hpp"
#include "ssb/queries.hpp"
#include "trace.hpp"

#ifndef PIMBENCH_BUILD_TYPE
#define PIMBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace bbpim;
using pimbench::Evaluator;
using pimbench::QuerySpec;
using pimbench::Tracer;
using pimbench::UpdateSpec;
using Clock = std::chrono::steady_clock;

constexpr double kScaleFactor = 0.1;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 3;
/// htap_adhoc: steps per round (one UPDATE, then one read per SSB flight).
constexpr std::size_t kHtapSteps = 4;
/// htap_adhoc: the modeled metrics cover exactly this many leading rounds,
/// and every run measures at least that many, so they repeat per seed.
constexpr std::size_t kHtapModeledRounds = 8;
constexpr const char* kTable = "ssb_prejoined";

enum class Workload { kPrejoined, kStarJoin, kHtap };

struct Args {
  Workload workload = Workload::kPrejoined;
  std::string name;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.name = v;
      if (v == "ssb_prejoined") a.workload = Workload::kPrejoined;
      else if (v == "ssb_star_join") a.workload = Workload::kStarJoin;
      else if (v == "htap_adhoc") a.workload = Workload::kHtap;
      else throw std::invalid_argument("unknown workload " + v);
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
      if (!(a.seconds > 0 && a.seconds <= 600)) {
        throw std::invalid_argument("--seconds must be in (0, 600]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    throw std::invalid_argument(
        "usage: pimbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--trace-out <file>]");
  }
  return a;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (0 for an empty sample).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Stable re-sort of a relation by one attribute: the order a chronological
/// fact load produces.
rel::Table cluster_by(const rel::Table& t, const std::string& attr) {
  const std::size_t a = *t.schema().index_of(attr);
  std::vector<std::size_t> order(t.row_count());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return t.value(i, a) < t.value(j, a);
  });
  rel::Table out(t.schema(), t.name());
  out.reserve(t.row_count());
  std::vector<std::uint64_t> row(t.schema().attribute_count());
  for (const std::size_t r : order) {
    for (std::size_t k = 0; k < row.size(); ++k) row[k] = t.value(r, k);
    out.append_row(row);
  }
  return out;
}

// --- the statement stream ----------------------------------------------------

/// One statement as the client issues it.
struct Stmt {
  std::size_t round = 0;
  bool is_update = false;
  /// Index into Stream::queries or Stream::updates.
  std::size_t spec = 0;
  std::string sql;
  /// Data version the statement must observe (an UPDATE: the one it makes).
  std::uint64_t version = 0;
  /// htap_adhoc: the first read grouping by s_city after an s_city rename.
  bool cold = false;
};

/// The deterministic statement sequence of a workload, generated round by
/// round from the seed (never from timing).
class Stream {
 public:
  Stream(Workload w, const ssb::SsbData& data, std::uint64_t seed)
      : workload_(w), data_(&data), rng_(seed * 0x9e3779b97f4a7c15ULL + 0x5eed) {
    if (w != Workload::kHtap) {
      queries = pimbench::ssb_specs();
      return;
    }
    const auto& s = data.supplier;
    s_city_ = s.column(*s.schema().index_of("s_city"));
  }

  std::vector<QuerySpec> queries;
  std::vector<UpdateSpec> updates;
  std::vector<Stmt> stmts;

  /// Appends the next round. Pre-joined and star join: one pass over the
  /// 13 SSB texts. htap_adhoc: kHtapSteps steps, each one UPDATE alone and
  /// then one read per SSB flight in flight together. The first step's
  /// UPDATE renames an s_city and its reads group by s_city (3.2, 4.3); the
  /// other steps edit lo_discount and read flight 1 (rotating 1.1-1.3), 2.1,
  /// 3.1 and 4.1. Every round has the same shapes, and the edit steps share
  /// one cost profile, so round times and the read-latency median compare
  /// across runs; only the constants come from the seed.
  void next_round() {
    const std::size_t round = rounds_++;
    if (workload_ != Workload::kHtap) {
      const auto texts = ssb::queries();
      for (std::size_t i = 0; i < texts.size(); ++i) {
        stmts.push_back({round, false, i, std::string(texts[i].sql), 0, false});
      }
      return;
    }
    for (std::size_t step = 0; step < kHtapSteps; ++step) {
      add_update(round, step == 0 ? rename() : discount_edit());
      const std::vector<std::string> shapes =
          step == 0 ? std::vector<std::string>{"1.3", "2.3", "3.2", "4.3"}
                    : std::vector<std::string>{"1." + std::to_string(step), "2.1",
                                               "3.1", "4.1"};
      for (const std::string& shape : shapes) {
        add_read(round, pimbench::adhoc_query(shape, *data_, rng_));
      }
    }
  }

  /// Reads for the untimed first pass of htap_adhoc: one per SSB shape.
  void first_pass_reads() {
    for (const ssb::SsbQuery& q : ssb::queries()) {
      add_read(0, pimbench::adhoc_query(q.id, *data_, rng_));
    }
  }

 private:
  void add_read(std::size_t round, QuerySpec q) {
    Stmt st{round, false, queries.size(), q.sql(kTable), version_, false};
    if (cold_pending_ && q.groups_by("s_city")) {
      st.cold = true;
      cold_pending_ = false;
    }
    queries.push_back(std::move(q));
    stmts.push_back(std::move(st));
  }

  void add_update(std::size_t round, UpdateSpec u) {
    stmts.push_back({round, true, updates.size(), u.sql(kTable), ++version_, false});
    updates.push_back(std::move(u));
  }

  /// Renames the current city of a drawn supplier to the city of a drawn
  /// customer (a value present in the data, and a different one).
  UpdateSpec rename() {
    const auto& dict = *data_->supplier.schema()
                            .attribute(*data_->supplier.schema().index_of("s_city"))
                            .dict;
    const auto& c = data_->customer;
    const std::size_t c_city = *c.schema().index_of("c_city");
    const std::uint64_t from = s_city_[rng_.next_below(s_city_.size())];
    std::uint64_t to = from;
    while (to == from) to = c.value(rng_.next_below(c.row_count()), c_city);
    for (std::uint64_t& code : s_city_) {
      if (code == from) code = to;
    }
    cold_pending_ = true;
    return {"s_city", pimbench::Lit::of(dict.value(to)),
            {{"s_city", pimbench::Op::kEq, {pimbench::Lit::of(dict.value(from))}}}};
  }

  /// Rewrites lo_discount from one value to another on a 30-day window of
  /// order dates.
  UpdateSpec discount_edit() {
    const auto& lo = data_->lineorder;
    const std::size_t date = *lo.schema().index_of("lo_orderdate");
    const auto start = static_cast<std::int64_t>(
        std::min<std::uint64_t>(lo.value(rng_.next_below(lo.row_count()), date), 2525));
    const auto from = static_cast<std::int64_t>(rng_.next_below(11));
    const auto to = static_cast<std::int64_t>((from + 1 + rng_.next_below(10)) % 11);
    using pimbench::Lit;
    using pimbench::Op;
    return {"lo_discount", Lit::of(to),
            {{"lo_orderdate", Op::kBetween, {Lit::of(start), Lit::of(start + 29)}},
             {"lo_discount", Op::kEq, {Lit::of(from)}}}};
  }

  Workload workload_;
  const ssb::SsbData* data_;
  Rng rng_;
  std::size_t rounds_ = 0;
  std::uint64_t version_ = 0;
  bool cold_pending_ = false;
  /// The supplier cities as the program will hold them after the updates
  /// generated so far (renames pick a city that is present).
  std::vector<std::uint64_t> s_city_;
};

// --- star join, decomposed -----------------------------------------------------

/// A star-join SELECT run as the program's single call runs it, but one
/// public call at a time: execute_scan per table, then hash_join_execute.
struct Decomposed {
  std::vector<engine::ResultRow> rows;
  /// Summed as the single call sums them, plus the scans' worst-row writes,
  /// which the single call's result does not carry.
  engine::QueryStats stats;
  std::size_t rows_read_back = 0;
  engine::JoinStats join;
  double scan_ms = 0;
  double join_ms = 0;
};

/// One executed statement.
struct Done {
  std::size_t stmt = 0;  ///< index into Stream::stmts
  std::optional<db::ResultSet> rs;
  /// Star join, traced: the statement ran decomposed instead.
  std::optional<Decomposed> dec;
  std::string error;
  Clock::time_point submit, settle;
  double latency_ms() const { return ms_between(submit, settle); }
};

/// The statements of one timed window.
struct Window {
  std::vector<Done> done;
  std::vector<double> round_ms;
  std::size_t first_round = 0;
  Clock::time_point start, end;
  double cpu_ms = 0;
  std::size_t plan_binds = 0;
  double seconds() const { return ms_between(start, end) / 1e3; }
  double throughput() const { return done.size() / seconds(); }
};

// --- set-up -------------------------------------------------------------------

/// Everything one set-up builds. Members are destroyed in reverse order:
/// the service before the catalog, the catalog before the data it attaches.
struct World {
  std::unique_ptr<ssb::SsbData> data;
  std::unique_ptr<db::Database> db;
  std::shared_ptr<db::ModelCache> models;
  std::unique_ptr<db::QueryService> service;
  db::SessionOptions session;
  db::BackendKind backend = db::BackendKind::kOneXb;
  std::unique_ptr<Stream> stream;
  /// The untimed pass that ends set-up.
  std::vector<Done> first_pass;
};

std::vector<Done> settle_all(std::vector<std::pair<std::size_t, Clock::time_point>> sent,
                             std::vector<std::future<db::ResultSet>>& futures) {
  std::vector<Done> out;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    Done d;
    d.stmt = sent[i].first;
    d.submit = sent[i].second;
    try {
      d.rs = futures[i].get();
    } catch (const std::exception& e) {
      d.error = e.what();
    }
    d.settle = Clock::now();
    out.push_back(std::move(d));
  }
  return out;
}

std::unique_ptr<World> set_up(Workload w, std::uint64_t seed, Tracer& tr) {
  Tracer::Scope setup(tr, "setup");
  auto world = std::make_unique<World>();
  ssb::SsbConfig cfg;
  cfg.scale_factor = kScaleFactor;
  cfg.seed = seed;
  {
    Tracer::Scope s(tr, "ssb.generate");
    world->data = std::make_unique<ssb::SsbData>(ssb::generate(cfg));
  }
  world->db = std::make_unique<db::Database>();
  if (w == Workload::kStarJoin) {
    Tracer::Scope s(tr, "db.register");
    for (const rel::Table* t : {&world->data->lineorder, &world->data->date,
                                &world->data->customer, &world->data->supplier,
                                &world->data->part}) {
      world->db->attach_table(*t);
    }
  } else {
    rel::Table pre;
    {
      Tracer::Scope s(tr, "ssb.prejoin");
      pre = ssb::prejoin_ssb(*world->data);
    }
    if (w == Workload::kHtap) {
      Tracer::Scope s(tr, "ssb.cluster");
      pre = cluster_by(pre, "lo_orderdate");
    }
    Tracer::Scope s(tr, "db.register");
    world->db->register_table(std::move(pre));
  }

  world->backend = w == Workload::kHtap ? db::BackendKind::kTwoXb
                                        : db::BackendKind::kOneXb;
  world->models = std::make_shared<db::ModelCache>();
  db::SessionOptions& so = world->session;
  so.host.sim_threads = 1;
  so.host.prune = w == Workload::kHtap;
  so.default_backend = world->backend;
  so.models = world->models;
  {
    Tracer::Scope s(tr, "engine.fit");
    world->models->get_or_fit(*db::engine_kind_of(world->backend), so.pim,
                              so.host, so.fit);
  }
  db::QueryServiceOptions qo;
  qo.workers = 1;
  qo.session = so;
  qo.shared_scan.enabled = w == Workload::kHtap;
  world->service = std::make_unique<db::QueryService>(*world->db, qo);
  {
    Tracer::Scope s(tr, "db.warm_up");
    world->service->warm_up(world->backend);
  }

  // One untimed pass over the workload's statement shapes: lazy loads,
  // first-touch statistics and the caches land here, not in the window.
  world->stream = std::make_unique<Stream>(w, *world->data, seed);
  Stream& stream = *world->stream;
  Tracer::Scope s(tr, "db.first_pass");
  if (w == Workload::kHtap) {
    stream.first_pass_reads();
  } else {
    stream.next_round();
  }
  std::vector<std::pair<std::size_t, Clock::time_point>> sent;
  std::vector<std::future<db::ResultSet>> futures;
  for (std::size_t i = 0; i < stream.stmts.size(); ++i) {
    sent.emplace_back(i, Clock::now());
    futures.push_back(world->service->submit(stream.stmts[i].sql));
    // htap_adhoc's reads go in flight together, the others one at a time.
    if (w != Workload::kHtap || i + 1 == stream.stmts.size()) {
      for (Done& d : settle_all(std::move(sent), futures)) {
        world->first_pass.push_back(std::move(d));
      }
      sent.clear();
      futures.clear();
    }
  }
  return world;
}

// --- star join, decomposed -----------------------------------------------------

Decomposed run_decomposed(db::Session& session, const std::string& sql,
                          Tracer& tr, std::uint64_t stmt) {
  Decomposed out;
  const db::PreparedStatement ps = session.prepare(sql);
  const sql::BoundJoin& jp = ps.join();
  const auto attrs = engine::join_scan_attrs(jp);
  std::vector<engine::JoinScanInput> inputs(jp.table_names.size());
  for (std::size_t t = 0; t < jp.table_names.size(); ++t) {
    db::Executor& ex = session.executor(session.default_backend(), jp.table_names[t]);
    const Clock::time_point start = Clock::now();
    engine::ScanOutput scan;
    {
      Tracer::Scope s(tr, "engine.scan", stmt);
      scan = ex.execute_scan(jp.filters[t], attrs[t], {});
    }
    out.scan_ms += ms_between(start, Clock::now());
    engine::QueryStats& q = out.stats;
    q.total_ns += scan.stats.total_ns;
    q.phases.filter += scan.stats.phases.filter;
    q.phases.transfer += scan.stats.phases.transfer;
    q.phases.host_gb += scan.stats.phases.host_gb;
    q.host_lines += scan.stats.host_lines;
    q.pages_skipped += scan.stats.pages_skipped;
    q.crossbars_skipped += scan.stats.crossbars_skipped;
    q.predicates_short_circuited += scan.stats.predicates_short_circuited;
    q.filter_cache_hits += scan.stats.filter_cache_hits;
    q.filter_cache_misses += scan.stats.filter_cache_misses;
    q.wear_row_writes += scan.stats.wear_row_writes;
    q.energy_j += scan.stats.energy_j;
    q.energy_logic_j += scan.stats.energy_logic_j;
    q.energy_read_j += scan.stats.energy_read_j;
    q.energy_write_j += scan.stats.energy_write_j;
    q.energy_controller_j += scan.stats.energy_controller_j;
    q.energy_agg_circuit_j += scan.stats.energy_agg_circuit_j;
    out.rows_read_back += scan.row_ids.size();
    inputs[t].columns = std::move(scan.columns);
  }
  const Clock::time_point start = Clock::now();
  engine::JoinOutput joined;
  {
    Tracer::Scope s(tr, "engine.hash_join", stmt);
    joined = engine::hash_join_execute(jp, inputs, session.options().host);
  }
  out.join_ms = ms_between(start, Clock::now());
  out.stats.phases.host_gb += joined.stats.build_ns + joined.stats.probe_ns;
  out.stats.phases.finalize += joined.stats.finalize_ns;
  out.stats.total_ns += joined.stats.build_ns + joined.stats.probe_ns +
                        joined.stats.finalize_ns;
  out.rows = std::move(joined.rows);
  out.join = joined.stats;
  return out;
}

// --- output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pimbench: " << e.what() << "\n";
    return 2;
  }
  const Workload w = args.workload;
  Tracer tr(args.trace);
  std::vector<std::string> failures;  // check mismatches
  const auto fail = [&](const std::string& what) {
    if (failures.size() < 20) std::cerr << "MISMATCH: " << what << "\n";
    failures.push_back(what);
  };

  // --- set up kSetups times; keep the last ----------------------------------
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (std::size_t k = 0; k < kSetups; ++k) {
    world.reset();
    pimbench::release_free_memory();
    const Clock::time_point start = k == 0 ? process_start : Clock::now();
    world = set_up(w, args.seed, tr);
    setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
  }
  Stream* st = world->stream.get();
  const std::vector<Done>& first_pass = world->first_pass;
  for (const Done& d : first_pass) {
    if (!d.error.empty()) fail("first pass: " + d.error);
  }

  // Benchmark-owned session on the served catalog (star-join decomposition,
  // traced UPDATEs), and a side catalog over the same tables for timing
  // Session::prepare on new texts without touching the served plan cache.
  auto own = std::make_unique<db::Session>(*world->db, world->session);
  std::unique_ptr<db::Database> side_db;
  std::unique_ptr<db::Session> side;
  if (args.trace) {
    side_db = std::make_unique<db::Database>();
    for (const std::string& name : world->db->table_names()) {
      side_db->attach_table(world->db->table(name));
    }
    side = std::make_unique<db::Session>(*side_db, world->session);
    // The traced window calls these executors directly; build them first.
    for (const std::string& name : world->db->table_names()) {
      own->executor(world->backend, name);
    }
  }

  // --- run record ---------------------------------------------------------------
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double spin_before_ms = pimbench::calibration_spin_ms();
  const auto parallel = pimbench::parallel_spin_ms(nproc);
  pimbench::release_free_memory();

  // --- the timed window -----------------------------------------------------------
  db::QueryService& svc = *world->service;
  std::vector<double> prepare_us;
  std::set<std::string> prepared;  // texts already timed on the side session
  const auto side_prepare = [&](const std::string& sql) {
    if (!prepared.insert(sql).second) return;
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope s(tr, "sql.prepare");
      side->prepare(sql);
    }
    prepare_us.push_back(ms_between(t0, Clock::now()) * 1e3);
  };
  const auto record_service_spans = [&](const Done& d, int parent) {
    if (!d.rs) return;
    const auto q_end = d.submit + std::chrono::microseconds(d.rs->queue_wait_us());
    tr.add("db.queue", d.submit, q_end, parent, d.stmt);
    tr.add("db.service", q_end, q_end + std::chrono::microseconds(d.rs->service_us()),
           parent, d.stmt);
  };
  // Whole rounds until `seconds` have passed (htap_adhoc: and at least its
  // modeled rounds). A traced window times Session::prepare on every new
  // text, runs star joins decomposed and UPDATEs through execute_update.
  const auto run_window = [&](double seconds, bool traced) {
    Window win;
    const std::size_t plans_before = world->db->plan_cache_size();
    const double cpu_before = pimbench::process_cpu_ms();
    win.start = Clock::now();
    for (std::size_t round = 0;; ++round) {
      const bool enough = w == Workload::kHtap ? round >= kHtapModeledRounds : round >= 1;
      if (enough && ms_between(win.start, Clock::now()) / 1e3 >= seconds) break;
      const std::size_t begin = st->stmts.size();
      st->next_round();
      if (round == 0) win.first_round = st->stmts[begin].round;
      const Clock::time_point round_start = Clock::now();
      std::vector<std::pair<std::size_t, Clock::time_point>> sent;
      std::vector<std::future<db::ResultSet>> futures;
      for (std::size_t i = begin; i < st->stmts.size(); ++i) {
        const Stmt& s = st->stmts[i];
        if (traced) side_prepare(s.sql);
        if (traced && (w == Workload::kStarJoin || s.is_update)) {
          Done d;
          d.stmt = i;
          Tracer::Scope span(tr, "stmt", i);
          d.submit = Clock::now();
          try {
            if (s.is_update) {
              const db::PreparedStatement ps = own->prepare(s.sql);
              Tracer::Scope u(tr, "db.update", i);
              const db::UpdateResult ur =
                  own->executor(world->backend).execute_update(ps.bound_update(), {});
              d.rs = db::ResultSet(ur.stats, world->backend);
              d.rs->set_data_version(ur.data_version);
            } else {
              d.dec = run_decomposed(*own, s.sql, tr, i);
            }
          } catch (const std::exception& e) {
            d.error = e.what();
          }
          d.settle = Clock::now();
          win.done.push_back(std::move(d));
          continue;
        }
        sent.emplace_back(i, Clock::now());
        futures.push_back(svc.submit(s.sql));
        // UPDATEs run alone; the pre-joined and star-join loops keep one
        // statement in flight; the reads of one htap step are in flight
        // together and settle before the next UPDATE is sent.
        const bool step_ends =
            i + 1 == st->stmts.size() || st->stmts[i + 1].is_update;
        if (w != Workload::kHtap || s.is_update || step_ends) {
          for (Done& d : settle_all(std::move(sent), futures)) {
            if (traced) record_service_spans(d, tr.add("stmt", d.submit, d.settle, -1, d.stmt));
            win.done.push_back(std::move(d));
          }
          sent.clear();
          futures.clear();
        }
      }
      win.round_ms.push_back(ms_between(round_start, Clock::now()));
    }
    win.end = Clock::now();
    win.cpu_ms = pimbench::process_cpu_ms() - cpu_before;
    win.plan_binds = world->db->plan_cache_size() - plans_before;
    return win;
  };
  // A traced run first measures an untraced window of the same length: the
  // tracing overhead is the throughput between the two.
  std::optional<Window> untraced_part;
  if (args.trace) untraced_part = run_window(args.seconds, false);
  const pimbench::HostTicks ticks_before = pimbench::host_ticks();
  const Window win = run_window(args.seconds, args.trace);
  const pimbench::HostTicks ticks_after = pimbench::host_ticks();
  // The live footprint the workload built up: what stays resident once the
  // allocator returns its free pages (the three set-ups and the window's
  // transient buffers leave a slack that varies from run to run).
  pimbench::release_free_memory();
  const double rss_mb = pimbench::current_rss_mb();
  const double spin_after_ms = pimbench::calibration_spin_ms();
  const std::vector<Done>& done = win.done;
  const double window_s = win.seconds();
  const std::size_t first_round = win.first_round;

  // --- checks -------------------------------------------------------------------
  const std::vector<std::string> tables = world->db->table_names();
  const bool two_xb = world->backend == db::BackendKind::kTwoXb;
  const auto manager = [&](const std::string& name) -> db::SnapshotManager& {
    return world->db->snapshot_manager(world->db->table(name), two_xb,
                                       world->session.pim);
  };
  std::uint64_t published = 0;
  for (const std::string& t : tables) published += manager(t).published_count();

  // A statement repeated at the same data version reports identical modeled
  // time and energy: every pass repeats the 13 texts; htap_adhoc re-submits
  // the reads after its last UPDATE.
  std::map<std::size_t, const Done*> first_of_spec;
  const auto same_model = [&](const engine::QueryStats& a,
                              const engine::QueryStats& b, const std::string& what) {
    if (a.total_ns != b.total_ns || a.energy_j != b.energy_j) {
      fail(what + ": modeled time/energy differ on a repeat at one data version");
    }
  };
  if (w == Workload::kHtap) {
    std::vector<std::pair<std::size_t, Clock::time_point>> sent;
    std::vector<std::future<db::ResultSet>> futures;
    std::vector<const Done*> originals;
    for (const Done& d : done) {
      if (!st->stmts[d.stmt].is_update && d.rs &&
          st->stmts[d.stmt].version == st->stmts.back().version) {
        sent.emplace_back(d.stmt, Clock::now());
        futures.push_back(svc.submit(st->stmts[d.stmt].sql));
        originals.push_back(&d);
      }
    }
    const auto again = settle_all(std::move(sent), futures);
    for (std::size_t k = 0; k < again.size(); ++k) {
      if (!again[k].rs) {
        fail("repeat of " + st->stmts[again[k].stmt].sql + ": " + again[k].error);
        continue;
      }
      same_model(again[k].rs->stats(), originals[k]->rs->stats(),
                 st->stmts[again[k].stmt].sql);
    }
  }

  // Star join: one public call at a time must give the single call's rows
  // and modeled time. Traced runs decomposed every timed statement; others
  // decompose one pass here.
  std::map<std::size_t, Decomposed> dec_of_spec;
  if (w == Workload::kStarJoin) {
    std::map<std::size_t, const Done*> single;
    for (const Done& d : first_pass) single[st->stmts[d.stmt].spec] = &d;
    const auto check_dec = [&](const Decomposed& dec, std::size_t spec) {
      const Done* one = single[spec];
      if (one == nullptr || !one->rs) return;
      if (dec.rows != one->rs->rows()) {
        fail("SSB " + st->queries[spec].shape + ": decomposed rows differ from the single call");
      }
      if (dec.stats.total_ns != one->rs->stats().total_ns) {
        fail("SSB " + st->queries[spec].shape + ": decomposed modeled time differs");
      }
    };
    for (const Done& d : done) {
      if (d.dec) check_dec(*d.dec, st->stmts[d.stmt].spec);
    }
    for (const Done& d : first_pass) {
      const std::size_t spec = st->stmts[d.stmt].spec;
      if (args.trace || !d.rs) continue;
      try {
        dec_of_spec.emplace(spec, run_decomposed(*own, st->stmts[d.stmt].sql, tr, 0));
        check_dec(dec_of_spec.at(spec), spec);
      } catch (const std::exception& e) {
        fail("SSB " + st->queries[spec].shape + " decomposed: " + e.what());
      }
    }
    for (const Done& d : done) {
      if (d.dec) dec_of_spec.emplace(st->stmts[d.stmt].spec, *d.dec);
    }
  }

  // No snapshot is left live once the service and every session are gone:
  // each manager keeps only its current version.
  svc.shutdown();
  own.reset();
  side.reset();
  std::int64_t live_at_end = 0;
  for (const std::string& t : tables) {
    const std::int64_t live = manager(t).live_snapshots();
    live_at_end += live;
    if (live != 1) {
      fail(t + ": " + std::to_string(live) + " snapshots live after shutdown");
    }
  }

  // Every output against the evaluator, replaying the updates in order.
  Evaluator ev(*world->data);
  std::map<std::size_t, std::vector<pimbench::EvalRow>> expected;  // no updates
  std::size_t attempted = 0, failed = 0;
  std::map<std::string, std::pair<std::size_t, std::size_t>> per_kind;
  const auto check = [&](const Done& d, bool timed) {
    const Stmt& s = st->stmts[d.stmt];
    const std::string kind = s.is_update ? "update"
                             : w == Workload::kStarJoin ? "join_select"
                                                        : "select";
    if (timed) {
      ++attempted;
      ++per_kind[kind].first;
    }
    if (!d.error.empty() || (!d.rs && !d.dec)) {
      if (timed) {
        ++failed;
        ++per_kind[kind].second;
      }
      std::cerr << "failed: " << s.sql << ": " << d.error << "\n";
      return;
    }
    if (s.is_update) {
      const std::size_t want = ev.update(st->updates[s.spec]);
      if (d.rs->updated_records() != want) {
        fail(s.sql + ": updated " + std::to_string(d.rs->updated_records()) +
             " records, expected " + std::to_string(want));
      }
      if (d.rs->data_version() != s.version) fail(s.sql + ": wrong data version");
      return;
    }
    if (d.dec) return;  // rows checked against the single call above
    const QuerySpec& q = st->queries[s.spec];
    if (w == Workload::kHtap) {
      if (d.rs->data_version() != s.version) {
        fail(s.sql + ": read data version " + std::to_string(d.rs->data_version()) +
             ", expected " + std::to_string(s.version));
      }
    } else if (!expected.count(s.spec)) {
      expected[s.spec] = ev.select(q);
    }
    const std::string diff = compare_rows(
        *d.rs, q, w == Workload::kHtap ? ev.select(q) : expected.at(s.spec));
    if (!diff.empty()) fail(s.sql + ": " + diff);
    const std::string order = check_order(*d.rs, q);
    if (!order.empty()) fail(s.sql + ": " + order);
    if (w != Workload::kHtap) {
      const auto [it, fresh] = first_of_spec.emplace(s.spec, &d);
      if (!fresh) same_model(d.rs->stats(), it->second->rs->stats(), s.sql);
    }
  };
  for (const Done& d : first_pass) check(d, false);
  if (untraced_part) {
    for (const Done& d : untraced_part->done) check(d, true);
  }
  for (const Done& d : done) check(d, true);

  // --- metrics ------------------------------------------------------------------
  // What a caller sees, per window: read, cold-read and UPDATE latencies.
  struct Latencies {
    std::vector<double> read_ms, cold_ms, update_ms;
    double modeled_update_ns = 0;  ///< over the window's UPDATEs
  };
  const auto latencies = [&](const Window& wnd) {
    Latencies l;
    for (const Done& d : wnd.done) {
      if (!d.error.empty()) continue;
      const Stmt& s = st->stmts[d.stmt];
      if (s.is_update) {
        l.update_ms.push_back(d.latency_ms());
        l.modeled_update_ns += d.rs->update_stats().total_ns;
      } else {
        l.read_ms.push_back(d.latency_ms());
        if (s.cold) l.cold_ms.push_back(d.latency_ms());
      }
    }
    return l;
  };
  // The traced run reports its end-to-end figures from its untraced window.
  const Latencies lat = latencies(untraced_part ? *untraced_part : win);

  std::vector<double> queue_ms, service_ms;
  double modeled_read_ns = 0, modeled_read_j = 0, modeled_update_ns = 0;
  double modeled_wear = 0;
  std::size_t modeled_reads = 0;
  std::vector<const engine::QueryStats*> read_stats;  // timed reads
  std::vector<const Decomposed*> read_decs;
  std::vector<const db::ResultSet*> update_rs;
  for (const Done& d : done) {
    const Stmt& s = st->stmts[d.stmt];
    if (!d.error.empty()) continue;
    const bool modeled = w == Workload::kHtap
                             ? s.round < first_round + kHtapModeledRounds
                             : s.round == first_round;
    if (s.is_update) {
      update_rs.push_back(&*d.rs);
      if (modeled) {
        modeled_update_ns += d.rs->update_stats().total_ns;
        modeled_wear += static_cast<double>(d.rs->update_stats().wear_row_writes);
      }
      continue;
    }
    const engine::QueryStats& qs = d.dec ? d.dec->stats : d.rs->stats();
    read_stats.push_back(&qs);
    if (d.dec) read_decs.push_back(&*d.dec);
    if (d.rs) {
      queue_ms.push_back(d.rs->queue_wait_us() / 1e3);
      service_ms.push_back(d.rs->service_us() / 1e3);
    }
    if (modeled) {
      modeled_read_ns += qs.total_ns;
      modeled_read_j += qs.energy_j;
      // Star-join results do not carry the scans' worst-row writes; the
      // decomposed run of the same text does.
      const auto dec = dec_of_spec.find(s.spec);
      modeled_wear += static_cast<double>(
          w == Workload::kStarJoin && dec != dec_of_spec.end()
              ? dec->second.stats.wear_row_writes
              : qs.wear_row_writes);
      ++modeled_reads;
    }
  }
  const pim::EnduranceReport endurance = pim::endurance_report(
      static_cast<std::uint64_t>(modeled_wear), modeled_read_ns + modeled_update_ns,
      world->session.pim);
  const double stmts_done = static_cast<double>(done.size());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"throughput_sps", stmts_done / window_s, "stmt/s"},
        {"pass_ms", median(win.round_ms), "ms"},
        {"read_p50_ms", median(lat.read_ms), "ms"},
        {"modeled_read_ms", modeled_read_ns / 1e6 / modeled_reads, "ms"},
        {"modeled_read_uj", modeled_read_j * 1e6 / modeled_reads, "uJ"},
        {"modeled_lifetime_years", endurance.lifetime_years, "years"},
        {"rss_mb", rss_mb, "MB"},
    };
  } else {
    const auto per_read = [&](auto field) {
      double sum = 0;
      for (const engine::QueryStats* q : read_stats) sum += field(*q);
      return read_stats.empty() ? 0.0 : sum / read_stats.size();
    };
    const auto per_dec = [&](auto field) {
      double sum = 0;
      for (const Decomposed* d : read_decs) sum += field(*d);
      return read_decs.empty() ? 0.0 : sum / read_decs.size();
    };
    // Mean duration of one span of `name`, in seconds.
    const auto span_s = [&](const char* name) {
      const Tracer::Layer l = tr.layer(name);
      return l.count ? l.total_ms / 1e3 / l.count : 0.0;
    };
    double cache_hits = 0, cache_lookups = 0;
    for (const engine::QueryStats* q : read_stats) {
      cache_hits += q->filter_cache_hits;
      cache_lookups += q->filter_cache_hits + q->filter_cache_misses;
    }
    double updated = 0;
    for (const db::ResultSet* r : update_rs) updated += r->updated_records();
    const Tracer::Layer stmt_layer = tr.layer("stmt");
    metrics = {
        {"ssb.generate_s", span_s("ssb.generate"), "s"},
        {"ssb.prejoin_s", span_s("ssb.prejoin"), "s"},
        {"ssb.cluster_s", span_s("ssb.cluster"), "s"},
        {"engine.fit_s", span_s("engine.fit"), "s"},
        {"db.warm_up_s", span_s("db.warm_up"), "s"},
        {"db.first_pass_s", span_s("db.first_pass"), "s"},
        {"sql.prepare_us", median(prepare_us), "us"},
        {"db.plan_cache_hit_ratio",
         1.0 - static_cast<double>(win.plan_binds) / std::max(1.0, stmts_done), "ratio"},
        {"db.queue_wait_ms", median(queue_ms), "ms"},
        {"db.service_ms", median(service_ms), "ms"},
        {"db.batch_size",
         per_read([](const auto& q) { return std::max<double>(1, q.batched_queries); }),
         "stmt"},
        {"engine.fused_page_passes", per_read([](const auto& q) { return q.fused_page_passes; }), "count"},
        {"engine.phase.filter_us", per_read([](const auto& q) { return q.phases.filter; }) / 1e3, "us"},
        {"engine.phase.transfer_us", per_read([](const auto& q) { return q.phases.transfer; }) / 1e3, "us"},
        {"engine.phase.sample_us", per_read([](const auto& q) { return q.phases.sample; }) / 1e3, "us"},
        {"engine.phase.plan_us", per_read([](const auto& q) { return q.phases.plan; }) / 1e3, "us"},
        {"engine.phase.pim_gb_us", per_read([](const auto& q) { return q.phases.pim_gb; }) / 1e3, "us"},
        {"engine.phase.host_gb_us", per_read([](const auto& q) { return q.phases.host_gb; }) / 1e3, "us"},
        {"engine.phase.finalize_us", per_read([](const auto& q) { return q.phases.finalize; }) / 1e3, "us"},
        {"engine.pim_subgroups", per_read([](const auto& q) { return q.pim_subgroups; }), "count"},
        {"host.host_lines", per_read([](const auto& q) { return q.host_lines; }), "count"},
        {"engine.pages_skipped", per_read([](const auto& q) { return q.pages_skipped; }), "count"},
        {"engine.crossbars_skipped", per_read([](const auto& q) { return q.crossbars_skipped; }), "count"},
        {"engine.predicates_short_circuited",
         per_read([](const auto& q) { return q.predicates_short_circuited; }), "count"},
        {"engine.group_pages_skipped", per_read([](const auto& q) { return q.group_pages_skipped; }), "count"},
        {"engine.filter_cache_hit_ratio", cache_lookups ? cache_hits / cache_lookups : 0.0, "ratio"},
        {"engine.memo_hits", per_read([](const auto& q) { return q.classification_memo_hits; }), "count"},
        {"engine.scan_ms", per_dec([](const Decomposed& d) { return d.scan_ms; }), "ms"},
        {"engine.rows_read_back", per_dec([](const Decomposed& d) { return d.rows_read_back; }), "count"},
        {"engine.hash_join_ms", per_dec([](const Decomposed& d) { return d.join_ms; }), "ms"},
        {"engine.probe_rows", per_dec([](const Decomposed& d) { return d.join.probe_rows; }), "count"},
        {"engine.joined_rows", per_dec([](const Decomposed& d) { return d.join.joined_rows; }), "count"},
        {"engine.join_build_us", per_dec([](const Decomposed& d) { return d.join.build_ns; }) / 1e3, "us"},
        {"engine.join_probe_us", per_dec([](const Decomposed& d) { return d.join.probe_ns; }) / 1e3, "us"},
        {"pim.energy.logic_uj", per_read([](const auto& q) { return q.energy_logic_j; }) * 1e6, "uJ"},
        {"pim.energy.read_uj", per_read([](const auto& q) { return q.energy_read_j; }) * 1e6, "uJ"},
        {"pim.energy.write_uj", per_read([](const auto& q) { return q.energy_write_j; }) * 1e6, "uJ"},
        {"pim.energy.controller_uj", per_read([](const auto& q) { return q.energy_controller_j; }) * 1e6, "uJ"},
        {"pim.energy.agg_circuit_uj", per_read([](const auto& q) { return q.energy_agg_circuit_j; }) * 1e6, "uJ"},
        {"pim.row_writes", per_read([](const auto& q) { return q.wear_row_writes; }), "count"},
        {"db.update_ms", span_s("db.update") * 1e3, "ms"},
        {"db.updated_records", update_rs.empty() ? 0.0 : updated / update_rs.size(), "count"},
        {"db.snapshots_published", static_cast<double>(published), "count"},
        {"db.snapshots_live_at_end", static_cast<double>(live_at_end), "count"},
        {"host.cpu_ms_per_stmt", win.cpu_ms / std::max(1.0, stmts_done), "ms"},
        {"bench.trace_overhead_pct",
         (untraced_part->throughput() / win.throughput() - 1) * 100, "%"},
        {"bench.uncovered_ms", stmt_layer.count ? stmt_layer.self_ms / stmt_layer.count : 0.0, "ms"},
        {"read_p95_ms", quantile(lat.read_ms, 0.95), "ms"},
        {"cold_read_p50_ms", median(lat.cold_ms), "ms"},
        {"update_p50_ms", median(lat.update_ms), "ms"},
        {"modeled_update_us",
         lat.update_ms.empty() ? 0.0 : lat.modeled_update_ns / 1e3 / lat.update_ms.size(),
         "us"},
    };
  }

  // --- report ---------------------------------------------------------------------
  std::cout << "pimbench " << args.name << " seed " << args.seed << ": "
            << done.size() << " statements in " << window_s << " s, "
            << win.round_ms.size() << " rounds; resident " << rss_mb
            << " MB after the window, peak " << pimbench::peak_rss_mb()
            << " MB over the process\n";
  if (w != Workload::kHtap) {
    std::cout << "  rows per SSB text:";
    for (const Done& d : first_pass) {
      std::cout << " " << st->queries[st->stmts[d.stmt].spec].shape << "="
                << (d.rs ? std::to_string(d.rs->row_count()) : "-");
    }
    std::cout << "\n";
  }
  for (const auto& [kind, counts] : per_kind) {
    std::cout << "  " << kind << ": attempted " << counts.first << ", failed "
              << counts.second << "\n";
  }
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (args.trace) {
    tr.print_table(std::cout);
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << "{\"workload\": \"" << args.name << "\", \"seed\": " << args.seed
          << ", \"metrics\": " << metrics_json(metrics) << ", \"trace\": "
          << tr.json() << "}\n";
    }
  }
  // Shares of the whole machine's CPU time during the timed window: a
  // neighbour's load shows as busy time we did not cause, and as steal.
  const auto share = [&](unsigned long long ticks) {
    const unsigned long long total = ticks_after.total - ticks_before.total;
    return total ? 100.0 * static_cast<double>(ticks) / static_cast<double>(total) : 0.0;
  };
  std::string spins;
  for (const auto& [n, ms] : parallel) {
    spins += (spins.empty() ? "" : ", ") + std::string("{\"threads\": ") +
             std::to_string(n) + ", \"ms\": " + json_number(ms) +
             ", \"parallelism\": " + json_number(n * parallel.front().second / ms) + "}";
  }
  std::cout << "{\"record\": {\"workload\": \"" << args.name
            << "\", \"seed\": " << args.seed << ", \"scale_factor\": "
            << kScaleFactor << ", \"build_type\": \"" << PIMBENCH_BUILD_TYPE
            << "\", \"nproc\": " << nproc
            << ", \"client_threads\": 1, \"service_workers\": 1"
            << ", \"sim_threads\": 1, \"setups\": " << kSetups
            << ", \"window_s\": " << json_number(window_s)
            << ", \"spin_before_ms\": " << json_number(spin_before_ms)
            << ", \"spin_after_ms\": " << json_number(spin_after_ms)
            << ", \"host_busy_pct\": " << json_number(share(ticks_after.total - ticks_after.idle -
                                                           (ticks_before.total - ticks_before.idle)))
            << ", \"host_steal_pct\": " << json_number(share(ticks_after.steal - ticks_before.steal))
            << ", \"spin\": [" << spins << "]}}\n";

  const bool correct = failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return correct ? 0 : 1;
}
