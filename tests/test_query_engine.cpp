// End-to-end correctness of the PIM query executor.
//
// Every engine variant (one-xb, two-xb, pimdb) must produce exactly the
// reference executor's rows for every query shape — no-group-by, group-by
// with any forced pim/host split (k = 0, 1, all), SUM over columns,
// products, differences, COUNT, MIN, MAX. Cost accounting sanity (positive
// phase times, energy categories, wear) is asserted alongside. Filter-only
// scans (the join feeder) are checked against a per-record walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "baseline/reference.hpp"
#include "engine_test_util.hpp"
#include "host/read_set.hpp"

namespace bbpim::engine {
namespace {

using baseline::scan_execute;
using testutil::EngineFixture;

void expect_same_rows(const std::vector<ResultRow>& got,
                      const std::vector<ResultRow>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].group, want[i].group) << what << " row " << i;
    EXPECT_EQ(got[i].agg, want[i].agg) << what << " row " << i;
  }
}

struct EngineCase {
  EngineKind kind;
  std::size_t force_k;
};

class AllEnginesAllSplits : public ::testing::TestWithParam<EngineCase> {};

TEST_P(AllEnginesAllSplits, GroupByMatchesReference) {
  const auto [kind, force_k] = GetParam();
  EngineFixture fx(kind, 900, 31);
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT f_gid, SUM(f_val) AS total FROM t WHERE f_key < 2048 "
      "GROUP BY f_gid ORDER BY f_gid");
  ExecOptions opts;
  opts.force_k = force_k;
  const QueryOutput out = fx.engine->execute(q, opts);
  const auto ref = scan_execute(*fx.table, q);
  expect_same_rows(out.rows, ref.rows,
                   std::string(engine_kind_name(kind)) + " k=" +
                       std::to_string(force_k));
  EXPECT_EQ(out.stats.selected_records, ref.selected_records);
  EXPECT_EQ(out.stats.pim_subgroups, std::min(force_k, out.stats.total_subgroups));
}

INSTANTIATE_TEST_SUITE_P(
    Splits, AllEnginesAllSplits,
    ::testing::Values(EngineCase{EngineKind::kOneXb, 0},
                      EngineCase{EngineKind::kOneXb, 1},
                      EngineCase{EngineKind::kOneXb, 3},
                      EngineCase{EngineKind::kOneXb, 100},
                      EngineCase{EngineKind::kTwoXb, 0},
                      EngineCase{EngineKind::kTwoXb, 2},
                      EngineCase{EngineKind::kTwoXb, 100},
                      EngineCase{EngineKind::kPimdb, 0},
                      EngineCase{EngineKind::kPimdb, 2},
                      EngineCase{EngineKind::kPimdb, 100}));

TEST(QueryEngine, NoGroupBySumProduct) {
  // SUM(a*b) exercises the per-multiplier-bit decomposition passes.
  for (const EngineKind kind :
       {EngineKind::kOneXb, EngineKind::kTwoXb, EngineKind::kPimdb}) {
    EngineFixture fx(kind, 700, 32);
    const sql::BoundQuery q = fx.bind_sql(
        "SELECT SUM(f_val * f_val2) AS x FROM t WHERE f_gid BETWEEN 1 AND 5");
    const QueryOutput out = fx.engine->execute(q);
    const auto ref = scan_execute(*fx.table, q);
    expect_same_rows(out.rows, ref.rows, engine_kind_name(kind));
  }
}

TEST(QueryEngine, NoGroupByDifference) {
  EngineFixture fx(EngineKind::kOneXb, 500, 33);
  // f_val - f_val2 can go negative per record; SUM must still be exact.
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT SUM(f_val - f_val2) AS x FROM t WHERE f_key >= 100");
  const QueryOutput out = fx.engine->execute(q);
  expect_same_rows(out.rows, scan_execute(*fx.table, q).rows, "sub");
}

TEST(QueryEngine, GroupByProductDecompositionWithGroups) {
  EngineFixture fx(EngineKind::kOneXb, 800, 34);
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT f_gid, SUM(f_val * f_val2) AS x FROM t WHERE f_key < 3000 "
      "GROUP BY f_gid ORDER BY f_gid");
  for (const std::size_t k : {std::size_t{0}, std::size_t{2}, std::size_t{100}}) {
    ExecOptions opts;
    opts.force_k = k;
    const QueryOutput out = fx.engine->execute(q, opts);
    expect_same_rows(out.rows, scan_execute(*fx.table, q).rows,
                     "mul k=" + std::to_string(k));
  }
}

TEST(QueryEngine, CountMinMax) {
  EngineFixture fx(EngineKind::kOneXb, 600, 35);
  {
    const sql::BoundQuery q = fx.bind_sql(
        "SELECT f_gid, COUNT(*) AS c FROM t WHERE f_val < 600 "
        "GROUP BY f_gid ORDER BY f_gid");
    ExecOptions opts;
    opts.force_k = 2;
    expect_same_rows(fx.engine->execute(q, opts).rows,
                     scan_execute(*fx.table, q).rows, "count");
  }
  {
    const sql::BoundQuery q = fx.bind_sql(
        "SELECT f_gid, MIN(f_val) AS m FROM t WHERE f_key < 3500 "
        "GROUP BY f_gid ORDER BY f_gid");
    ExecOptions opts;
    opts.force_k = 100;
    expect_same_rows(fx.engine->execute(q, opts).rows,
                     scan_execute(*fx.table, q).rows, "min");
  }
  {
    const sql::BoundQuery q = fx.bind_sql(
        "SELECT f_gid, MAX(f_val) AS m FROM t GROUP BY f_gid ORDER BY f_gid");
    ExecOptions opts;
    opts.force_k = 0;
    expect_same_rows(fx.engine->execute(q, opts).rows,
                     scan_execute(*fx.table, q).rows, "max");
  }
}

TEST(QueryEngine, EmptySelection) {
  EngineFixture fx(EngineKind::kOneXb, 400, 36);
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT f_gid, SUM(f_val) AS s FROM t WHERE f_key < 0 "
      "GROUP BY f_gid ORDER BY f_gid");
  ExecOptions opts;
  opts.force_k = 0;
  const QueryOutput out = fx.engine->execute(q, opts);
  EXPECT_TRUE(out.rows.empty());
  EXPECT_EQ(out.stats.selected_records, 0u);

  const sql::BoundQuery q2 =
      fx.bind_sql("SELECT SUM(f_val) AS s FROM t WHERE f_key < 0");
  const QueryOutput out2 = fx.engine->execute(q2);
  ASSERT_EQ(out2.rows.size(), 1u);  // no-group-by always yields one row
  EXPECT_EQ(out2.rows[0].agg, 0);
}

TEST(QueryEngine, OrderByAggDescending) {
  EngineFixture fx(EngineKind::kOneXb, 800, 37);
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT f_gid, d_tag, SUM(f_val) AS s FROM t WHERE f_key < 3000 "
      "GROUP BY f_gid, d_tag ORDER BY d_tag ASC, s DESC");
  ExecOptions opts;
  opts.force_k = 0;
  const QueryOutput out = fx.engine->execute(q, opts);
  expect_same_rows(out.rows, scan_execute(*fx.table, q).rows, "order");
  for (std::size_t i = 1; i < out.rows.size(); ++i) {
    const auto& a = out.rows[i - 1];
    const auto& b = out.rows[i];
    ASSERT_LE(a.group[1], b.group[1]);
    if (a.group[1] == b.group[1]) ASSERT_GE(a.agg, b.agg);
  }
}

TEST(QueryEngine, AccountingSanity) {
  EngineFixture fx(EngineKind::kOneXb, 900, 38);
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT f_gid, SUM(f_val) AS s FROM t WHERE f_key < 2048 "
      "GROUP BY f_gid ORDER BY f_gid");
  ExecOptions opts;
  opts.force_k = 2;
  const QueryOutput out = fx.engine->execute(q, opts);
  const QueryStats& st = out.stats;
  EXPECT_GT(st.total_ns, 0.0);
  EXPECT_NEAR(st.total_ns, st.phases.total(), 1e-6);
  EXPECT_GT(st.phases.filter, 0.0);
  EXPECT_GT(st.phases.sample, 0.0);
  EXPECT_GT(st.phases.pim_gb, 0.0);
  EXPECT_GT(st.phases.host_gb, 0.0);
  EXPECT_GT(st.energy_j, 0.0);
  EXPECT_GT(st.energy_logic_j, 0.0);
  EXPECT_GT(st.energy_read_j, 0.0);
  EXPECT_NEAR(st.energy_j,
              st.energy_logic_j + st.energy_read_j + st.energy_write_j +
                  st.energy_controller_j + st.energy_agg_circuit_j,
              st.energy_j * 1e-9);
  EXPECT_GT(st.peak_chip_w, 0.0);
  EXPECT_GT(st.wear_row_writes, 0u);
  EXPECT_GT(st.pim_requests, 0u);
  EXPECT_GT(st.host_lines, 0u);
  EXPECT_NEAR(st.selectivity,
              static_cast<double>(st.selected_records) / 900.0, 1e-12);
}

TEST(QueryEngine, PimdbCostsMoreThanCircuit) {
  // Same query, same forced split: the bit-serial baseline must burn more
  // aggregation time, energy, and wear than the aggregation circuit.
  const sql::BoundQuery* q_ptr = nullptr;
  QueryStats one, pimdb;
  {
    EngineFixture fx(EngineKind::kOneXb, 900, 39);
    const sql::BoundQuery q = fx.bind_sql(
        "SELECT f_gid, SUM(f_val) AS s FROM t GROUP BY f_gid ORDER BY f_gid");
    (void)q_ptr;
    ExecOptions opts;
    opts.force_k = 5;
    opts.skip_host_gb = true;
    one = fx.engine->execute(q, opts).stats;
  }
  {
    EngineFixture fx(EngineKind::kPimdb, 900, 39);
    const sql::BoundQuery q = fx.bind_sql(
        "SELECT f_gid, SUM(f_val) AS s FROM t GROUP BY f_gid ORDER BY f_gid");
    ExecOptions opts;
    opts.force_k = 5;
    opts.skip_host_gb = true;
    pimdb = fx.engine->execute(q, opts).stats;
  }
  EXPECT_GT(pimdb.phases.pim_gb, one.phases.pim_gb);
  EXPECT_GT(pimdb.energy_logic_j, one.energy_logic_j);
  EXPECT_GT(pimdb.wear_row_writes, one.wear_row_writes);
}

TEST(QueryEngine, TwoXbPaysTransferOverhead) {
  QueryStats one, two;
  {
    EngineFixture fx(EngineKind::kOneXb, 900, 40);
    const sql::BoundQuery q = fx.bind_sql(
        "SELECT d_tag, SUM(f_val) AS s FROM t WHERE f_key < 2048 "
        "GROUP BY d_tag ORDER BY d_tag");
    ExecOptions opts;
    opts.force_k = 2;
    one = fx.engine->execute(q, opts).stats;
  }
  {
    EngineFixture fx(EngineKind::kTwoXb, 900, 40);
    const sql::BoundQuery q = fx.bind_sql(
        "SELECT d_tag, SUM(f_val) AS s FROM t WHERE f_key < 2048 "
        "GROUP BY d_tag ORDER BY d_tag");
    ExecOptions opts;
    opts.force_k = 2;
    two = fx.engine->execute(q, opts).stats;
  }
  EXPECT_DOUBLE_EQ(one.phases.transfer, 0.0);
  EXPECT_GT(two.phases.transfer, 0.0);
  EXPECT_GT(two.total_ns, one.total_ns);
}

TEST(QueryEngine, MismatchedStoreKindRejected) {
  pim::PimConfig cfg = testutil::small_pim_config();
  pim::PimModule module(cfg);
  const rel::Table t = testutil::make_synthetic_table(100, 41);
  PimStore one_part(module, t);
  EXPECT_THROW(PimQueryEngine(EngineKind::kTwoXb, one_part, host::HostConfig{}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Filter-only scans against a per-record walk
// ---------------------------------------------------------------------------

/// The synthetic relation stable-sorted on f_key, so zone maps refute the
/// later pages of an `f_key < c` filter.
rel::Table clustered_table(std::size_t rows, std::uint64_t seed) {
  const rel::Table t = testutil::make_synthetic_table(rows, seed);
  const std::size_t nattrs = t.schema().attribute_count();
  std::vector<std::size_t> order(rows);
  for (std::size_t r = 0; r < rows; ++r) order[r] = r;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return t.value(a, 0) < t.value(b, 0);
  });
  rel::Table sorted(t.schema(), t.name());
  std::vector<std::uint64_t> row(nattrs);
  for (const std::size_t r : order) {
    for (std::size_t a = 0; a < nattrs; ++a) row[a] = t.value(r, a);
    sorted.append_row(row);
  }
  return sorted;
}

/// Per-record walk: survivors by the reference predicate semantics, their
/// codes from the table, and the host lines that touching every
/// (part, chunk) of `attrs` once per survivor reaches, per page.
struct ReferenceScan {
  std::vector<std::uint64_t> row_ids;
  std::vector<std::vector<std::uint64_t>> columns;
  std::vector<std::uint32_t> page_lines;
  std::size_t host_lines = 0;
};

ReferenceScan reference_scan(const PimStore& store,
                             const std::vector<sql::BoundPredicate>& filters,
                             const std::vector<std::size_t>& attrs) {
  const pim::PimConfig& cfg = store.module_config();
  std::set<std::uint32_t> chunks;
  for (const std::size_t a : attrs) {
    const pim::Field f = store.field(a);
    for (std::uint32_t c = f.offset / cfg.read_bits;
         c <= (f.offset + f.width - 1) / cfg.read_bits; ++c) {
      chunks.insert(static_cast<std::uint32_t>(store.part_of_attr(a)) *
                        cfg.chunks_per_row() +
                    c);
    }
  }
  ReferenceScan ref;
  ref.columns.resize(attrs.size());
  host::ReadSet rs(store.pages_per_part());
  const rel::Table& t = store.table();
  for (std::size_t r = 0; r < store.record_count(); ++r) {
    const bool pass = std::all_of(
        filters.begin(), filters.end(), [&](const sql::BoundPredicate& f) {
          return f.matches(t.value(r, f.attr));
        });
    if (!pass) continue;
    ref.row_ids.push_back(r);
    for (std::size_t a = 0; a < attrs.size(); ++a) {
      ref.columns[a].push_back(t.value(r, attrs[a]));
    }
    const auto page = static_cast<std::uint32_t>(r / store.records_per_page());
    const auto row = static_cast<std::uint32_t>(
        (r % store.records_per_page()) % cfg.crossbar_rows);
    for (const std::uint32_t c : chunks) rs.touch(page, row, c);
  }
  ref.page_lines = rs.per_page_lines();
  ref.host_lines = rs.unique_lines();
  return ref;
}

TEST(ScanParity, MatchesPerRecordWalk) {
  const std::string filters_sql[] = {
      "f_key < 40",                    // sparse
      "f_key >= 100",                  // dense
      "f_key < 1200 AND d_tag <= 3",   // clustered prefix, both parts
      "f_key > 5000",                  // empty (outside the domain)
  };
  // 1000 records at 256 per page: the last page holds 232, its last block 40.
  const rel::Table table = clustered_table(1000, 59);
  std::size_t pruned_pages = 0;
  for (const EngineKind kind : {EngineKind::kOneXb, EngineKind::kTwoXb}) {
    pim::PimModule module(testutil::small_pim_config());
    PimStore::Options opt;
    if (kind == EngineKind::kTwoXb) {
      opt.two_crossbar = true;
      opt.part_of = [](const std::string& name) {
        return name.rfind("f_", 0) == 0 ? 0 : 1;
      };
    }
    PimStore store(module, table, opt);
    PimQueryEngine engine(kind, store, host::HostConfig{});
    const std::vector<std::size_t> attrs = {1, 4, 2, 0};  // f_gid, d_tag, ...
    const double line_j = static_cast<double>(store.module_config().line_bytes()) *
                          8 * store.module_config().read_energy_pj_per_bit *
                          units::kJoulePerPj;
    for (const std::string& where : filters_sql) {
      const sql::BoundQuery q = sql::bind(
          sql::parse("SELECT COUNT(*) FROM t WHERE " + where), table.schema());
      const ReferenceScan ref = reference_scan(store, q.filters, attrs);
      for (const bool prune : {false, true}) {
        const std::string what = std::string(kind == EngineKind::kOneXb
                                                  ? "one-xb "
                                                  : "two-xb ") +
                                 where + (prune ? " pruned" : "");
        ExecOptions eo;
        eo.prune = prune;
        engine.execute_scan(q.filters, attrs, eo);  // warm the filter cache
        const ScanOutput got = engine.execute_scan(q.filters, attrs, eo);
        EXPECT_EQ(got.row_ids, ref.row_ids) << what;
        EXPECT_EQ(got.columns, ref.columns) << what;
        EXPECT_EQ(got.stats.host_lines, ref.host_lines) << what;
        EXPECT_EQ(got.stats.selected_records, ref.row_ids.size()) << what;
        pruned_pages += got.stats.pages_skipped;

        // Modeled cost of the readback alone: against the same warm scan
        // reading back no attributes, the host lines add their streaming
        // time (page-per-thread split) and their read energy, nothing else.
        const ScanOutput bare = engine.execute_scan(q.filters, {}, eo);
        EXPECT_EQ(bare.stats.host_lines, 0u) << what;
        EXPECT_EQ(got.stats.phases.filter, bare.stats.phases.filter) << what;
        EXPECT_EQ(got.stats.energy_logic_j, bare.stats.energy_logic_j) << what;
        EXPECT_EQ(got.stats.wear_row_writes, bare.stats.wear_row_writes) << what;
        const double lines_ns =
            host::lines_phase_time_ns(ref.page_lines, engine.host_config());
        const double tol = 1e-9 * std::max(1.0, got.stats.total_ns);
        EXPECT_NEAR(got.stats.phases.host_gb - bare.stats.phases.host_gb,
                    lines_ns, tol)
            << what;
        EXPECT_NEAR(got.stats.total_ns - bare.stats.total_ns, lines_ns, tol)
            << what;
        EXPECT_NEAR(got.stats.energy_read_j - bare.stats.energy_read_j,
                    static_cast<double>(ref.host_lines) * line_j,
                    1e-9 * std::max(1e-12, got.stats.energy_read_j))
            << what;
      }
    }
  }
  EXPECT_GT(pruned_pages, 0u);  // the pruned runs did skip pages
}

}  // namespace
}  // namespace bbpim::engine
