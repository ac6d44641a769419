// Tests for the multi-table join path: normalized SSB flights 1-4 must be
// row-identical to the pre-joined execution (the acceptance bar of the
// normalized schema), on the reference backend for all 13 queries and on
// the one-xb PIM engine end to end. Plus the host hash join's duplicate-key
// cross product, empty build sides, the Database-scope plan cache, EXPLAIN
// of the join tree, the backends that must refuse, and the join's stats
// against its decomposed per-table scans.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "db/db.hpp"
#include "engine/hash_join.hpp"
#include "ssb/dbgen.hpp"
#include "ssb/queries.hpp"

namespace bbpim {
namespace {

/// One SSB world at a tiny scale factor, both catalogs: the normalized star
/// schema (all five tables registered -> join path) and the paper's
/// pre-joined relation (only it registered -> seed path). Generated once
/// for the whole binary.
struct JoinWorld {
  ssb::SsbData data;
  rel::Table prejoined;
  db::Database normalized;
  db::Database prejoined_db;

  JoinWorld() {
    ssb::SsbConfig cfg;
    cfg.scale_factor = 0.01;
    data = ssb::generate(cfg);
    prejoined = ssb::prejoin_ssb(data);
    normalized.attach_table(data.lineorder);
    normalized.attach_table(data.date);
    normalized.attach_table(data.customer);
    normalized.attach_table(data.supplier);
    normalized.attach_table(data.part);
    prejoined_db.attach_table(prejoined);
  }
};

JoinWorld& world() {
  static JoinWorld w;
  return w;
}

TEST(HashJoin, AllQueriesMatchPrejoinedOnReference) {
  JoinWorld& w = world();
  db::Session join_session(w.normalized);
  db::Session pre_session(w.prejoined_db);
  for (const ssb::SsbQuery& q : ssb::queries()) {
    const db::ResultSet joined =
        join_session.execute(q.sql, db::BackendKind::kReference);
    const db::ResultSet pre =
        pre_session.execute(q.sql, db::BackendKind::kReference);
    EXPECT_EQ(joined.rows(), pre.rows()) << "q" << q.id;
    // One pinned version per FROM table, all at the unmutated version 0.
    EXPECT_GE(joined.table_versions().size(), 2u) << "q" << q.id;
    for (const auto& [name, version] : joined.table_versions()) {
      EXPECT_EQ(version, 0u) << "q" << q.id << " table " << name;
    }
    EXPECT_TRUE(pre.table_versions().empty()) << "q" << q.id;
  }
}

TEST(HashJoin, AllQueriesMatchReferenceOnOneXbPim) {
  JoinWorld& w = world();
  db::Session session(w.normalized);
  for (const ssb::SsbQuery& q : ssb::queries()) {
    const db::ResultSet pim = session.execute(q.sql, db::BackendKind::kOneXb);
    const db::ResultSet ref =
        session.execute(q.sql, db::BackendKind::kReference);
    EXPECT_EQ(pim.rows(), ref.rows()) << "q" << q.id;
    // The PIM arm models its per-table scans; cost must be present.
    EXPECT_GT(pim.stats().total_ns, 0.0) << "q" << q.id;
    EXPECT_GT(pim.stats().phases.filter, 0.0) << "q" << q.id;
  }
}

// A star join's result carries the sum of its per-table scans' worst-row
// writes and classification-memo hits, as it does their latency.
TEST(HashJoin, StatsSumDecomposedScans) {
  JoinWorld& w = world();
  db::Session session(w.normalized);
  std::size_t memo_seen = 0;
  for (const bool prune : {false, true}) {
    engine::ExecOptions opts;
    opts.prune = prune;
    for (const ssb::SsbQuery& q : ssb::queries()) {
      const std::string sql(q.sql);
      session.execute(sql, db::BackendKind::kOneXb, opts);  // warm caches
      const db::ResultSet rs =
          session.execute(sql, db::BackendKind::kOneXb, opts);
      const db::PreparedStatement ps = session.prepare(sql);
      const sql::BoundJoin& jp = ps.join();
      const auto attrs = engine::join_scan_attrs(jp);
      double total_ns = 0;
      std::uint64_t wear = 0;
      std::size_t memo_hits = 0;
      for (std::size_t t = 0; t < jp.table_names.size(); ++t) {
        db::Executor& ex =
            session.executor(db::BackendKind::kOneXb, jp.table_names[t]);
        const engine::ScanOutput scan =
            ex.execute_scan(jp.filters[t], attrs[t], opts);
        total_ns += scan.stats.total_ns;
        wear += scan.stats.wear_row_writes;
        memo_hits += scan.stats.classification_memo_hits;
      }
      EXPECT_GT(wear, 0u) << "q" << q.id;
      EXPECT_EQ(rs.stats().wear_row_writes, wear) << "q" << q.id;
      EXPECT_EQ(rs.classification_memo_hits(), memo_hits) << "q" << q.id;
      EXPECT_GE(rs.stats().total_ns, total_ns) << "q" << q.id;  // + host join
      memo_seen += memo_hits;
    }
  }
  EXPECT_GT(memo_seen, 0u);  // the memo sum was exercised, not just 0 == 0
}

TEST(HashJoin, DuplicateBuildKeysYieldCrossProduct) {
  // A "dimension" with duplicate keys: each matching fact row must join
  // with every duplicate (odometer over the match lists).
  rel::Schema fact_schema{{{"fk", rel::DataType::kInt, 8, nullptr},
                           {"v", rel::DataType::kInt, 8, nullptr}}};
  rel::Table fact(fact_schema, "fact");
  fact.append_row(std::vector<std::uint64_t>{1, 10});
  fact.append_row(std::vector<std::uint64_t>{2, 20});

  rel::Schema dim_schema{{{"dk", rel::DataType::kInt, 8, nullptr},
                          {"w", rel::DataType::kInt, 8, nullptr}}};
  rel::Table dim(dim_schema, "dim");
  dim.append_row(std::vector<std::uint64_t>{1, 1});
  dim.append_row(std::vector<std::uint64_t>{1, 2});  // duplicate key 1
  dim.append_row(std::vector<std::uint64_t>{2, 3});

  db::Database database;
  database.register_table(std::move(fact));
  database.register_table(std::move(dim));
  db::Session session(database);

  // fk=1 matches twice, fk=2 once: SUM(v) = 10 + 10 + 20 = 40.
  const db::ResultSet rs = session.execute(
      "SELECT SUM(v) AS s FROM fact, dim WHERE fk = dk",
      db::BackendKind::kReference);
  ASSERT_EQ(rs.row_count(), 1u);
  EXPECT_EQ(rs.integer(0, 0), 40);

  // Grouping on the duplicate side sees both duplicate rows.
  const db::ResultSet grouped = session.execute(
      "SELECT w, SUM(v) AS s FROM fact, dim WHERE fk = dk GROUP BY w "
      "ORDER BY w",
      db::BackendKind::kReference);
  ASSERT_EQ(grouped.row_count(), 3u);
  EXPECT_EQ(grouped.integer(0, 0), 1);
  EXPECT_EQ(grouped.integer(0, 1), 10);
  EXPECT_EQ(grouped.integer(1, 0), 2);
  EXPECT_EQ(grouped.integer(1, 1), 10);
  EXPECT_EQ(grouped.integer(2, 0), 3);
  EXPECT_EQ(grouped.integer(2, 1), 20);
}

TEST(HashJoin, EmptyBuildSideYieldsEmptyJoin) {
  JoinWorld& w = world();
  db::Session session(w.normalized);
  // No date row has d_year = 1900: the build side is empty, every probe
  // misses, and the ungrouped aggregate returns the single zero row the
  // single-table engines produce for an empty selection.
  const db::ResultSet rs = session.execute(
      "SELECT SUM(lo_extendedprice) AS s FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey AND d_year = 1900",
      db::BackendKind::kReference);
  ASSERT_EQ(rs.row_count(), 1u);
  EXPECT_EQ(rs.integer(0, 0), 0);
}

TEST(HashJoin, QualifiedColumnsRunOnBothCatalogs) {
  JoinWorld& w = world();
  // Fully qualified text: binds through the join planner on the normalized
  // catalog and through the qualifier-dropping single-table binder on the
  // pre-joined one — same rows either way.
  const std::string sql =
      "SELECT d_year, SUM(lineorder.lo_extendedprice) AS rev "
      "FROM lineorder, date "
      "WHERE lineorder.lo_orderdate = date.d_datekey "
      "AND date.d_year = 1993 AND lineorder.lo_discount BETWEEN 1 AND 3 "
      "GROUP BY d_year ORDER BY d_year";
  db::Session join_session(w.normalized);
  db::Session pre_session(w.prejoined_db);
  const db::ResultSet joined =
      join_session.execute(sql, db::BackendKind::kReference);
  const db::ResultSet pre =
      pre_session.execute(sql, db::BackendKind::kReference);
  EXPECT_EQ(joined.rows(), pre.rows());
  ASSERT_GE(joined.row_count(), 1u);
}

TEST(HashJoin, DatabasePlanCacheSharesAcrossSessions) {
  JoinWorld& w = world();
  db::Database database;
  database.attach_table(w.data.lineorder);
  database.attach_table(w.data.date);
  const std::string sql = std::string(ssb::query("1.1").sql);

  db::Session s1(database);
  db::Session s2(database);
  const std::uint64_t hits_before = database.plan_cache_hits();
  s1.prepare(sql);
  EXPECT_EQ(database.plan_cache_size(), 1u);
  s2.prepare(sql);  // second session: Database-cache hit, no rebind
  EXPECT_EQ(database.plan_cache_size(), 1u);
  EXPECT_EQ(database.plan_cache_hits(), hits_before + 1);
  // Re-preparing in the same session hits the session cache, not the
  // database's.
  s2.prepare(sql);
  EXPECT_EQ(database.plan_cache_hits(), hits_before + 1);

  // Catalog mutation invalidates: the next prepare rebinds.
  database.attach_table(w.data.customer);
  s1.prepare(sql);
  EXPECT_EQ(database.plan_cache_size(), 1u);
  EXPECT_EQ(database.plan_cache_hits(), hits_before + 1);
}

TEST(HashJoin, ExplainRendersJoinTreeAndPerTableScans) {
  JoinWorld& w = world();
  db::Session session(w.normalized);
  const std::string plan = session.explain(std::string(ssb::query("3.1").sql),
                                           db::BackendKind::kOneXb);
  EXPECT_NE(plan.find("join plan: star over fact 'lineorder'"),
            std::string::npos);
  EXPECT_NE(plan.find("BUILD date"), std::string::npos);
  EXPECT_NE(plan.find("PROBE lineorder"), std::string::npos);
  EXPECT_NE(plan.find("-- scan customer --"), std::string::npos);
  EXPECT_NE(plan.find("ZONE MAP"), std::string::npos);
  EXPECT_NE(plan.find("GROUP BY:"), std::string::npos);
}

TEST(HashJoin, ColumnarBackendRefusesJoins) {
  JoinWorld& w = world();
  db::Session session(w.normalized);
  EXPECT_THROW(session.execute(std::string(ssb::query("1.1").sql),
                               db::BackendKind::kColumnar),
               std::invalid_argument);
}

TEST(HashJoin, PreparedStatementAccessors) {
  JoinWorld& w = world();
  db::Session session(w.normalized);
  db::PreparedStatement st = session.prepare(std::string(ssb::query("2.1").sql));
  EXPECT_TRUE(st.is_join());
  EXPECT_FALSE(st.is_update());
  EXPECT_EQ(st.target().name(), "lineorder");  // join fact
  EXPECT_EQ(st.join().table_names.size(), 4u);
  EXPECT_THROW(st.bound(), std::logic_error);

  db::Session pre_session(w.prejoined_db);
  db::PreparedStatement single =
      pre_session.prepare(std::string(ssb::query("2.1").sql));
  EXPECT_FALSE(single.is_join());
  EXPECT_THROW(single.join(), std::logic_error);
}

}  // namespace
}  // namespace bbpim
