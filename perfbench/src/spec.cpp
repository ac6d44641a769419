#include "spec.hpp"

#include <algorithm>
#include <stdexcept>

namespace pimbench {
namespace {

using bbpim::Rng;
using bbpim::rel::Table;

Pred eq(std::string col, Lit v) { return {std::move(col), Op::kEq, {v}}; }
Pred ge(std::string col, Lit v) { return {std::move(col), Op::kGe, {v}}; }
Pred le(std::string col, Lit v) { return {std::move(col), Op::kLe, {v}}; }
Pred lt(std::string col, Lit v) { return {std::move(col), Op::kLt, {v}}; }
Pred between(std::string col, Lit lo, Lit hi) {
  return {std::move(col), Op::kBetween, {lo, hi}};
}
Pred in(std::string col, std::vector<Lit> vs) {
  return {std::move(col), Op::kIn, std::move(vs)};
}
Lit num(std::int64_t v) { return Lit::of(v); }
Lit str(const char* v) { return Lit::of(std::string(v)); }

// The four flight shapes: what each selects, groups and orders by. Only
// the WHERE constants (and, in flight 3 and 4, the grouping level) vary.
QuerySpec flight1(std::string shape, std::vector<Pred> where) {
  QuerySpec q;
  q.shape = std::move(shape);
  q.agg = {Agg::Kind::kMul, "lo_extendedprice", "lo_discount", "revenue"};
  q.where = std::move(where);
  return q;
}

QuerySpec flight2(std::string shape, std::vector<Pred> where) {
  QuerySpec q;
  q.shape = std::move(shape);
  q.group_by = {"d_year", "p_brand1"};
  q.agg_first = true;
  q.agg = {Agg::Kind::kCol, "lo_revenue", "", "revenue"};
  q.where = std::move(where);
  q.order_by = {{"d_year"}, {"p_brand1"}};
  return q;
}

QuerySpec flight3(std::string shape, std::vector<std::string> groups,
                  std::vector<Pred> where) {
  QuerySpec q;
  q.shape = std::move(shape);
  q.group_by = std::move(groups);
  q.agg = {Agg::Kind::kCol, "lo_revenue", "", "revenue"};
  q.where = std::move(where);
  q.order_by = {{"d_year", false}, {"revenue", true}};
  return q;
}

QuerySpec flight4(std::string shape, std::vector<std::string> groups,
                  std::vector<Pred> where) {
  QuerySpec q;
  q.shape = std::move(shape);
  for (const std::string& g : groups) q.order_by.push_back({g});
  q.group_by = std::move(groups);
  q.agg = {Agg::Kind::kSub, "lo_revenue", "lo_supplycost", "profit"};
  q.where = std::move(where);
  return q;
}

std::size_t attr_of(const Table& t, std::string_view attr) {
  const auto a = t.schema().index_of(std::string(attr));
  if (!a) throw std::logic_error("no attribute " + std::string(attr));
  return *a;
}

Lit decoded(const Table& t, std::size_t attr, std::uint64_t code) {
  const auto& dict = t.schema().attribute(attr).dict;
  if (dict) return Lit::of(dict->value(code));
  return Lit::of(static_cast<std::int64_t>(code));
}

/// The value of `attr` in a uniformly drawn row of `t`: a constant present
/// in the data.
Lit pick(const Table& t, std::string_view attr, Rng& rng) {
  const std::size_t a = attr_of(t, attr);
  return decoded(t, a, t.value(rng.next_below(t.row_count()), a));
}

std::int64_t pick_num(const Table& t, std::string_view attr, Rng& rng) {
  return pick(t, attr, rng).num;
}

}  // namespace

std::string Lit::sql() const {
  return is_str ? "'" + str + "'" : std::to_string(num);
}

bool QuerySpec::groups_by(std::string_view col) const {
  return std::find(group_by.begin(), group_by.end(), col) != group_by.end();
}

namespace {

std::string where_sql(const std::vector<Pred>& where) {
  std::string out;
  for (const Pred& p : where) {
    out += out.empty() ? " WHERE " : " AND ";
    out += p.col;
    switch (p.op) {
      case Op::kEq: out += " = " + p.values[0].sql(); break;
      case Op::kLt: out += " < " + p.values[0].sql(); break;
      case Op::kLe: out += " <= " + p.values[0].sql(); break;
      case Op::kGe: out += " >= " + p.values[0].sql(); break;
      case Op::kBetween:
        out += " BETWEEN " + p.values[0].sql() + " AND " + p.values[1].sql();
        break;
      case Op::kIn: {
        out += " IN (";
        for (std::size_t i = 0; i < p.values.size(); ++i) {
          out += (i ? ", " : "") + p.values[i].sql();
        }
        out += ")";
        break;
      }
    }
  }
  return out;
}

}  // namespace

std::string QuerySpec::sql(std::string_view table) const {
  static const char* const kOps[] = {"", " * ", " - "};
  std::string agg_sql = "SUM(" + agg.a;
  if (agg.kind != Agg::Kind::kCol) {
    agg_sql += kOps[static_cast<int>(agg.kind)] + agg.b;
  }
  agg_sql += ") AS " + agg.alias;

  std::string items = agg_first || group_by.empty() ? agg_sql : "";
  for (const std::string& g : group_by) {
    items += (items.empty() ? "" : ", ") + g;
  }
  if (!agg_first && !group_by.empty()) items += ", " + agg_sql;

  std::string out = "SELECT " + items + " FROM " + std::string(table) +
                    where_sql(where);
  for (std::size_t i = 0; i < group_by.size(); ++i) {
    out += (i ? ", " : " GROUP BY ") + group_by[i];
  }
  for (std::size_t i = 0; i < order_by.size(); ++i) {
    out += (i ? ", " : " ORDER BY ") + order_by[i].col +
           (order_by[i].desc ? " DESC" : " ASC");
  }
  return out;
}

std::string UpdateSpec::sql(std::string_view table) const {
  return "UPDATE " + std::string(table) + " SET " + col + " = " +
         value.sql() + where_sql(where);
}

std::vector<QuerySpec> ssb_specs() {
  const std::vector<std::string> city3 = {"c_city", "s_city", "d_year"};
  const std::vector<Lit> ki = {str("UNITED KI1"), str("UNITED KI5")};
  return {
      flight1("1.1", {eq("d_year", num(1993)),
                      between("lo_discount", num(1), num(3)),
                      lt("lo_quantity", num(25))}),
      flight1("1.2", {eq("d_yearmonthnum", num(199401)),
                      between("lo_discount", num(4), num(6)),
                      between("lo_quantity", num(26), num(35))}),
      flight1("1.3", {eq("d_weeknuminyear", num(6)), eq("d_year", num(1994)),
                      between("lo_discount", num(5), num(7)),
                      between("lo_quantity", num(26), num(35))}),
      flight2("2.1", {eq("p_category", str("MFGR#12")),
                      eq("s_region", str("AMERICA"))}),
      flight2("2.2", {between("p_brand1", str("MFGR#2221"), str("MFGR#2228")),
                      eq("s_region", str("ASIA"))}),
      flight2("2.3", {eq("p_brand1", str("MFGR#2221")),
                      eq("s_region", str("EUROPE"))}),
      flight3("3.1", {"c_nation", "s_nation", "d_year"},
              {eq("c_region", str("ASIA")), eq("s_region", str("ASIA")),
               ge("d_year", num(1992)), le("d_year", num(1997))}),
      flight3("3.2", city3,
              {eq("c_nation", str("UNITED STATES")),
               eq("s_nation", str("UNITED STATES")), ge("d_year", num(1992)),
               le("d_year", num(1997))}),
      flight3("3.3", city3,
              {in("c_city", ki), in("s_city", ki), ge("d_year", num(1992)),
               le("d_year", num(1997))}),
      flight3("3.4", city3,
              {in("c_city", ki), in("s_city", ki),
               eq("d_yearmonth", str("Dec1997"))}),
      flight4("4.1", {"d_year", "c_nation"},
              {eq("c_region", str("AMERICA")), eq("s_region", str("AMERICA")),
               in("p_mfgr", {str("MFGR#1"), str("MFGR#2")})}),
      flight4("4.2", {"d_year", "s_nation", "p_category"},
              {eq("c_region", str("AMERICA")), eq("s_region", str("AMERICA")),
               in("d_year", {num(1997), num(1998)}),
               in("p_mfgr", {str("MFGR#1"), str("MFGR#2")})}),
      flight4("4.3", {"d_year", "s_city", "p_brand1"},
              {eq("s_nation", str("UNITED STATES")),
               in("d_year", {num(1997), num(1998)}),
               eq("p_category", str("MFGR#14"))}),
  };
}

QuerySpec adhoc_query(std::string_view shape, const bbpim::ssb::SsbData& data,
                      Rng& rng) {
  const Table& d = data.date;
  const Table& c = data.customer;
  const Table& s = data.supplier;
  const Table& p = data.part;
  const Table& lo = data.lineorder;
  const std::string id(shape);
  // Ranges keep the SSB widths (discount 3 values, quantity 10, years 6;
  // Q1.1's quantity bound stays in 20..30) and are anchored at a drawn
  // row's value, so the constants vary while selectivities stay near the
  // paper's.
  const auto discount = [&] {
    const std::int64_t a = std::min<std::int64_t>(pick_num(lo, "lo_discount", rng), 8);
    return between("lo_discount", num(a), num(a + 2));
  };
  const auto quantity_band = [&] {
    const std::int64_t q = std::min<std::int64_t>(pick_num(lo, "lo_quantity", rng), 41);
    return between("lo_quantity", num(q), num(q + 9));
  };
  const auto year_range = [&](std::vector<Pred>& where) {
    const std::int64_t y = std::min<std::int64_t>(pick_num(d, "d_year", rng), 1993);
    where.push_back(ge("d_year", num(y)));
    where.push_back(le("d_year", num(y + 5)));
  };
  const auto two_years = [&] {
    const std::int64_t y = std::min<std::int64_t>(pick_num(d, "d_year", rng), 1997);
    return in("d_year", {num(y), num(y + 1)});
  };

  if (id == "1.1") {
    const std::int64_t q = 20 + pick_num(lo, "lo_quantity", rng) % 11;
    return flight1(id, {eq("d_year", pick(d, "d_year", rng)), discount(),
                        lt("lo_quantity", num(q))});
  }
  if (id == "1.2") {
    return flight1(id, {eq("d_yearmonthnum", pick(d, "d_yearmonthnum", rng)),
                        discount(), quantity_band()});
  }
  if (id == "1.3") {
    const std::size_t row = rng.next_below(d.row_count());
    const std::size_t week = attr_of(d, "d_weeknuminyear");
    const std::size_t year = attr_of(d, "d_year");
    return flight1(id, {eq("d_weeknuminyear", decoded(d, week, d.value(row, week))),
                        eq("d_year", decoded(d, year, d.value(row, year))),
                        discount(), quantity_band()});
  }
  if (id == "2.1") {
    return flight2(id, {eq("p_category", pick(p, "p_category", rng)),
                        eq("s_region", pick(s, "s_region", rng))});
  }
  if (id == "2.2") {
    const std::size_t brand = attr_of(p, "p_brand1");
    const auto& dict = *p.schema().attribute(brand).dict;
    const std::uint64_t lo_code = p.value(rng.next_below(p.row_count()), brand);
    const std::uint64_t hi_code = std::min<std::uint64_t>(lo_code + 7, dict.size() - 1);
    return flight2(id, {between("p_brand1", Lit::of(dict.value(lo_code)),
                                Lit::of(dict.value(hi_code))),
                        eq("s_region", pick(s, "s_region", rng))});
  }
  if (id == "2.3") {
    return flight2(id, {eq("p_brand1", pick(p, "p_brand1", rng)),
                        eq("s_region", pick(s, "s_region", rng))});
  }
  if (id == "3.1") {
    std::vector<Pred> where = {eq("c_region", pick(c, "c_region", rng)),
                               eq("s_region", pick(s, "s_region", rng))};
    year_range(where);
    return flight3(id, {"c_nation", "s_nation", "d_year"}, std::move(where));
  }
  if (id == "3.2") {
    const Lit nation = pick(s, "s_nation", rng);
    std::vector<Pred> where = {eq("c_nation", nation), eq("s_nation", nation)};
    year_range(where);
    return flight3(id, {"c_city", "s_city", "d_year"}, std::move(where));
  }
  if (id == "3.3" || id == "3.4") {
    std::vector<Pred> where = {
        in("c_city", {pick(c, "c_city", rng), pick(c, "c_city", rng)}),
        in("s_city", {pick(s, "s_city", rng), pick(s, "s_city", rng)})};
    if (id == "3.3") {
      year_range(where);
    } else {
      where.push_back(eq("d_yearmonth", pick(d, "d_yearmonth", rng)));
    }
    return flight3(id, {"c_city", "s_city", "d_year"}, std::move(where));
  }
  if (id == "4.1" || id == "4.2") {
    const Lit region = pick(c, "c_region", rng);
    std::vector<Pred> where = {eq("c_region", region), eq("s_region", region)};
    if (id == "4.2") where.push_back(two_years());
    where.push_back(in("p_mfgr", {pick(p, "p_mfgr", rng), pick(p, "p_mfgr", rng)}));
    if (id == "4.1") return flight4(id, {"d_year", "c_nation"}, std::move(where));
    return flight4(id, {"d_year", "s_nation", "p_category"}, std::move(where));
  }
  if (id == "4.3") {
    return flight4(id, {"d_year", "s_city", "p_brand1"},
                   {eq("s_nation", pick(s, "s_nation", rng)), two_years(),
                    eq("p_category", pick(p, "p_category", rng))});
  }
  throw std::invalid_argument("unknown SSB shape " + id);
}

}  // namespace pimbench
