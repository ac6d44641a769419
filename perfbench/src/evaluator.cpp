#include "evaluator.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace pimbench {
namespace {

using bbpim::rel::Table;

/// Dimension tables of the star: key column of the dimension and the
/// lineorder column that references it.
struct Edge {
  const char* prefix;
  const char* dim_key;
  const char* fact_fk;
};
constexpr Edge kEdges[] = {
    {"lo_", "", ""},
    {"d_", "d_datekey", "lo_orderdate"},
    {"c_", "c_custkey", "lo_custkey"},
    {"s_", "s_suppkey", "lo_suppkey"},
    {"p_", "p_partkey", "lo_partkey"},
};

std::size_t attr_index(const Table& t, const std::string& name) {
  const auto a = t.schema().index_of(name);
  if (!a) throw std::invalid_argument("evaluator: no column " + name);
  return *a;
}

}  // namespace

Evaluator::Evaluator(const bbpim::ssb::SsbData& data) {
  tables_ = {&data.lineorder, &data.date, &data.customer, &data.supplier,
             &data.part};
  const Table& fact = data.lineorder;
  for (int t = kDate; t < kTabs; ++t) {
    const Table& dim = *tables_[t];
    const auto& keys = dim.column(attr_index(dim, kEdges[t].dim_key));
    std::vector<std::int64_t> row_of_key(
        *std::max_element(keys.begin(), keys.end()) + 1, -1);
    for (std::size_t r = 0; r < keys.size(); ++r) row_of_key[keys[r]] = r;
    const auto& fks = fact.column(attr_index(fact, kEdges[t].fact_fk));
    dim_row_[t].resize(fks.size());
    fan_in_[t].assign(dim.row_count(), 0);
    for (std::size_t r = 0; r < fks.size(); ++r) {
      if (fks[r] >= row_of_key.size() || row_of_key[fks[r]] < 0) {
        throw std::runtime_error("evaluator: dangling foreign key");
      }
      dim_row_[t][r] = static_cast<std::uint32_t>(row_of_key[fks[r]]);
      ++fan_in_[t][dim_row_[t][r]];
    }
  }
}

Evaluator::Col Evaluator::column(const std::string& name) const {
  for (int t = 0; t < kTabs; ++t) {
    if (name.rfind(kEdges[t].prefix, 0) != 0) continue;
    Col c;
    c.tab = static_cast<Tab>(t);
    c.attr = attr_index(*tables_[t], name);
    c.meta = &tables_[t]->schema().attribute(c.attr);
    const auto it = written_.find({t, c.attr});
    c.codes = it != written_.end() ? &it->second
                                   : &tables_[t]->column(c.attr);
    return c;
  }
  throw std::invalid_argument("evaluator: no table for column " + name);
}

std::string Evaluator::decode(const Col& c, std::uint64_t code) const {
  return c.meta->dict ? c.meta->dict->value(code) : std::to_string(code);
}

namespace {

/// `v op literals` on one comparable type (strings or integers).
template <typename T>
bool holds(Op op, const T& v, const std::vector<T>& lits) {
  switch (op) {
    case Op::kEq: return v == lits[0];
    case Op::kLt: return v < lits[0];
    case Op::kLe: return v <= lits[0];
    case Op::kGe: return v >= lits[0];
    case Op::kBetween: return lits[0] <= v && v <= lits[1];
    case Op::kIn:
      return std::find(lits.begin(), lits.end(), v) != lits.end();
  }
  return false;
}

}  // namespace

Evaluator::BoundPred Evaluator::bind(const Pred& p) const {
  BoundPred b;
  b.col = column(p.col);
  b.op = p.op;
  if (b.col.meta->dict) {
    std::vector<std::string> lits;
    for (const Lit& l : p.values) {
      if (!l.is_str) throw std::invalid_argument("evaluator: " + p.col);
      lits.push_back(l.str);
    }
    const auto& dict = *b.col.meta->dict;
    b.code_mask.resize(dict.size());
    for (std::uint64_t code = 0; code < dict.size(); ++code) {
      b.code_mask[code] = holds(p.op, dict.value(code), lits);
    }
  } else {
    for (const Lit& l : p.values) {
      if (l.is_str) throw std::invalid_argument("evaluator: " + p.col);
      b.nums.push_back(l.num);
    }
  }
  return b;
}

bool Evaluator::BoundPred::test(std::uint64_t code) const {
  if (col.meta->dict) return code < code_mask.size() && code_mask[code];
  return holds(op, static_cast<std::int64_t>(code), nums);
}

std::vector<EvalRow> Evaluator::select(const QuerySpec& q) const {
  // Dimension predicates collapse into one pass flag per dimension row.
  std::vector<BoundPred> fact_preds;
  std::array<std::vector<BoundPred>, kTabs> dim_preds;
  for (const Pred& p : q.where) {
    BoundPred b = bind(p);
    (b.col.tab == kFact ? fact_preds : dim_preds[b.col.tab]).push_back(b);
  }
  std::array<std::vector<std::uint8_t>, kTabs> dim_pass;
  for (int t = kDate; t < kTabs; ++t) {
    if (dim_preds[t].empty()) continue;
    dim_pass[t].assign(tables_[t]->row_count(), 1);
    for (const BoundPred& b : dim_preds[t]) {
      for (std::size_t d = 0; d < dim_pass[t].size(); ++d) {
        dim_pass[t][d] &= b.test((*b.col.codes)[d]);
      }
    }
  }

  std::vector<Col> groups;
  for (const std::string& g : q.group_by) groups.push_back(column(g));
  const Col a = column(q.agg.a);
  const Col b = q.agg.kind == Agg::Kind::kCol ? a : column(q.agg.b);

  std::map<std::vector<std::uint64_t>, std::int64_t> sums;
  std::int64_t total = 0;
  std::vector<std::uint64_t> key(groups.size());
  const std::size_t n = tables_[kFact]->row_count();
  for (std::size_t r = 0; r < n; ++r) {
    bool pass = true;
    for (const BoundPred& p : fact_preds) {
      if (!p.test(at(p.col, r))) {
        pass = false;
        break;
      }
    }
    for (int t = kDate; pass && t < kTabs; ++t) {
      pass = dim_pass[t].empty() || dim_pass[t][dim_row_[t][r]];
    }
    if (!pass) continue;
    const auto va = static_cast<std::int64_t>(at(a, r));
    const auto vb = static_cast<std::int64_t>(at(b, r));
    const std::int64_t v = q.agg.kind == Agg::Kind::kCol   ? va
                           : q.agg.kind == Agg::Kind::kMul ? va * vb
                                                           : va - vb;
    if (groups.empty()) {
      total += v;
      continue;
    }
    for (std::size_t g = 0; g < groups.size(); ++g) key[g] = at(groups[g], r);
    sums[key] += v;
  }

  // Without GROUP BY the answer is one row, 0 over an empty selection.
  std::vector<EvalRow> rows;
  if (groups.empty()) rows.push_back({{}, total});
  for (const auto& [k, sum] : sums) {
    EvalRow row;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      row.groups.push_back(decode(groups[g], k[g]));
    }
    row.agg = sum;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::size_t Evaluator::update(const UpdateSpec& u) {
  const Col target = column(u.col);
  std::vector<BoundPred> where;
  for (const Pred& p : u.where) {
    where.push_back(bind(p));
    if (where.back().col.tab != target.tab) {
      throw std::invalid_argument("evaluator: UPDATE spans tables");
    }
  }
  std::uint64_t code = 0;
  if (target.meta->dict) {
    const auto c = target.meta->dict->code(u.value.str);
    if (!c) throw std::invalid_argument("evaluator: value not encodable");
    code = *c;
  } else {
    code = static_cast<std::uint64_t>(u.value.num);
  }

  // Match every row on the old values first, then rewrite.
  const std::size_t rows = target.codes->size();
  std::vector<std::size_t> hits;
  for (std::size_t r = 0; r < rows; ++r) {
    bool pass = true;
    for (const BoundPred& p : where) pass = pass && p.test((*p.col.codes)[r]);
    if (pass) hits.push_back(r);
  }
  auto [it, fresh] = written_.try_emplace({target.tab, target.attr});
  if (fresh) it->second = *target.codes;
  std::size_t records = 0;
  for (const std::size_t r : hits) {
    it->second[r] = code;
    records += target.tab == kFact ? 1 : fan_in_[target.tab][r];
  }
  return records;
}

namespace {

std::size_t agg_column(const bbpim::db::ResultSet& rs) {
  for (std::size_t c = 0; c < rs.column_count(); ++c) {
    if (rs.is_agg_column(c)) return c;
  }
  throw std::runtime_error("result has no aggregate column");
}

std::string show(const EvalRow& r) {
  std::string out = "(";
  for (const std::string& g : r.groups) out += g + ", ";
  return out + std::to_string(r.agg) + ")";
}

}  // namespace

std::string compare_rows(const bbpim::db::ResultSet& rs, const QuerySpec& q,
                         const std::vector<EvalRow>& expected) {
  std::vector<std::size_t> cols;
  for (const std::string& g : q.group_by) {
    const auto c = rs.column_index(g);
    if (!c) return "result lacks group column " + g;
    cols.push_back(*c);
  }
  const std::size_t agg = agg_column(rs);
  std::vector<EvalRow> got(rs.row_count());
  for (std::size_t r = 0; r < got.size(); ++r) {
    for (const std::size_t c : cols) got[r].groups.push_back(rs.text(r, c));
    got[r].agg = rs.integer(r, agg);
  }
  std::sort(got.begin(), got.end());
  if (got == expected) return {};
  std::string msg = "rows differ: " + std::to_string(got.size()) + " vs " +
                    std::to_string(expected.size()) + " expected";
  for (std::size_t i = 0; i < std::max(got.size(), expected.size()); ++i) {
    if (i >= got.size() || i >= expected.size() || got[i] != expected[i]) {
      msg += "; first difference at " + std::to_string(i) + ": got " +
             (i < got.size() ? show(got[i]) : "-") + ", expected " +
             (i < expected.size() ? show(expected[i]) : "-");
      break;
    }
  }
  return msg;
}

std::string check_order(const bbpim::db::ResultSet& rs, const QuerySpec& q) {
  struct Key {
    std::size_t col;
    bool text;
    bool desc;
  };
  std::vector<Key> keys;
  for (const OrderKey& o : q.order_by) {
    const std::optional<std::size_t> c =
        o.col == q.agg.alias ? agg_column(rs) : rs.column_index(o.col);
    if (!c) return "result lacks ORDER BY column " + o.col;
    keys.push_back({*c, rs.columns()[*c].dict != nullptr, o.desc});
  }
  for (std::size_t r = 1; r < rs.row_count(); ++r) {
    for (const Key& k : keys) {
      const int cmp =
          k.text ? rs.text(r - 1, k.col).compare(rs.text(r, k.col))
                 : (rs.integer(r - 1, k.col) < rs.integer(r, k.col)   ? -1
                    : rs.integer(r - 1, k.col) > rs.integer(r, k.col) ? 1
                                                                      : 0);
      if (cmp == 0) continue;
      if ((cmp < 0) == k.desc) {
        return "rows " + std::to_string(r - 1) + " and " + std::to_string(r) +
               " break ORDER BY";
      }
      break;
    }
  }
  return {};
}

}  // namespace pimbench
