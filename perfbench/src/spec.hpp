// Statement templates of the benchmark: SSB flight shapes with their
// constants as plain data.
//
// A QuerySpec is what both sides of the benchmark start from. The workload
// renders it to SQL text for the program; the evaluator (evaluator.hpp)
// reads its predicates, groups and aggregate directly, so the check never
// goes through the program's parser or binder.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "ssb/dbgen.hpp"

namespace pimbench {

struct Lit {
  bool is_str = false;
  std::int64_t num = 0;
  std::string str;

  static Lit of(std::int64_t v) { return {false, v, {}}; }
  static Lit of(std::string v) { return {true, 0, std::move(v)}; }
  std::string sql() const;
};

enum class Op { kEq, kLt, kLe, kGe, kBetween, kIn };

/// `col op values`: one value for kEq/kLt/kLe/kGe, two for kBetween, any
/// number for kIn.
struct Pred {
  std::string col;
  Op op = Op::kEq;
  std::vector<Lit> values;
};

/// SUM(a), SUM(a * b) or SUM(a - b).
struct Agg {
  enum class Kind { kCol, kMul, kSub };
  Kind kind = Kind::kCol;
  std::string a, b;
  std::string alias;
};

struct OrderKey {
  std::string col;  ///< a group column, or the aggregate's alias
  bool desc = false;
};

struct QuerySpec {
  std::string shape;  ///< the SSB query the template follows, "1.1".."4.3"
  std::vector<std::string> group_by;
  bool agg_first = false;  ///< SELECT lists the aggregate before the groups
  Agg agg;
  std::vector<Pred> where;
  std::vector<OrderKey> order_by;

  bool groups_by(std::string_view col) const;
  /// Single-relation SQL text over `table` (no join predicates).
  std::string sql(std::string_view table) const;
};

/// UPDATE <table> SET col = value WHERE <where>.
struct UpdateSpec {
  std::string col;
  Lit value;
  std::vector<Pred> where;

  std::string sql(std::string_view table) const;
};

/// The 13 SSB queries as template instances, aligned with ssb::queries().
std::vector<QuerySpec> ssb_specs();

/// Seeded ad-hoc instance of SSB shape `shape`, with constants read from
/// randomly chosen rows of the generated tables.
QuerySpec adhoc_query(std::string_view shape, const bbpim::ssb::SsbData& data,
                      bbpim::Rng& rng);

}  // namespace pimbench
