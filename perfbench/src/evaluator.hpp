// The benchmark's own judge of every result.
//
// A plain row walk over the five tables ssb::generate returns: for each
// lineorder row it looks the dimension rows up by key, applies the
// template's predicates to decoded values, and sums the aggregate per
// group. It reads QuerySpec/UpdateSpec fields, never SQL text, and uses
// none of the program's parser, binder, engines, pre-joiner or reference
// executor. Columns an UPDATE rewrites are copied on first write, so the
// generated tables stay untouched and the evaluator tracks the data version
// the program should be at.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "db/result_set.hpp"
#include "spec.hpp"
#include "ssb/dbgen.hpp"

namespace pimbench {

/// One result row: decoded group values in QuerySpec::group_by order, and
/// the aggregate.
struct EvalRow {
  std::vector<std::string> groups;
  std::int64_t agg = 0;

  auto operator<=>(const EvalRow&) const = default;
};

class Evaluator {
 public:
  /// `data` must outlive the evaluator.
  explicit Evaluator(const bbpim::ssb::SsbData& data);

  /// The rows `q` must return, sorted (a multiset).
  std::vector<EvalRow> select(const QuerySpec& q) const;

  /// Applies `u` to the evaluator's copy of the data and returns the number
  /// of pre-joined records it rewrites (one per lineorder row it reaches).
  std::size_t update(const UpdateSpec& u);

 private:
  enum Tab { kFact, kDate, kCustomer, kSupplier, kPart, kTabs };
  struct Col {
    Tab tab = kFact;
    std::size_t attr = 0;
    const bbpim::rel::Attribute* meta = nullptr;
    const std::vector<std::uint64_t>* codes = nullptr;
  };
  /// A predicate bound to a column: for dictionary columns a pass mask over
  /// codes, built from decoded values; for integer columns the literals.
  struct BoundPred {
    Col col;
    Op op = Op::kEq;
    std::vector<std::uint8_t> code_mask;
    std::vector<std::int64_t> nums;
    bool test(std::uint64_t code) const;
  };

  Col column(const std::string& name) const;
  BoundPred bind(const Pred& p) const;
  std::uint64_t at(const Col& c, std::size_t fact_row) const {
    return (*c.codes)[c.tab == kFact ? fact_row : dim_row_[c.tab][fact_row]];
  }
  std::string decode(const Col& c, std::uint64_t code) const;

  std::array<const bbpim::rel::Table*, kTabs> tables_{};
  /// dim_row_[t][r]: the row of dimension t that lineorder row r joins.
  std::array<std::vector<std::uint32_t>, kTabs> dim_row_;
  /// fan_in_[t][d]: lineorder rows that join row d of dimension t.
  std::array<std::vector<std::uint32_t>, kTabs> fan_in_;
  /// The evaluator's own copies of columns an UPDATE rewrote.
  std::map<std::pair<int, std::size_t>, std::vector<std::uint64_t>> written_;
};

/// Empty when `rs` holds exactly the rows `expected` lists (as multisets of
/// decoded group values and aggregates); otherwise what differs.
std::string compare_rows(const bbpim::db::ResultSet& rs, const QuerySpec& q,
                         const std::vector<EvalRow>& expected);

/// Empty when the rows of `rs` follow `q`'s ORDER BY; otherwise where not.
std::string check_order(const bbpim::db::ResultSet& rs, const QuerySpec& q);

}  // namespace pimbench
