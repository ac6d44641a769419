// Functional model of one memristive crossbar array.
//
// The crossbar stores real bits (column-major, 64-bit packed) and executes
// bulk-bitwise micro-ops exactly: a NOR micro-op really NORs two 1024-bit
// columns. Query answers produced by the simulator are therefore exact and
// are checked against a scalar reference in the tests. Cost (time, energy,
// wear) is accounted one level up, by the PIM controller.
//
// Storage is split at `data_cols` into two segments. The DATA segment
// (columns [0, data_cols)) holds record bits and is reference-counted: any
// number of crossbars — and the immutable store snapshots of
// engine/snapshot_store — may share one segment, and a write detaches a
// private copy first (copy-on-write). The SCRATCH segment (columns
// [data_cols, cols)) holds filter results, transfer staging and aggregation
// outputs; it is always private to this crossbar. Detaching is value-aware
// at program granularity: while the segment is shared, micro-op writes to
// data columns are staged in a side buffer and reconciled once when the
// program ends — the segment is cloned only if the program's net effect
// changed the bits. That matters because the Algorithm-1 MUX rewrites every
// row of the target field (unselected rows with their current value, via an
// INIT1 + NOT pair whose intermediate state always differs), so an UPDATE
// clones only the crossbars holding a selected record. By default
// data_cols == cols: the whole crossbar is data and, with no sharing, every
// write takes the plain in-place path.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/bitvec.hpp"
#include "pim/microop.hpp"

namespace bbpim::pim {

/// A shareable data segment: the packed words of columns [0, data_cols).
using CrossbarSegment = std::shared_ptr<std::vector<std::uint64_t>>;

/// A rows x cols bit matrix with column-parallel logic.
class Crossbar {
 public:
  Crossbar(std::uint32_t rows, std::uint32_t cols);
  /// Split storage: columns [0, data_cols) live in the shareable data
  /// segment, the rest in private scratch. data_cols may equal cols (all
  /// data, no scratch segment) but must not exceed it.
  Crossbar(std::uint32_t rows, std::uint32_t cols, std::uint32_t data_cols);

  std::uint32_t rows() const { return rows_; }
  std::uint32_t cols() const { return cols_; }
  std::uint32_t data_cols() const { return data_cols_; }

  /// Executes one micro-op across all rows. Bumps the uniform wear counter
  /// (every micro-op writes its output column: one cell per row).
  void execute(const MicroOp& op);

  /// Executes a whole program.
  void execute(const MicroProgram& prog);

  /// Fused program interpreter: per-op dispatch is hoisted out of the word
  /// loop and ops marked in `skip_init` (dead output-column initializations,
  /// see pim::dead_init_mask) skip their functional write — a MAGIC gate
  /// drives every cell of its output column, so an INIT that is overwritten
  /// before any read has no observable effect. Wear accounting is identical
  /// to execute(): every op, skipped or not, is one write cycle per row.
  /// `skip_init` must be empty or sized to the program.
  void execute_fused(const MicroProgram& prog,
                     std::span<const std::uint8_t> skip_init);

  /// Reads `width` bits (<= 64) of one row starting at bit `offset`.
  std::uint64_t read_row_bits(std::uint32_t row, std::uint32_t offset,
                              std::uint32_t width) const;

  /// Writes `width` bits (<= 64) of one row; bumps per-row wear.
  void write_row_bits(std::uint32_t row, std::uint32_t offset,
                      std::uint32_t width, std::uint64_t value);

  /// Block gather: the `width`-bit field at `offset` of the rows of row
  /// word `word` (rows [64 * word, 64 * word + 64)) selected by `row_mask`;
  /// out[j] receives row 64 * word + j for every bit j of the mask, other
  /// entries are left as they were. The same values as one read_row_bits
  /// per selected row, from one load of the field's column words and one
  /// bit-matrix transpose in tiles sized to the field width.
  void read_rows_block(std::uint32_t word, std::uint64_t row_mask,
                       std::uint32_t offset, std::uint32_t width,
                       std::span<std::uint64_t, 64> out) const;

  /// Block scatter, the inverse: writes the low `width` bits of values[j]
  /// into row 64 * word + j for every bit j set in `row_mask`; other rows
  /// keep their bits. Wear and copy-on-write are exactly those of one
  /// write_row_bits per selected row: each selected row is charged `width`
  /// writes whether or not its bits change, and a shared data segment
  /// detaches only when some selected row's bits differ.
  void write_rows_block(std::uint32_t word, std::uint64_t row_mask,
                        std::uint32_t offset, std::uint32_t width,
                        std::span<const std::uint64_t, 64> values);

  /// Snapshot of a full column as a BitVec of `rows()` bits.
  BitVec column(std::uint32_t col) const;

  /// Number of set bits in a column, computed on the packed words directly
  /// (no BitVec materialization).
  std::size_t column_popcount(std::uint32_t col) const;

  /// Read-only view of a column's packed words (words_per_column() of them;
  /// rows are a multiple of 64, so there are no tail bits). Used by the
  /// word-level column transfer and aggregation kernels. Inline: these sit
  /// in the innermost simulation loops.
  const std::uint64_t* column_data(std::uint32_t col) const {
    if (col >= cols_) throw std::out_of_range("Crossbar::column_data");
    return column_words(col);
  }
  std::uint32_t words_per_column() const { return words_per_col_; }

  /// Mutable word view of a column — the word-level evaluator's write path
  /// (pim/wordeval). Deliberately records no wear: the caller charges the
  /// equivalent gate program's cycles via add_uniform_wear. Data columns
  /// detach a shared segment unconditionally (the caller's writes cannot be
  /// compared against the current contents from here).
  std::uint64_t* column_data_mut(std::uint32_t col) {
    if (col >= cols_) throw std::out_of_range("Crossbar::column_data_mut");
    if (col < data_cols_ && data_.use_count() > 1) detach_data();
    return column_words(col);
  }

  /// Overwrites a full column (used by the CONCEPT-style packed column write
  /// path when the host pushes a bit-vector into the PIM module). Counts one
  /// write per row (uniform wear).
  void write_column(std::uint32_t col, const BitVec& bits);

  /// Single-bit accessors (test/diagnostic use).
  bool bit(std::uint32_t row, std::uint32_t col) const;
  void set_bit(std::uint32_t row, std::uint32_t col, bool v);

  // --- Data-segment sharing (engine/snapshot_store) -------------------------
  /// The data segment, shareable with other crossbars/snapshots. Holders
  /// must treat the words as immutable; this crossbar detaches before any
  /// mutating access while the segment is shared.
  const CrossbarSegment& data_segment() const { return data_; }
  /// Replaces the data segment with `seg` (same size required). The view
  /// path of engine::PimStore uses this to point a worker's crossbars at a
  /// store snapshot's immutable data.
  void adopt_data(CrossbarSegment seg);
  /// True while the data segment is shared with at least one other holder.
  bool data_shared() const { return data_.use_count() > 1; }

  // --- Wear accounting ------------------------------------------------------
  /// Writes applied uniformly to every row (one per executed micro-op).
  std::uint64_t uniform_row_writes() const { return uniform_row_writes_; }
  /// Largest per-row extra write count (row writes from host/agg results).
  /// O(1): per-row counts only grow, so a running maximum maintained at
  /// write time equals the scan — wear is read once per query, but written
  /// per crossbar per aggregation pass.
  std::uint64_t max_extra_row_writes() const { return max_extra_row_writes_; }
  /// Worst-case writes experienced by any single row of this crossbar.
  std::uint64_t max_row_writes() const {
    return uniform_row_writes_ + max_extra_row_writes();
  }
  /// Zeroes wear counters (used when measuring a single query).
  void reset_wear();

  /// Adds extra uniform per-row writes (chunk-granular host writes rewrite
  /// neighbouring cells of the target bit).
  void add_uniform_wear(std::uint64_t writes_per_row) {
    uniform_row_writes_ += writes_per_row;
  }

 private:
  static constexpr std::uint32_t kWordBits = 64;

  std::uint64_t* column_words(std::uint32_t col) {
    return col < data_cols_
               ? data_->data() + static_cast<std::size_t>(col) * words_per_col_
               : scratch_.data() +
                     static_cast<std::size_t>(col - data_cols_) * words_per_col_;
  }
  const std::uint64_t* column_words(std::uint32_t col) const {
    return col < data_cols_
               ? data_->data() + static_cast<std::size_t>(col) * words_per_col_
               : scratch_.data() +
                     static_cast<std::size_t>(col - data_cols_) * words_per_col_;
  }

  /// Clones the data segment so this crossbar owns it exclusively.
  void detach_data();

  /// Functional execution of one micro-op; wear is the caller's business.
  /// While the data segment is shared, writes to data columns land in the
  /// staging buffer and reads consult it, so a program observes its own
  /// intermediate states without touching the shared words.
  void execute_op(const MicroOp& op);
  /// Output/input column resolution for execute_op (staging-aware).
  std::uint64_t* exec_out(std::uint32_t col);
  const std::uint64_t* exec_in(std::uint32_t col) const;
  /// Staged buffer for `col`, or nullptr if the column is not staged.
  std::uint64_t* find_staged(std::uint32_t col);
  const std::uint64_t* find_staged(std::uint32_t col) const;
  /// Stages `col`: copies its current words into a fresh buffer.
  std::uint64_t* stage_col(std::uint32_t col);
  /// Ends a program: if any staged column's net value differs from the
  /// shared segment, detaches and applies the staged writes; otherwise the
  /// shared segment is kept untouched. Always clears the staging buffer.
  void reconcile_staged();

  std::uint32_t rows_;
  std::uint32_t cols_;
  std::uint32_t data_cols_;
  std::uint32_t words_per_col_;
  CrossbarSegment data_;                 // columns [0, data_cols), column-major
  std::vector<std::uint64_t> scratch_;   // columns [data_cols, cols)
  // Program-scoped staging of writes to shared data columns: (column,
  // words). Empty except mid-program while the segment is shared; small —
  // one entry per target-field bit of an UPDATE's MUX.
  std::vector<std::pair<std::uint32_t, std::vector<std::uint64_t>>> staged_;

  std::uint64_t uniform_row_writes_ = 0;
  std::uint64_t max_extra_row_writes_ = 0;
  std::vector<std::uint32_t> extra_row_writes_;  // lazily sized to rows_
};

}  // namespace bbpim::pim
