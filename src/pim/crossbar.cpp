#include "pim/crossbar.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace bbpim::pim {

namespace {
/// Dimension checks must run before the segment allocations in the member
/// initializer list (cols - data_cols underflows on bad input).
std::uint32_t checked_data_cols(std::uint32_t rows, std::uint32_t cols,
                                std::uint32_t data_cols) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("Crossbar: zero dimension");
  }
  if (rows % 64 != 0) {
    throw std::invalid_argument("Crossbar: rows must be a multiple of 64");
  }
  if (data_cols > cols) {
    throw std::invalid_argument("Crossbar: data_cols exceeds cols");
  }
  return data_cols;
}

/// Bit positions p with p mod 2J < J: the low half of every 2J-bit group.
template <unsigned J>
constexpr std::uint64_t level_mask() {
  std::uint64_t m = 0;
  for (unsigned p = 0; p < 64; ++p) {
    if (p % (2 * J) < J) m |= 1ULL << p;
  }
  return m;
}

/// One level of the recursive bit-matrix transpose over words a[0, N):
/// swaps the J x J off-diagonal sub-blocks of every 2J x 2J block (bit c of
/// word k is matrix element (k, c)).
template <unsigned N, unsigned J>
inline void transpose_level(std::uint64_t* a) {
  constexpr std::uint64_t kMask = level_mask<J>();
  for (unsigned base = 0; base < N; base += 2 * J) {
    for (unsigned k = base; k < base + J; ++k) {
      const std::uint64_t t = ((a[k] >> J) ^ a[k + J]) & kMask;
      a[k] ^= t << J;
      a[k + J] ^= t;
    }
  }
}

/// Levels N/2 .. 1 over a[0, N): transposes, in place, each of the 64 / N
/// N x N tiles that the N words hold side by side (tile q is bits
/// [q * N, q * N + N) of every word). N = 64 is the full 64x64 transpose.
template <unsigned N, unsigned J = N / 2>
inline void transpose_tiles(std::uint64_t* a) {
  if constexpr (J >= 1) {
    transpose_level<N, J>(a);
    transpose_tiles<N, J / 2>(a);
  }
}

/// a[i] holds bit i of the 64 rows' field values (a[i] = 0 for i >= the
/// field width, N = the width rounded up to a power of two). After the tile
/// transpose, row j = q * N + r has its value in bits [q * N, q * N + N) of
/// a[r]; writes it to out[j] for the rows of `row_mask`.
template <unsigned N>
void gather_transposed(std::uint64_t* a, std::uint64_t row_mask,
                       std::span<std::uint64_t, 64> out) {
  transpose_tiles<N>(a);
  constexpr std::uint64_t kLow = N == 64 ? ~0ULL : (1ULL << N) - 1;
  for (; row_mask != 0; row_mask &= row_mask - 1) {
    const auto j = static_cast<unsigned>(std::countr_zero(row_mask));
    out[j] = (a[j % N] >> (j / N * N)) & kLow;
  }
}

/// In-place full transpose: bit c of a[k] moves to bit k of a[c].
void transpose64(std::uint64_t* a) { transpose_tiles<64>(a); }
}  // namespace

Crossbar::Crossbar(std::uint32_t rows, std::uint32_t cols)
    : Crossbar(rows, cols, cols) {}

Crossbar::Crossbar(std::uint32_t rows, std::uint32_t cols,
                   std::uint32_t data_cols)
    : rows_(rows),
      cols_(cols),
      data_cols_(checked_data_cols(rows, cols, data_cols)),
      words_per_col_((rows + kWordBits - 1) / kWordBits),
      data_(std::make_shared<std::vector<std::uint64_t>>(
          static_cast<std::size_t>(data_cols) * words_per_col_, 0)),
      scratch_(static_cast<std::size_t>(cols - data_cols) * words_per_col_,
               0) {}

void Crossbar::detach_data() {
  data_ = std::make_shared<std::vector<std::uint64_t>>(*data_);
}

void Crossbar::adopt_data(CrossbarSegment seg) {
  if (!seg || seg->size() != data_->size()) {
    throw std::invalid_argument("Crossbar::adopt_data: segment mismatch");
  }
  assert(staged_.empty());
  data_ = std::move(seg);
}

std::uint64_t* Crossbar::find_staged(std::uint32_t col) {
  for (auto& [c, buf] : staged_) {
    if (c == col) return buf.data();
  }
  return nullptr;
}

const std::uint64_t* Crossbar::find_staged(std::uint32_t col) const {
  for (const auto& [c, buf] : staged_) {
    if (c == col) return buf.data();
  }
  return nullptr;
}

std::uint64_t* Crossbar::stage_col(std::uint32_t col) {
  const std::uint64_t* src = column_words(col);
  staged_.emplace_back(col,
                       std::vector<std::uint64_t>(src, src + words_per_col_));
  return staged_.back().second.data();
}

std::uint64_t* Crossbar::exec_out(std::uint32_t col) {
  if (col < data_cols_) {
    // A column already staged stays staged even if the segment meanwhile
    // became exclusively ours — reconcile applies staged writes last, so a
    // direct write here would be overwritten with stale bits.
    if (std::uint64_t* s = find_staged(col)) return s;
    if (data_.use_count() > 1) return stage_col(col);
  }
  return column_words(col);
}

const std::uint64_t* Crossbar::exec_in(std::uint32_t col) const {
  if (!staged_.empty() && col < data_cols_) {
    if (const std::uint64_t* s = find_staged(col)) return s;
  }
  return column_words(col);
}

void Crossbar::reconcile_staged() {
  if (staged_.empty()) return;
  bool changed = false;
  for (const auto& [col, buf] : staged_) {
    const std::uint64_t* cur = column_words(col);
    if (!std::equal(buf.begin(), buf.end(), cur)) {
      changed = true;
      break;
    }
  }
  if (changed) {
    detach_data();
    for (const auto& [col, buf] : staged_) {
      std::copy(buf.begin(), buf.end(), column_words(col));
    }
  }
  staged_.clear();
}

void Crossbar::execute_op(const MicroOp& op) {
  assert(op.out < cols_);
  // Resolve the output first: staging may grow staged_, which would
  // invalidate input pointers resolved earlier.
  std::uint64_t* out = exec_out(op.out);
  switch (op.kind) {
    case MicroOpKind::kInit0:
      std::fill(out, out + words_per_col_, 0ULL);
      break;
    case MicroOpKind::kInit1:
      std::fill(out, out + words_per_col_, ~0ULL);
      break;
    case MicroOpKind::kNot: {
      assert(op.a < cols_);
      const std::uint64_t* a = exec_in(op.a);
      for (std::uint32_t w = 0; w < words_per_col_; ++w) out[w] = ~a[w];
      break;
    }
    case MicroOpKind::kNor: {
      assert(op.a < cols_ && op.b < cols_);
      const std::uint64_t* a = exec_in(op.a);
      const std::uint64_t* b = exec_in(op.b);
      for (std::uint32_t w = 0; w < words_per_col_; ++w) out[w] = ~(a[w] | b[w]);
      break;
    }
  }
}

void Crossbar::execute(const MicroOp& op) {
  execute_op(op);
  ++uniform_row_writes_;
  reconcile_staged();
}

void Crossbar::execute(const MicroProgram& prog) {
  for (const MicroOp& op : prog) execute_op(op);
  uniform_row_writes_ += prog.size();
  reconcile_staged();
}

void Crossbar::execute_fused(const MicroProgram& prog,
                             std::span<const std::uint8_t> skip_init) {
  assert(skip_init.empty() || skip_init.size() == prog.size());
  for (std::size_t i = 0; i < prog.size(); ++i) {
    if (!skip_init.empty() && skip_init[i]) continue;
    execute_op(prog[i]);
  }
  // Skipped inits are still executed cycles: same wear as the per-op path.
  uniform_row_writes_ += prog.size();
  reconcile_staged();
}

std::uint64_t Crossbar::read_row_bits(std::uint32_t row, std::uint32_t offset,
                                      std::uint32_t width) const {
  if (width == 0 || width > 64 || offset + width > cols_ || row >= rows_) {
    throw std::out_of_range("Crossbar::read_row_bits");
  }
  const std::uint32_t word = row / kWordBits;
  const std::uint32_t bit = row % kWordBits;
  std::uint64_t v = 0;
  for (std::uint32_t i = 0; i < width; ++i) {
    v |= ((column_words(offset + i)[word] >> bit) & 1ULL) << i;
  }
  return v;
}

void Crossbar::write_row_bits(std::uint32_t row, std::uint32_t offset,
                              std::uint32_t width, std::uint64_t value) {
  if (width == 0 || width > 64 || offset + width > cols_ || row >= rows_) {
    throw std::out_of_range("Crossbar::write_row_bits");
  }
  // Wear first: the row is driven whether or not the bits change.
  if (extra_row_writes_.empty()) extra_row_writes_.resize(rows_, 0);
  extra_row_writes_[row] += width;
  max_extra_row_writes_ =
      std::max<std::uint64_t>(max_extra_row_writes_, extra_row_writes_[row]);
  if (offset < data_cols_ && data_.use_count() > 1) {
    const std::uint64_t masked =
        width == 64 ? value : value & ((1ULL << width) - 1);
    if (read_row_bits(row, offset, width) == masked) return;
    detach_data();
  }
  const std::uint32_t word = row / kWordBits;
  const std::uint64_t mask = 1ULL << (row % kWordBits);
  for (std::uint32_t i = 0; i < width; ++i) {
    std::uint64_t* w = column_words(offset + i) + word;
    if ((value >> i) & 1ULL)
      *w |= mask;
    else
      *w &= ~mask;
  }
}

void Crossbar::read_rows_block(std::uint32_t word, std::uint64_t row_mask,
                               std::uint32_t offset, std::uint32_t width,
                               std::span<std::uint64_t, 64> out) const {
  if (width == 0 || width > 64 || offset + width > cols_ ||
      word >= words_per_col_) {
    throw std::out_of_range("Crossbar::read_rows_block");
  }
  // a[i] is bit i of every row's field: column offset + i.
  std::array<std::uint64_t, 64> a;
  for (std::uint32_t i = 0; i < width; ++i) {
    a[i] = column_words(offset + i)[word];
  }
  const std::uint32_t tile = std::bit_ceil(width);
  std::fill(a.begin() + width, a.begin() + tile, 0ULL);
  switch (tile) {
    case 1: gather_transposed<1>(a.data(), row_mask, out); break;
    case 2: gather_transposed<2>(a.data(), row_mask, out); break;
    case 4: gather_transposed<4>(a.data(), row_mask, out); break;
    case 8: gather_transposed<8>(a.data(), row_mask, out); break;
    case 16: gather_transposed<16>(a.data(), row_mask, out); break;
    case 32: gather_transposed<32>(a.data(), row_mask, out); break;
    default: gather_transposed<64>(a.data(), row_mask, out); break;
  }
}

void Crossbar::write_rows_block(std::uint32_t word, std::uint64_t row_mask,
                                std::uint32_t offset, std::uint32_t width,
                                std::span<const std::uint64_t, 64> values) {
  if (width == 0 || width > 64 || offset + width > cols_ ||
      word >= words_per_col_) {
    throw std::out_of_range("Crossbar::write_rows_block");
  }
  if (row_mask == 0) return;
  // Wear first: every selected row is driven whether or not its bits change.
  if (extra_row_writes_.empty()) extra_row_writes_.resize(rows_, 0);
  for (std::uint64_t m = row_mask; m != 0; m &= m - 1) {
    const std::uint32_t row =
        word * kWordBits + static_cast<std::uint32_t>(std::countr_zero(m));
    extra_row_writes_[row] += width;
    max_extra_row_writes_ =
        std::max<std::uint64_t>(max_extra_row_writes_, extra_row_writes_[row]);
  }
  // Transposed, bits[i] holds bit i of every row's value: column offset + i.
  std::array<std::uint64_t, 64> bits;
  std::copy(values.begin(), values.end(), bits.begin());
  transpose64(bits.data());
  if (offset < data_cols_ && data_.use_count() > 1) {
    bool same = true;
    for (std::uint32_t i = 0; i < width && same; ++i) {
      same = ((column_words(offset + i)[word] ^ bits[i]) & row_mask) == 0;
    }
    if (same) return;
    detach_data();
  }
  for (std::uint32_t i = 0; i < width; ++i) {
    std::uint64_t& w = column_words(offset + i)[word];
    w = (w & ~row_mask) | (bits[i] & row_mask);
  }
}

BitVec Crossbar::column(std::uint32_t col) const {
  if (col >= cols_) throw std::out_of_range("Crossbar::column");
  BitVec bv(rows_);
  const std::uint64_t* src = column_words(col);
  std::copy(src, src + words_per_col_, bv.words().begin());
  return bv;
}

std::size_t Crossbar::column_popcount(std::uint32_t col) const {
  if (col >= cols_) throw std::out_of_range("Crossbar::column_popcount");
  const std::uint64_t* src = column_words(col);
  std::size_t n = 0;
  for (std::uint32_t w = 0; w < words_per_col_; ++w) {
    n += static_cast<std::size_t>(std::popcount(src[w]));
  }
  return n;
}

void Crossbar::write_column(std::uint32_t col, const BitVec& bits) {
  if (col >= cols_) throw std::out_of_range("Crossbar::write_column");
  if (bits.size() != rows_) {
    throw std::invalid_argument("Crossbar::write_column: size mismatch");
  }
  ++uniform_row_writes_;
  if (col < data_cols_ && data_.use_count() > 1) {
    if (std::equal(bits.words().begin(), bits.words().end(),
                   column_words(col))) {
      return;
    }
    detach_data();
  }
  std::uint64_t* dst = column_words(col);
  std::copy(bits.words().begin(), bits.words().end(), dst);
}

bool Crossbar::bit(std::uint32_t row, std::uint32_t col) const {
  if (row >= rows_ || col >= cols_) throw std::out_of_range("Crossbar::bit");
  return (column_words(col)[row / kWordBits] >> (row % kWordBits)) & 1ULL;
}

void Crossbar::set_bit(std::uint32_t row, std::uint32_t col, bool v) {
  if (row >= rows_ || col >= cols_) throw std::out_of_range("Crossbar::set_bit");
  if (col < data_cols_ && data_.use_count() > 1) {
    if (bit(row, col) == v) return;
    detach_data();
  }
  std::uint64_t* w = column_words(col) + row / kWordBits;
  const std::uint64_t mask = 1ULL << (row % kWordBits);
  if (v)
    *w |= mask;
  else
    *w &= ~mask;
}

void Crossbar::reset_wear() {
  uniform_row_writes_ = 0;
  max_extra_row_writes_ = 0;
  extra_row_writes_.clear();
}

}  // namespace bbpim::pim
