// Unit tests for the crossbar functional model: column logic, row access,
// and wear accounting.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "common/rng.hpp"
#include "pim/crossbar.hpp"
#include "pim/microcode.hpp"

namespace bbpim::pim {
namespace {

TEST(Crossbar, ConstructionValidation) {
  EXPECT_THROW(Crossbar(0, 8), std::invalid_argument);
  EXPECT_THROW(Crossbar(100, 8), std::invalid_argument);  // not multiple of 64
  Crossbar xb(128, 32);
  EXPECT_EQ(xb.rows(), 128u);
  EXPECT_EQ(xb.cols(), 32u);
}

TEST(Crossbar, RowReadWriteRoundTrip) {
  Crossbar xb(128, 64);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t row = static_cast<std::uint32_t>(rng.next_below(128));
    const std::uint32_t width = 1 + static_cast<std::uint32_t>(rng.next_below(40));
    const std::uint32_t offset =
        static_cast<std::uint32_t>(rng.next_below(64 - width));
    const std::uint64_t value = rng.next_u64() & ((width >= 64) ? ~0ULL : ((1ULL << width) - 1));
    xb.write_row_bits(row, offset, width, value);
    EXPECT_EQ(xb.read_row_bits(row, offset, width), value);
  }
}

TEST(Crossbar, RowAccessBoundsChecked) {
  Crossbar xb(64, 16);
  EXPECT_THROW(xb.read_row_bits(64, 0, 4), std::out_of_range);
  EXPECT_THROW(xb.read_row_bits(0, 14, 4), std::out_of_range);
  EXPECT_THROW(xb.write_row_bits(0, 0, 0, 0), std::out_of_range);
}

TEST(Crossbar, MicroOpsComputeExactly) {
  Crossbar xb(64, 8);
  // Set column 0 = pattern A, column 1 = pattern B via row writes.
  for (std::uint32_t r = 0; r < 64; ++r) {
    xb.set_bit(r, 0, (r % 2) == 0);
    xb.set_bit(r, 1, (r % 3) == 0);
  }
  xb.execute(MicroOp::init1(2));
  xb.execute(MicroOp::nor_op(0, 1, 2));
  xb.execute(MicroOp::init1(3));
  xb.execute(MicroOp::not_op(0, 3));
  xb.execute(MicroOp::init0(4));
  for (std::uint32_t r = 0; r < 64; ++r) {
    const bool a = (r % 2) == 0;
    const bool b = (r % 3) == 0;
    EXPECT_EQ(xb.bit(r, 2), !(a || b)) << "row " << r;
    EXPECT_EQ(xb.bit(r, 3), !a) << "row " << r;
    EXPECT_FALSE(xb.bit(r, 4));
  }
}

TEST(Crossbar, ColumnSnapshotMatchesBits) {
  Crossbar xb(128, 4);
  for (std::uint32_t r = 0; r < 128; r += 5) xb.set_bit(r, 2, true);
  const BitVec col = xb.column(2);
  EXPECT_EQ(col.size(), 128u);
  for (std::uint32_t r = 0; r < 128; ++r) {
    EXPECT_EQ(col.get(r), (r % 5) == 0);
  }
}

TEST(Crossbar, WriteColumnRoundTrip) {
  Crossbar xb(128, 4);
  BitVec bits(128);
  for (std::uint32_t r = 0; r < 128; r += 3) bits.set(r, true);
  xb.write_column(1, bits);
  EXPECT_EQ(xb.column(1), bits);
  BitVec wrong(64);
  EXPECT_THROW(xb.write_column(1, wrong), std::invalid_argument);
}

TEST(Crossbar, ColumnPopcountAndDataMatchSnapshot) {
  Crossbar xb(192, 6);
  Rng rng(9);
  for (std::uint32_t r = 0; r < 192; ++r) {
    xb.set_bit(r, 3, rng.next_double() < 0.3);
  }
  EXPECT_EQ(xb.column_popcount(3), xb.column(3).popcount());
  EXPECT_EQ(xb.words_per_column(), 3u);
  const std::uint64_t* words = xb.column_data(3);
  const BitVec snapshot = xb.column(3);
  for (std::uint32_t w = 0; w < xb.words_per_column(); ++w) {
    EXPECT_EQ(words[w], snapshot.words()[w]);
  }
  EXPECT_THROW(xb.column_popcount(6), std::out_of_range);
  EXPECT_THROW(xb.column_data(6), std::out_of_range);
}

/// Random program over `cols` columns mixing the INIT+gate idiom with inits
/// that ARE read later (constants) and double initializations.
MicroProgram random_program(Rng& rng, std::uint16_t cols, std::size_t ops) {
  MicroProgram prog;
  auto col = [&] { return static_cast<std::uint16_t>(rng.next_below(cols)); };
  for (std::size_t i = 0; i < ops; ++i) {
    switch (rng.next_below(5)) {
      case 0: prog.push_back(MicroOp::init0(col())); break;
      case 1: prog.push_back(MicroOp::init1(col())); break;
      case 2: prog.push_back(MicroOp::not_op(col(), col())); break;
      default: {
        // Mostly the canonical INIT1 + NOR pair.
        const std::uint16_t out = col();
        prog.push_back(MicroOp::init1(out));
        prog.push_back(MicroOp::nor_op(col(), col(), out));
        break;
      }
    }
  }
  return prog;
}

TEST(Crossbar, FusedExecuteMatchesPerOpInterpreter) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    constexpr std::uint16_t kCols = 24;
    Crossbar per_op(128, kCols);
    Crossbar fused(128, kCols);
    for (std::uint32_t r = 0; r < 128; ++r) {
      for (std::uint16_t c = 0; c < kCols; ++c) {
        const bool v = rng.next_double() < 0.5;
        per_op.set_bit(r, c, v);
        fused.set_bit(r, c, v);
      }
    }
    const MicroProgram prog = random_program(rng, kCols, 40);
    const std::vector<std::uint8_t> dead = dead_init_mask(prog);
    per_op.execute(prog);
    fused.execute_fused(prog, dead);
    for (std::uint16_t c = 0; c < kCols; ++c) {
      EXPECT_EQ(fused.column(c), per_op.column(c))
          << "trial " << trial << " col " << c;
    }
    EXPECT_EQ(fused.uniform_row_writes(), per_op.uniform_row_writes());
    EXPECT_EQ(fused.max_row_writes(), per_op.max_row_writes());
  }
}

TEST(DeadInitMask, OnlyOverwrittenBeforeReadIsDead) {
  MicroProgram prog;
  prog.push_back(MicroOp::init1(2));        // dead: NOR below drives col 2
  prog.push_back(MicroOp::nor_op(0, 1, 2)); // gate
  prog.push_back(MicroOp::init1(3));        // live: read as an input below
  prog.push_back(MicroOp::init1(4));        // dead: NOR below drives col 4
  prog.push_back(MicroOp::nor_op(3, 2, 4)); // reads col 3's initialization
  prog.push_back(MicroOp::init0(5));        // live: never overwritten (result)
  const std::vector<std::uint8_t> dead = dead_init_mask(prog);
  EXPECT_EQ(dead, (std::vector<std::uint8_t>{1, 0, 0, 1, 0, 0}));
}

TEST(DeadInitMask, ReadBeforeLaterWriteKeepsInit) {
  MicroProgram prog;
  prog.push_back(MicroOp::init1(2));        // live: NOT reads col 2 first...
  prog.push_back(MicroOp::not_op(2, 3));
  prog.push_back(MicroOp::init0(2));        // ...then col 2 is re-initialized
  const std::vector<std::uint8_t> dead = dead_init_mask(prog);
  EXPECT_EQ(dead, (std::vector<std::uint8_t>{0, 0, 0}));

  // Back-to-back inits: the first one is dead.
  MicroProgram twice;
  twice.push_back(MicroOp::init1(1));
  twice.push_back(MicroOp::init0(1));
  EXPECT_EQ(dead_init_mask(twice), (std::vector<std::uint8_t>{1, 0}));
}

// --- Block gather / scatter parity against the per-row accessors ----------

constexpr std::uint32_t kBlockRows = 256;   // four row words
constexpr std::uint32_t kBlockCols = 160;
constexpr std::uint32_t kBlockData = 96;    // columns [96, 160) are scratch

/// A crossbar with a data/scratch split and every cell random.
Crossbar random_split_crossbar(Rng& rng) {
  Crossbar xb(kBlockRows, kBlockCols, kBlockData);
  for (std::uint32_t c = 0; c < kBlockCols; ++c) {
    for (std::uint32_t r = 0; r < kBlockRows; ++r) {
      xb.set_bit(r, c, (rng.next_u64() & 1) != 0);
    }
  }
  return xb;
}

/// Every cell of two crossbars, data and scratch.
void expect_same_bits(const Crossbar& a, const Crossbar& b) {
  for (std::uint32_t c = 0; c < a.cols(); ++c) {
    ASSERT_EQ(a.column(c), b.column(c)) << "col " << c;
  }
}

/// A field of `width` bits placed in [lo, hi).
std::uint32_t random_offset(Rng& rng, std::uint32_t width, std::uint32_t lo,
                            std::uint32_t hi) {
  return lo + static_cast<std::uint32_t>(rng.next_below(hi - lo - width + 1));
}

/// The block gather of the rows in `mask` against read_row_bits; entries of
/// unselected rows keep what the caller left there.
void expect_gather_matches_rows(const Crossbar& xb, std::uint32_t word,
                                std::uint64_t mask, std::uint32_t offset,
                                std::uint32_t width) {
  constexpr std::uint64_t kUntouched = 0xDEADBEEFDEADBEEFULL;
  std::array<std::uint64_t, 64> out;
  out.fill(kUntouched);
  xb.read_rows_block(word, mask, offset, width, out);
  for (std::uint32_t j = 0; j < 64; ++j) {
    const std::uint64_t want = ((mask >> j) & 1)
                                   ? xb.read_row_bits(word * 64 + j, offset, width)
                                   : kUntouched;
    ASSERT_EQ(out[j], want) << "word " << word << " row " << j << " offset "
                            << offset << " width " << width << " mask "
                            << mask;
  }
}

TEST(CrossbarBlock, GatherMatchesRowReadsEveryWidth) {
  Rng rng(101);
  const Crossbar xb = random_split_crossbar(rng);
  const std::uint32_t last_word = xb.words_per_column() - 1;
  for (std::uint32_t width = 1; width <= 64; ++width) {
    // Every row, a random half, a sparse few and one row at each width.
    const std::uint64_t masks[] = {~0ULL, rng.next_u64(),
                                   rng.next_u64() & rng.next_u64() &
                                       rng.next_u64() & rng.next_u64(),
                                   1ULL << rng.next_below(64)};
    for (const std::uint64_t mask : masks) {
      // Random offsets anywhere (fields may straddle the data/scratch
      // split), on a random row word and on the last one.
      const std::uint32_t offset = random_offset(rng, width, 0, kBlockCols);
      const auto word =
          static_cast<std::uint32_t>(rng.next_below(xb.words_per_column()));
      expect_gather_matches_rows(xb, word, mask, offset, width);
      expect_gather_matches_rows(xb, last_word, mask, offset, width);
      // Wholly in the data segment, wholly in scratch.
      expect_gather_matches_rows(xb, last_word, mask,
                                 random_offset(rng, width, 0, kBlockData),
                                 width);
      expect_gather_matches_rows(
          xb, 0, mask, random_offset(rng, width, kBlockData, kBlockCols),
          width);
    }
  }
}

/// Applies the same random masked write to `block` (one block scatter) and
/// `rows` (one write_row_bits per selected row), values carrying garbage
/// above `width` that both must ignore.
void scatter_both(Rng& rng, Crossbar& block, Crossbar& rows, std::uint32_t word,
                  std::uint32_t offset, std::uint32_t width,
                  std::uint64_t row_mask) {
  std::array<std::uint64_t, 64> values;
  for (std::uint64_t& v : values) v = rng.next_u64();
  block.write_rows_block(word, row_mask, offset, width, values);
  for (std::uint32_t j = 0; j < 64; ++j) {
    if ((row_mask >> j) & 1) {
      rows.write_row_bits(word * 64 + j, offset, width, values[j]);
    }
  }
}

TEST(CrossbarBlock, ScatterMatchesRowWritesEveryWidth) {
  Rng rng(202);
  Crossbar block = random_split_crossbar(rng);
  Crossbar rows = block;  // private copy of the data segment
  rows.adopt_data(std::make_shared<std::vector<std::uint64_t>>(
      *block.data_segment()));
  const std::uint32_t last_word = block.words_per_column() - 1;
  for (std::uint32_t width = 1; width <= 64; ++width) {
    const std::uint64_t masks[] = {~0ULL, rng.next_u64(),
                                   rng.next_u64() & rng.next_u64(),
                                   1ULL << rng.next_below(64)};
    for (const std::uint64_t mask : masks) {
      scatter_both(rng, block, rows,
                   static_cast<std::uint32_t>(
                       rng.next_below(block.words_per_column())),
                   random_offset(rng, width, 0, kBlockCols), width, mask);
    }
    scatter_both(rng, block, rows, last_word,
                 random_offset(rng, width, 0, kBlockData), width,
                 rng.next_u64());
    scatter_both(rng, block, rows, 0,
                 random_offset(rng, width, kBlockData, kBlockCols), width,
                 rng.next_u64());
    expect_same_bits(block, rows);
    ASSERT_EQ(block.max_extra_row_writes(), rows.max_extra_row_writes())
        << "width " << width;
    ASSERT_EQ(block.max_row_writes(), rows.max_row_writes());
  }
  // An empty mask writes nothing and charges no wear.
  const std::uint64_t wear = block.max_extra_row_writes();
  block.write_rows_block(0, 0, 0, 8, std::array<std::uint64_t, 64>{});
  EXPECT_EQ(block.max_extra_row_writes(), wear);
  expect_same_bits(block, rows);
}

TEST(CrossbarBlock, ScatterOnSharedSegmentDetachesOnlyWhenBitsChange) {
  Rng rng(303);
  const Crossbar base = random_split_crossbar(rng);
  const std::vector<std::uint64_t> frozen = *base.data_segment();
  for (const bool change : {false, true}) {
    for (const bool in_data : {true, false}) {
      Crossbar block(kBlockRows, kBlockCols, kBlockData);
      Crossbar rows(kBlockRows, kBlockCols, kBlockData);
      block.adopt_data(base.data_segment());
      rows.adopt_data(base.data_segment());
      const std::uint32_t width = 12;
      const std::uint32_t offset =
          in_data ? 40 : kBlockData + 20;  // wholly data / wholly scratch
      const std::uint32_t word = 2;
      const std::uint64_t mask = 0x00F0F0F0F0F0F00FULL;
      std::array<std::uint64_t, 64> values;
      block.read_rows_block(word, ~0ULL, offset, width, values);  // current
      if (change) values[12] ^= 1;  // row 12 is selected by the mask
      block.write_rows_block(word, mask, offset, width, values);
      for (std::uint32_t j = 0; j < 64; ++j) {
        if ((mask >> j) & 1) {
          rows.write_row_bits(word * 64 + j, offset, width, values[j]);
        }
      }
      // Scratch is private: only a changed data field detaches.
      const bool detached = change && in_data;
      EXPECT_EQ(block.data_shared(), !detached) << change << in_data;
      EXPECT_EQ(rows.data_shared(), block.data_shared());
      EXPECT_EQ(block.data_segment() == base.data_segment(), !detached);
      EXPECT_EQ(*base.data_segment(), frozen);  // the shared holder is intact
      expect_same_bits(block, rows);
      EXPECT_EQ(block.max_extra_row_writes(), rows.max_extra_row_writes());
      EXPECT_EQ(block.max_extra_row_writes(), width);  // charged either way
    }
  }
}

TEST(CrossbarBlock, BoundsChecked) {
  Crossbar xb(128, 16);
  std::array<std::uint64_t, 64> v{};
  EXPECT_THROW(xb.read_rows_block(2, 1, 0, 4, v), std::out_of_range);  // word
  EXPECT_THROW(xb.read_rows_block(0, 1, 14, 4, v), std::out_of_range);  // cols
  EXPECT_THROW(xb.read_rows_block(0, 1, 0, 0, v), std::out_of_range);
  EXPECT_THROW(xb.read_rows_block(0, 1, 0, 65, v), std::out_of_range);
  EXPECT_THROW(xb.write_rows_block(2, 1, 0, 4, v), std::out_of_range);
  EXPECT_THROW(xb.write_rows_block(0, 1, 14, 4, v), std::out_of_range);
  EXPECT_THROW(xb.write_rows_block(0, 1, 0, 65, v), std::out_of_range);
}

TEST(Crossbar, WearAccounting) {
  Crossbar xb(64, 8);
  EXPECT_EQ(xb.max_row_writes(), 0u);
  // Every micro-op writes its output column once per row.
  xb.execute(MicroOp::init1(2));
  xb.execute(MicroOp::not_op(0, 2));
  EXPECT_EQ(xb.uniform_row_writes(), 2u);
  // Row writes add per-row extras.
  xb.write_row_bits(5, 0, 4, 0xF);
  EXPECT_EQ(xb.max_extra_row_writes(), 4u);
  EXPECT_EQ(xb.max_row_writes(), 6u);
  // Column writes and explicit uniform wear.
  xb.write_column(3, BitVec(64));
  xb.add_uniform_wear(10);
  EXPECT_EQ(xb.uniform_row_writes(), 13u);
  xb.reset_wear();
  EXPECT_EQ(xb.max_row_writes(), 0u);
}

}  // namespace
}  // namespace bbpim::pim
