// Unique-line accounting for host reads from the PIM module.
//
// A 64 B line holds one 16-bit chunk of the records at one row of all 32
// crossbars of a page. Reading a single record therefore drags 31 other
// records' chunks along (the paper's read amplification), and conversely two
// selected records in the same page row share their lines. host-gb latency
// is driven by the number of *unique* lines touched — this set computes it
// and converts it to time under the page-per-thread partitioning.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/units.hpp"
#include "host/config.hpp"

namespace bbpim::host {

/// Phase latency of streaming per-page unique-line counts under the
/// page-per-thread partitioning (ReadSet::phase_time_ns and the engine's
/// block walks, which count lines from survivor masks without a ReadSet).
TimeNs lines_phase_time_ns(std::span<const std::uint32_t> per_page_lines,
                           const HostConfig& cfg);

class ReadSet {
 public:
  /// `pages` is the number of pages the relation spans (for per-thread
  /// partitioning when converting to time). Dedupe uses a hash set.
  explicit ReadSet(std::size_t pages) : per_page_lines_(pages, 0) {}

  /// Registers a read of chunk `chunk` of the record at row `row` of page
  /// `page`; dedupes against previous touches of the same line.
  void touch(std::uint32_t page, std::uint32_t row, std::uint32_t chunk);

  std::size_t unique_lines() const { return unique_lines_; }
  const std::vector<std::uint32_t>& per_page_lines() const {
    return per_page_lines_;
  }

  /// Phase latency: pages are split contiguously across threads; each thread
  /// streams its pages' unique lines at line_ns apiece; the phase ends when
  /// the slowest thread finishes.
  TimeNs phase_time_ns(const HostConfig& cfg) const;

 private:
  std::unordered_set<std::uint64_t> seen_;
  std::vector<std::uint32_t> per_page_lines_;
  std::size_t unique_lines_ = 0;
};

}  // namespace bbpim::host
