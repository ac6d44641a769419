#include "host/read_set.hpp"

#include <algorithm>
#include <stdexcept>

namespace bbpim::host {

void ReadSet::touch(std::uint32_t page, std::uint32_t row, std::uint32_t chunk) {
  if (page >= per_page_lines_.size()) {
    throw std::out_of_range("ReadSet::touch: page out of range");
  }
  const std::uint64_t key = (static_cast<std::uint64_t>(page) << 40) |
                            (static_cast<std::uint64_t>(row) << 8) | chunk;
  if (seen_.insert(key).second) {
    ++per_page_lines_[page];
    ++unique_lines_;
  }
}

TimeNs lines_phase_time_ns(std::span<const std::uint32_t> per_page_lines,
                           const HostConfig& cfg) {
  const std::size_t pages = per_page_lines.size();
  if (pages == 0) return 0;
  const std::size_t per_thread = (pages + cfg.threads - 1) / cfg.threads;
  TimeNs worst = 0;
  for (std::size_t begin = 0; begin < pages; begin += per_thread) {
    const std::size_t end = std::min(pages, begin + per_thread);
    std::uint64_t lines = 0;
    for (std::size_t p = begin; p < end; ++p) lines += per_page_lines[p];
    worst = std::max(worst, static_cast<double>(lines) * cfg.line_random_ns);
  }
  return worst;
}

TimeNs ReadSet::phase_time_ns(const HostConfig& cfg) const {
  return lines_phase_time_ns(per_page_lines_, cfg);
}

}  // namespace bbpim::host
