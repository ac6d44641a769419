#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <utility>

namespace pimbench {

int Tracer::open(const char* name, std::uint64_t stmt) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  const Clock::time_point now = Clock::now();
  spans_.push_back({name, now, now, parent, stmt});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[id].end = Clock::now();
  // Spans close innermost first; tolerate a scope closed out of order.
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

int Tracer::add(const char* name, Clock::time_point start,
                Clock::time_point end, int parent, std::uint64_t stmt) {
  if (!enabled_) return -1;
  spans_.push_back({name, start, std::max(start, end), parent, stmt});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Tracer::Layer> Tracer::layers() const {
  using Ms = std::chrono::duration<double, std::milli>;
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, Layer> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    Clock::duration covered{0};
    Clock::time_point reach = s.start;
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, s.end);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    Layer& l = by_name[s.name];
    l.name = s.name;
    ++l.count;
    l.total_ms += Ms(s.end - s.start).count();
    l.self_ms += Ms(s.end - s.start - covered).count();
  }
  std::vector<Layer> out;
  for (auto& [name, l] : by_name) out.push_back(l);
  return out;
}

Tracer::Layer Tracer::layer(const std::string& name) const {
  for (const Layer& l : layers()) {
    if (l.name == name) return l;
  }
  return {name, 0, 0, 0};
}

void Tracer::print_table(std::ostream& os) const {
  char line[160];
  std::snprintf(line, sizeof line, "%-22s %9s %12s %12s\n", "span", "count",
                "total [ms]", "self [ms]");
  os << line;
  for (const Layer& l : layers()) {
    std::snprintf(line, sizeof line, "%-22s %9zu %12.3f %12.3f\n",
                  l.name.c_str(), l.count, l.total_ms, l.self_ms);
    os << line;
  }
}

std::string Tracer::json() const {
  using Us = std::chrono::duration<double, std::micro>;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  std::string out = "{\"layers\": [";
  char buf[256];
  bool first = true;
  for (const Layer& l : layers()) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"count\": %zu, \"total_ms\": %.6f, "
                  "\"self_ms\": %.6f}",
                  first ? "" : ", ", l.name.c_str(), l.count, l.total_ms,
                  l.self_ms);
    out += buf;
    first = false;
  }
  out += "], \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"parent\": %d, \"stmt\": %llu}",
                  i ? ", " : "", i, s.name, Us(s.start - origin).count(),
                  Us(s.end - origin).count(), s.parent,
                  static_cast<unsigned long long>(s.stmt));
    out += buf;
  }
  return out + "]}";
}

}  // namespace pimbench
