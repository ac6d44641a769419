// In-memory span recorder for the traced run.
//
// Spans are opened and closed by the benchmark's own code around its calls
// into the program (one client thread, so the open spans form a stack). A
// span keeps its name, start, end, parent and statement id; nothing is
// written until the run ends. With tracing off every call is a no-op.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace pimbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// tracing is off).
  int open(const char* name, std::uint64_t stmt = 0);
  void close(int id);
  /// Records a span measured elsewhere (e.g. the queue wait a ResultSet
  /// reports) under span `parent`; returns its id (-1 when tracing is off).
  int add(const char* name, Clock::time_point start, Clock::time_point end,
           int parent, std::uint64_t stmt);

  /// RAII open/close.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t stmt = 0)
        : tracer_(t), id_(t.open(name, stmt)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Per span name: how many, total and self milliseconds. Self time is a
  /// span's duration minus the part of it its child spans cover.
  struct Layer {
    std::string name;
    std::size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::vector<Layer> layers() const;
  /// The row of one span name (all zero when no such span was recorded).
  Layer layer(const std::string& name) const;

  void print_table(std::ostream& os) const;
  /// The layer table plus every span, as one JSON object.
  std::string json() const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start, end;
    int parent;
    std::uint64_t stmt;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace pimbench
