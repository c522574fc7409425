#pragma once
// In-memory span recorder for the traced replays. A span is (name, start,
// end, parent); spans are kept in memory and written once, at exit, as
// Chrome trace-event JSON (load it in chrome://tracing or Perfetto).

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace e2e {

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// RAII span: opened as a child of the innermost open span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  /// A span whose endpoints were measured elsewhere; returns its id.
  int add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent = -1);
  [[nodiscard]] double now_s() const { return seconds_since(origin_); }

  /// Self seconds per span name: each span's duration minus the part of it
  /// its children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int parent;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;  ///< innermost open span
};

}  // namespace e2e
