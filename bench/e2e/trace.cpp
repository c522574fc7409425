#include "trace.hpp"

#include <cstdio>
#include <filesystem>

namespace e2e {

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), id_(static_cast<int>(tracer.spans_.size())) {
  tracer_.spans_.push_back({name, tracer_.now_s(), 0.0, tracer_.open_});
  tracer_.open_ = id_;
}

Tracer::Scope::~Scope() {
  Span& span = tracer_.spans_[static_cast<std::size_t>(id_)];
  span.end_s = tracer_.now_s();
  tracer_.open_ = span.parent;
}

int Tracer::add(const char* name, Clock::time_point start,
                Clock::time_point end, int parent) {
  spans_.push_back({name, seconds_between(origin_, start),
                    seconds_between(origin_, end), parent});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_time[static_cast<std::size_t>(span.parent)] +=
          span.end_s - span.start_s;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].end_s - spans_[i].start_s - child_time[i];
  }
  return self;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  // Complete events ("ph":"X"); the parent index rides in args so the span
  // tree survives even where timestamps of siblings touch.
  std::fputs("{\"traceEvents\": [\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d}}",
                 i == 0 ? "" : ",\n", span.name, span.start_s * 1e6,
                 (span.end_s - span.start_s) * 1e6, i, span.parent);
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace e2e
