#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"

namespace e2e {

// Names and units must match BENCHMARK.json at the repository root.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"latency_ms.p50", "ms"},
    {"latency_ms.tail", "ms"},
    {"cpu_ms_per_op", "ms"},
    {"throughput_per_s", "1/s"},
    {"qor_cost", "score"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"rtlgen.realize.s", "s"},
    {"synth.optimize.s", "s"},
    {"synth.optimize.cells_out", "count"},
    {"synth.report.s", "s"},
    {"place.quick.s", "s"},
    {"core.cf_search.s", "s"},
    {"core.cf_search.calls", "count"},
    {"core.cf_search.tool_runs", "count"},
    {"core.cf_search.feasible_ratio", "ratio"},
    {"core.pblock.s", "s"},
    {"core.pblock.calls", "count"},
    {"core.pblock.distinct_ratio", "ratio"},
    {"place.pack.s", "s"},
    {"place.pack.calls", "count"},
    {"place.pack.fail", "count"},
    {"route.routability.s", "s"},
    {"route.routability.calls", "count"},
    {"route.routability.congestion_fail", "count"},
    {"flow.self_s", "s"},
    {"stitch.s", "s"},
    {"stitch.moves", "count"},
    {"stitch.moves_per_s", "1/s"},
    {"stitch.accept_ratio", "ratio"},
    {"stitch.illegal_ratio", "ratio"},
    {"stitch.converge_move", "count"},
    {"stitch.unplaced", "count"},
    {"train.self_s", "s"},
    {"ml.features_s", "s"},
    {"ml.balance_s", "s"},
    {"ml.split_s", "s"},
    {"ml.fit_s", "s"},
    {"ml.fit_rows", "count"},
    {"ml.predict_s", "s"},
    {"srv.queue_us.p50", "us"},
    {"srv.queue_us.p99", "us"},
    {"srv.batch.p50", "count"},
    {"srv.predict_us.p99", "us"},
    {"srv.shed", "count"},
    {"srv.generator_late_ms.p99", "ms"},
    {"srv.ladder.max_pass_qps", "1/s"},
    {"srv.ladder.lowest_pass", "bool"},
    {"srv.ladder.top_pass", "bool"},
    {"serve.predict_us_per_row", "us"},
    {"trace.untraced_s", "s"},
    {"trace.replay_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.self_sum_ratio", "ratio"},
    {"trace.spans", "count"},
};

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Report::set(const std::string& name, double value) {
  check(std::isfinite(value), "metric " + name + " is not finite");
  values_[name] = std::isfinite(value) ? value : 0.0;
}

void Report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (!what.empty() && problems_.size() < 20) problems_.push_back(what);
  }
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) problems_.push_back(what);
}

std::string Report::json(bool trace) const {
  const auto number = [](double value) {
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, ec == std::errc{} ? end : buf);
  };
  std::string metrics;
  for (const MetricSpec& spec : trace ? kPerLayer : kEndToEnd) {
    const auto it = values_.find(spec.name);
    if (it == values_.end() && !trace) {
      throw std::logic_error(std::string("end-to-end metric never set: ") +
                             spec.name);
    }
    if (!metrics.empty()) metrics += ", ";
    metrics.append("\"").append(spec.name).append("\": {\"value\": ");
    metrics.append(number(it == values_.end() ? 0.0 : it->second));
    metrics.append(", \"unit\": \"").append(spec.unit).append("\"}");
  }
  // A run that found problems but attempted nothing still reports one
  // attempt, so `failed` is never hidden behind `attempted` = 0.
  const long attempted = std::max(attempted_, 1L);
  const long failed = correct() ? failed_ : std::max(failed_, 1L);
  return std::string("{\"correct\": ") + (correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         metrics + "}}";
}

Samples measure(double seconds, int min_samples,
                const std::function<void(int)>& op,
                const std::function<void()>& between) {
  op(-1);  // warm-up: caches, allocator arenas, lazy statics
  Samples samples;
  const Clock::time_point start = Clock::now();
  const auto another_fits = [&](int done) {
    const double elapsed = seconds_since(start);
    return elapsed + elapsed / std::max(done, 1) <= seconds;
  };
  for (int i = 0; i < min_samples || another_fits(i); ++i) {
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    op(i);
    samples.wall_s.push_back(seconds_since(t0));
    samples.total_wall_s += samples.wall_s.back();
    samples.total_cpu_s += process_cpu_seconds() - cpu0;
    if (between) between();
  }
  return samples;
}

void SetupTimer::run(int reps) {
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup_();
    samples_.push_back(seconds_since(t0));
  }
}

void report_batch_timing(const Samples& samples, double tail_q,
                         double units_per_op, Report& report) {
  std::vector<double> ms;
  for (const double s : samples.wall_s) ms.push_back(s * 1e3);
  const auto ops = static_cast<double>(samples.wall_s.size());
  report.set("latency_ms.p50", quantile(ms, 0.5));
  report.set("latency_ms.tail", quantile(ms, tail_q));
  report.set("cpu_ms_per_op", samples.total_cpu_s * 1e3 / ops);
  report.set("throughput_per_s", units_per_op * ops / samples.total_wall_s);
}

}  // namespace e2e
