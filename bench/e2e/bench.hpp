#pragma once
// Shared pieces of the end-to-end benchmark (bench/e2e/README.md): the run
// configuration, the report every workload fills, the metric catalogue the
// report is checked against, and small statistics helpers.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point from,
                                     Clock::time_point to);
[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}
/// User + system CPU time of the whole process (every thread).
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of this process (ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Quantile with linear interpolation between order statistics; q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20.0;  ///< length of the measured phase
  bool trace = false;     ///< traced replay: report per-layer metrics
  bool quick = false;     ///< reduced iterations (the quick ctest gate)
  std::string trace_out;  ///< Chrome trace-event file of a traced run
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports all of them (trace 0).
extern const std::vector<MetricSpec> kEndToEnd;
/// Per-layer metrics: every workload reports all of them (trace 1); a layer
/// a workload never enters reads 0.
extern const std::vector<MetricSpec> kPerLayer;

/// What one run reports. A failed output check fails the run.
class Report {
 public:
  void set(const std::string& name, double value);
  /// Count one attempted operation; `ok` false counts it as failed.
  void attempt(bool ok, const std::string& what = "");
  /// A whole-run output check; a failure makes the run incorrect.
  void check(bool ok, const std::string& what);

  [[nodiscard]] bool correct() const noexcept {
    return failed_ == 0 && problems_.empty();
  }
  /// The result line: {"correct", "attempted", "failed", "metrics"} over the
  /// catalogue for this kind of run. Throws when an end-to-end metric of
  /// the catalogue was never set.
  [[nodiscard]] std::string json(bool trace) const;
  [[nodiscard]] const std::vector<std::string>& problems() const noexcept {
    return problems_;
  }

 private:
  std::map<std::string, double> values_;
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> problems_;
};

/// Batch-workload timing: one warm-up call of `op` (index -1, excluded),
/// then calls op(0), op(1), ... while another call of the mean length still
/// fits in `seconds`, and at least `min_samples` times. `between`, when
/// given, runs untimed after each call.
struct Samples {
  std::vector<double> wall_s;  ///< per call
  double total_wall_s = 0.0;   ///< summed over the calls
  double total_cpu_s = 0.0;    ///< process CPU summed over the calls
};
Samples measure(double seconds, int min_samples,
                const std::function<void(int)>& op,
                const std::function<void()>& between = {});

/// Times a workload's set-up, which leaves the same state every time it
/// runs. A workload may run it again between measured calls, so that the
/// median covers the machine's state over the whole run, not only its first
/// milliseconds.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup)
      : setup_(std::move(setup)) {}
  void run(int reps);
  [[nodiscard]] double median_s() const { return median(samples_); }

 private:
  std::function<void()> setup_;
  std::vector<double> samples_;
};

/// Fill the end-to-end latency / CPU / throughput metrics of a batch
/// workload from its samples; `units_per_op` scales throughput.
void report_batch_timing(const Samples& samples, double tail_q,
                         double units_per_op, Report& report);

// -- workloads (flow_workloads.cpp, serve_workload.cpp) -----------------------
void run_cnv(const RunConfig& cfg, bool large_device, Report& report);
void run_train(const RunConfig& cfg, Report& report);
void run_serve(const RunConfig& cfg, Report& report);
/// The held-out seed check on the cnv-z020 flow: the anneal walk must differ
/// from the default seed's while every output check still passes.
void check_heldout_seed(std::uint64_t default_seed, Report& report);

inline constexpr std::uint64_t kHeldOutSeed = 90217;
/// Trees of every forest the benchmark trains: `macroflow train`'s default.
inline constexpr int kForestTrees = 200;

}  // namespace e2e
