// serve-rf: an in-process EstimatorServer on a Unix socket serving a
// random-forest bundle.
//
// One event-loop thread drives kConnections connections: open-loop Poisson
// arrivals at a nominal rate (independent users), then a closed loop that
// keeps every connection's window full (capacity). Every request is timed
// from when it was due to be sent (so a stalled generator charges its stall
// to the requests behind it), every OK answer must be bit-equal to a local
// predict_row of the same row, and a failed or missing answer counts as a
// latency miss.

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/cancel.hpp"
#include "common/parse_num.hpp"
#include "common/rng.hpp"
#include "fabric/catalog.hpp"
#include "flow/ground_truth.hpp"
#include "serve/registry.hpp"
#include "srv/protocol.hpp"
#include "srv/server.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

using namespace mf;

constexpr int kConnections = 4;
constexpr double kNominalQps = 4000.0;
constexpr double kLimitP99Ms = 5.0;   ///< latency limit of a passing rate
constexpr double kLateLimitMs = 1.0;  ///< generator lateness limit
constexpr double kLadderLoQps = 2000.0;
constexpr double kLadderHiQps = 32000.0;
constexpr double kRungSeconds = 3.0;  ///< a 20 ms stall stays under 1% of a rung
constexpr double kFailedMs = 1e6;     ///< latency recorded for a failed request
constexpr int kTraceEvery = 16;       ///< traced phase: every 16th request
constexpr std::size_t kWindow = 64;   ///< closed loop: in flight per connection
constexpr const char* kModel = "rf";

/// What TRACE <id> reported for one traced request.
struct TraceRecord {
  double queue_us = 0.0;
  double batch = 0.0;
  double predict_us = 0.0;
};

struct PhaseStats {
  std::vector<double> latency_ms;  ///< per request; failures read kFailedMs
  std::vector<double> late_ms;     ///< per request: sent minus due
  long failed = 0;
  long answered_in_time = 0;       ///< OK answers before the phase ended
  std::vector<long> ok_per_row;    ///< OK answers per row
  std::vector<TraceRecord> traces;
  double cpu_s = 0.0;

  [[nodiscard]] bool passes() const {
    return quantile(latency_ms, 0.99) <= kLimitP99Ms &&
           quantile(late_ms, 0.99) < kLateLimitMs;
  }
};

double field(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  return at == std::string::npos
             ? -1.0
             : std::strtod(line.c_str() + at + std::strlen(key), nullptr);
}

/// One set-up of the workload: the bundle trained and registered, the
/// daemon listening, kConnections connections open and warmed.
class ServeRig {
 public:
  explicit ServeRig(int rep);
  ~ServeRig();
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] EstimatorServer& server() { return *server_; }
  /// Mean |served - label| / label over a phase's OK answers, summed in row
  /// order so that it repeats bit for bit whatever order answers came in.
  [[nodiscard]] double mean_rel_err(const PhaseStats& phase) const;

  /// Open-loop Poisson load at `qps` for `seconds` -- or, for qps = 0, a
  /// closed loop keeping kWindow requests in flight on every connection.
  /// Requests draw rows uniformly. With a tracer, every kTraceEvery-th
  /// request is stamped and followed by a pipelined TRACE on its own
  /// connection.
  PhaseStats run_phase(double qps, double seconds, std::uint64_t seed,
                       Tracer* tracer);

 private:
  struct Pending {
    std::uint32_t row = 0;
    bool trace_query = false;
    Clock::time_point due;
    Clock::time_point sent;
    Clock::time_point answered;  ///< trace queries: their ESTIMATE's answer
  };
  struct Conn {
    int fd = -1;
    std::string out;
    std::string in;
    std::deque<Pending> pending;
  };

  bool connect_all();

  std::string dir_;
  std::string error_;
  std::vector<std::string> bodies_;  ///< " <f1> ... <fN>\n" per row
  std::vector<double> expected_;     ///< local predict_row per row
  std::vector<double> labels_;       ///< min-CF label per row
  std::vector<Conn> conns_;
  CancelToken cancel_;
  std::unique_ptr<EstimatorServer> server_;
  std::thread daemon_;
};

ServeRig::ServeRig(int rep)
    : dir_(".bench_build/serve-" + std::to_string(::getpid()) + "-" +
           std::to_string(rep)),
      conns_(kConnections) {
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);

  // A fixed bundle, so set-up does the same work for every seed: label a
  // 600-module sweep, fit a forest the size `macroflow train` fits on 80%
  // of it, serve the rest.
  const Device device = xc7z020_model();
  const GroundTruth truth =
      build_ground_truth(dataset_sweep({600, 42}), device, {}, 2);
  Rng split_rng(task_seed(3, "serve:split"));
  const auto [train, holdout] = train_test_split(
      make_dataset(FeatureSet::All, truth.samples), 0.8, split_rng);
  CfEstimator::Options options;
  options.rforest.trees = kForestTrees;
  options.rforest.jobs = 2;
  ModelBundle bundle;
  bundle.name = kModel;
  bundle.estimator =
      CfEstimator(EstimatorKind::RandomForest, FeatureSet::All, options);
  bundle.estimator.train(train);
  if (!ModelRegistry(dir_).put(bundle)) {
    error_ = "cannot store the bundle in " + dir_;
    return;
  }
  for (std::size_t i = 0; i < holdout.size(); ++i) {
    std::string body;
    for (const double f : holdout.x[i]) {
      body.append(" ").append(format_double(f));
    }
    bodies_.push_back(body + "\n");
    expected_.push_back(bundle.estimator.predict_row(holdout.x[i]));
    labels_.push_back(holdout.y[i]);
  }

  ServerOptions server_options;
  server_options.registry_dir = dir_;
  server_options.socket_path = dir_ + "/s.sock";
  server_options.jobs = 1;
  server_options.cancel = &cancel_;
  server_ = std::make_unique<EstimatorServer>(server_options);
  daemon_ = std::thread([this] { server_->run(); });
  if (!connect_all()) return;
  // ~50 requests load the bundle and start every connection thread before
  // anything is timed.
  const PhaseStats warm = run_phase(1000.0, 0.05, 1, nullptr);
  if (warm.failed > 0) error_ = "warm-up requests failed";
}

ServeRig::~ServeRig() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  cancel_.cancel();
  if (daemon_.joinable()) daemon_.join();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

bool ServeRig::connect_all() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = dir_ + "/s.sock";
  if (path.size() >= sizeof addr.sun_path) {
    error_ = "socket path too long";
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const Clock::time_point start = Clock::now();
  for (Conn& conn : conns_) {
    for (;;) {
      conn.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0) {
        break;
      }
      ::close(conn.fd);
      conn.fd = -1;
      if (seconds_since(start) > 10.0) {
        error_ = "daemon never accepted connections";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
  }
  return true;
}

double ServeRig::mean_rel_err(const PhaseStats& phase) const {
  // OK answers are bit-equal to expected_ (run_phase checks every one).
  double sum = 0.0;
  long answers = 0;
  for (std::size_t row = 0; row < phase.ok_per_row.size(); ++row) {
    const long n = phase.ok_per_row[row];
    sum += static_cast<double>(n) * std::abs(expected_[row] - labels_[row]) /
           labels_[row];
    answers += n;
  }
  return sum / static_cast<double>(answers);
}

PhaseStats ServeRig::run_phase(double qps, double seconds,
                               std::uint64_t seed, Tracer* tracer) {
  PhaseStats stats;
  if (!error_.empty()) return stats;
  stats.ok_per_row.assign(bodies_.size(), 0);
  // An open-loop schedule is drawn up front: arrival offsets, connection,
  // row. A closed loop draws each row as its predecessor is answered.
  Rng rng(seed);
  const bool closed_loop = qps <= 0.0;
  struct Arrival {
    double at_s;
    int conn;
    std::uint32_t row;
  };
  std::vector<Arrival> arrivals;
  for (double t = 0.0; !closed_loop;) {
    t += -std::log(1.0 - rng.uniform()) / qps;
    if (t >= seconds) break;
    arrivals.push_back({t, static_cast<int>(rng.index(kConnections)),
                        static_cast<std::uint32_t>(rng.index(bodies_.size()))});
  }
  const double cpu_start = process_cpu_seconds();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const Clock::time_point end = at(seconds);
  const Clock::time_point give_up = at(seconds + 10.0);

  const auto fail = [&](const Pending& p) {
    if (p.trace_query) return;
    ++stats.failed;
    stats.latency_ms.push_back(kFailedMs);
  };
  std::uint64_t sent = 0;
  const auto send = [&](int c, std::uint32_t row, Clock::time_point due,
                        Clock::time_point now) {
    Conn& conn = conns_[static_cast<std::size_t>(c)];
    const std::string head =
        "ESTIMATE c" + std::to_string(c) + " " + kModel + bodies_[row];
    const Pending p{row, false, due, now, {}};
    stats.late_ms.push_back(seconds_between(due, now) * 1e3);
    if (conn.fd < 0) {
      fail(p);
    } else if (tracer != nullptr && sent % kTraceEvery == 0) {
      const std::string id = std::string("t").append(std::to_string(sent));
      conn.out += "id=" + id + " " + head + "TRACE " + id + "\n";
      conn.pending.push_back(p);
      conn.pending.push_back({row, true, due, now, {}});
    } else {
      conn.out += head;
      conn.pending.push_back(p);
    }
    ++sent;
  };
  std::size_t next = 0;
  std::vector<pollfd> fds(kConnections);
  std::string buf;
  for (;;) {
    Clock::time_point now = Clock::now();
    for (; next < arrivals.size() && at(arrivals[next].at_s) <= now; ++next) {
      const Arrival& a = arrivals[next];
      send(a.conn, a.row, at(a.at_s), now);
    }
    for (int c = 0; closed_loop && now < end && c < kConnections; ++c) {
      while (conns_[static_cast<std::size_t>(c)].fd >= 0 &&
             conns_[static_cast<std::size_t>(c)].pending.size() < kWindow) {
        send(c, static_cast<std::uint32_t>(rng.index(bodies_.size())), now,
             now);
      }
    }

    bool waiting = false;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = conns_[c];
      if (conn.fd >= 0 && !conn.out.empty()) {
        const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                                 MSG_NOSIGNAL);
        if (n > 0) conn.out.erase(0, static_cast<std::size_t>(n));
      }
      waiting = waiting || !conn.pending.empty();
      fds[c] = {conn.fd, static_cast<short>(POLLIN | (conn.out.empty()
                                                          ? 0
                                                          : POLLOUT)),
                0};
    }
    const bool sending = closed_loop ? now < end : next < arrivals.size();
    if ((!sending && !waiting) || now > give_up) break;

    std::chrono::nanoseconds wait = std::chrono::milliseconds(10);
    if (next < arrivals.size()) {
      wait = std::min(wait, std::chrono::duration_cast<std::chrono::nanoseconds>(
                                at(arrivals[next].at_s) - now));
    }
    const timespec ts{0, std::max<long>(0, static_cast<long>(wait.count()))};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;

    now = Clock::now();
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = conns_[c];
      if (conn.fd < 0 || (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      buf.resize(65536);
      const ssize_t n = ::read(conn.fd, buf.data(), buf.size());
      if (n <= 0) {
        if (n < 0 && errno == EAGAIN) continue;
        ::close(conn.fd);  // lost connection: everything in flight failed
        conn.fd = -1;
        for (const Pending& p : conn.pending) fail(p);
        conn.pending.clear();
        continue;
      }
      conn.in.append(buf.data(), static_cast<std::size_t>(n));
      while (std::optional<std::string> line = pop_line(conn.in)) {
        if (conn.pending.empty()) {
          ++stats.failed;  // an answer nobody asked for
          continue;
        }
        const Pending p = conn.pending.front();
        conn.pending.pop_front();
        if (p.trace_query) {
          TraceRecord record{field(*line, " queue_us="), field(*line, " batch="),
                             field(*line, " predict_us=")};
          if (response_code(*line) != 0 || record.queue_us < 0.0 ||
              tracer == nullptr) {
            ++stats.failed;
            continue;
          }
          stats.traces.push_back(record);
          const int span = tracer->add("serve.request", p.due, p.answered);
          tracer->add("client.late", p.due, p.sent, span);
          const auto us = [](double v) {
            return std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::micro>(v));
          };
          const Clock::time_point queued = p.sent + us(record.queue_us);
          tracer->add("srv.queue", p.sent, queued, span);
          tracer->add("srv.predict", queued, queued + us(record.predict_us),
                      span);
          continue;
        }
        const std::optional<double> cf = parse_ok_cf(*line);
        if (!cf || *cf != expected_[p.row]) {
          fail(p);
          continue;
        }
        stats.latency_ms.push_back(seconds_between(p.due, now) * 1e3);
        ++stats.ok_per_row[p.row];
        if (now <= end) ++stats.answered_in_time;
        if (!conn.pending.empty() && conn.pending.front().trace_query) {
          conn.pending.front().answered = now;
        }
      }
    }
  }
  for (std::size_t i = next; i < arrivals.size(); ++i) {
    fail({arrivals[i].row, false, at(arrivals[i].at_s), {}, {}});
  }
  for (Conn& conn : conns_) {
    for (const Pending& p : conn.pending) fail(p);
    conn.pending.clear();
    conn.out.clear();
    conn.in.clear();
  }
  stats.cpu_s = process_cpu_seconds() - cpu_start;
  return stats;
}

/// Count the phase's requests into the report.
void account(const PhaseStats& phase, Report& report) {
  const long total = static_cast<long>(phase.latency_ms.size());
  for (long i = 0; i < total - phase.failed; ++i) report.attempt(true);
  for (long i = 0; i < phase.failed; ++i) {
    report.attempt(false, "request failed or answer differs from predict_row");
  }
}

void trace_serve(const RunConfig& cfg, ServeRig& rig, Report& report) {
  const double phase_s = cfg.seconds / 2.0;
  account(rig.run_phase(kNominalQps, 0.5, task_seed(cfg.seed, "warm"), nullptr),
          report);
  const PhaseStats plain =
      rig.run_phase(kNominalQps, phase_s, task_seed(cfg.seed, "plain"), nullptr);
  account(plain, report);
  Tracer tracer;
  const PhaseStats traced = rig.run_phase(
      kNominalQps, phase_s, task_seed(cfg.seed, "traced"), &tracer);
  account(traced, report);
  report.check(!traced.traces.empty(), "no TRACE record came back");

  std::vector<double> queue_us;
  std::vector<double> batch;
  std::vector<double> predict_us;
  for (const TraceRecord& r : traced.traces) {
    queue_us.push_back(r.queue_us);
    batch.push_back(r.batch);
    predict_us.push_back(r.predict_us);
  }
  report.set("srv.queue_us.p50", quantile(queue_us, 0.5));
  report.set("srv.queue_us.p99", quantile(queue_us, 0.99));
  report.set("srv.batch.p50", quantile(batch, 0.5));
  report.set("srv.predict_us.p99", quantile(predict_us, 0.99));
  report.set("srv.generator_late_ms.p99", quantile(traced.late_ms, 0.99));
  const double untraced = quantile(plain.latency_ms, 0.5) / 1e3;
  const double replay = quantile(traced.latency_ms, 0.5) / 1e3;
  report.set("trace.untraced_s", untraced);
  report.set("trace.replay_s", replay);
  report.set("trace.overhead_s", replay - untraced);
  report.set("trace.spans", static_cast<double>(tracer.size()));

  // The full ladder: does it straddle the knee?
  double max_pass = 0.0;
  bool lowest_pass = false;
  bool top_pass = false;
  int rung = 0;
  for (double qps = kLadderLoQps; qps <= kLadderHiQps * 1.001;
       qps *= std::sqrt(2.0), ++rung) {
    const PhaseStats step =
        rig.run_phase(qps, cfg.quick ? 0.25 : kRungSeconds,
                      task_seed(cfg.seed, "rung:" + std::to_string(rung)),
                      nullptr);
    account(step, report);
    const bool pass = step.passes();
    if (pass) max_pass = qps;
    if (rung == 0) lowest_pass = pass;
    top_pass = pass;
  }
  report.set("srv.ladder.max_pass_qps", max_pass);
  report.set("srv.ladder.lowest_pass", lowest_pass ? 1.0 : 0.0);
  report.set("srv.ladder.top_pass", top_pass ? 1.0 : 0.0);

  const ServerStats server = rig.server().stats();
  report.set("srv.shed", static_cast<double>(server.err_over_quota));
  const ServiceStats service = rig.server().service().stats();
  report.set("serve.predict_us_per_row",
             static_cast<double>(service.latency_ns) / 1e3 /
                 static_cast<double>(std::max<std::uint64_t>(service.rows, 1)));
  report.check(tracer.write_chrome_json(cfg.trace_out),
               "cannot write trace file " + cfg.trace_out);
}

}  // namespace

void run_serve(const RunConfig& cfg, Report& report) {
  ::prctl(PR_SET_TIMERSLACK, 1000UL);  // 1 us: the generator sleeps in ppoll
  std::unique_ptr<ServeRig> rig;
  int rep = 0;
  SetupTimer setup([&] { rig = std::make_unique<ServeRig>(rep++); });
  for (int i = 0; i < (cfg.quick ? 1 : 3); ++i) {
    rig.reset();  // tear the previous set-up down outside the timing
    setup.run(1);
  }
  report.set("setup_s", setup.median_s());
  report.check(rig->error().empty(), "set-up: " + rig->error());
  if (!rig->error().empty()) {
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }
  if (cfg.trace) {
    trace_serve(cfg, *rig, report);
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  // Warm-up, then the nominal rate for half the run, then the closed-loop
  // saturation throughput for the other half.
  account(rig->run_phase(kNominalQps, 0.5, task_seed(cfg.seed, "warm"),
                         nullptr),
          report);
  const PhaseStats nominal = rig->run_phase(
      kNominalQps, cfg.seconds / 2.0, task_seed(cfg.seed, "nominal"), nullptr);
  account(nominal, report);
  const auto requests = static_cast<double>(nominal.latency_ms.size());
  report.set("latency_ms.p50", quantile(nominal.latency_ms, 0.5));
  // p95, not p99: on a shared 4-core machine p99 and beyond move with other
  // tenants' stalls by up to 2x from run to run, while p95 still carries
  // the coalescing window and the queueing behind it.
  report.set("latency_ms.tail", quantile(nominal.latency_ms, 0.95));
  report.set("cpu_ms_per_op", nominal.cpu_s * 1e3 / requests);
  report.set("qor_cost", rig->mean_rel_err(nominal));

  const PhaseStats saturated = rig->run_phase(
      0.0, cfg.seconds / 2.0, task_seed(cfg.seed, "saturate"), nullptr);
  account(saturated, report);
  report.set("throughput_per_s", static_cast<double>(saturated.answered_in_time) /
                                     (cfg.seconds / 2.0));
  rig.reset();
  report.set("peak_rss_mb", peak_rss_mb());
}

}  // namespace e2e
