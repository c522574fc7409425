// Stitcher engine bench: lone SA against pinned constants, multi-start
// scaling, and the engine-portfolio race, on the fig5-scale cnvW1A1 stitch
// problem (constant CF 1.5) plus a device-filling synthetic.
//
// Four claims are measured and *checked*, not just timed:
//   1. lone SA on the fig5 problem reproduces its pinned result -- cost,
//      unplaced count, move counters, positions and cost-trace hashes --
//      captured while the naive reference engine still agreed with the
//      incremental one bit for bit;
//   2. multi-start annealing (restarts > 1) returns bit-identical results
//      at every `jobs` value;
//   3. the engine portfolio beats lone SA on both problems: >= 1.5x fewer
//      moves to reach SA's final cost OR >= 5% lower cost at SA's move
//      budget;
//   4. a portfolio race is bit-identical at any `jobs` value, and racing
//      `portfolio = {sa}` at restarts = 1 reproduces the plain anneal move
//      for move.
// Every result the bench produces also passes stitch_error (stitch/verify).
// A violated invariant aborts the bench via MF_CHECK -- the ctest entry
// (`--quick`) relies on that to turn this into a correctness gate.
//
// Results land in BENCH_STITCH.json (machine-readable: moves/sec, final
// cost, wall ms per configuration) next to a human-readable table on
// stdout. Plain main, not google-benchmark: the checked best-of-N structure
// does not fit the BM_ harness.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "fabric/catalog.hpp"
#include "flow/rw_flow.hpp"
#include "nn/cnv_w1a1.hpp"
#include "stitch/engine.hpp"
#include "stitch/sa_stitcher.hpp"
#include "stitch/verify.hpp"

#include "bench_common.hpp"

namespace {

using namespace mf;

struct Sample {
  std::string name;
  long moves = 0;
  double seconds = 0.0;
  double cost = 0.0;
  int unplaced = 0;
  [[nodiscard]] double moves_per_sec() const {
    return seconds > 0.0 ? moves / seconds : 0.0;
  }
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;
  return h;
}

/// FNV-1a over (col, row) per instance -- the hash the stitch tests pin.
std::uint64_t positions_hash(const StitchResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const BlockPlacement& p : r.positions) {
    h = mix(h, static_cast<std::uint64_t>(p.col));
    h = mix(h, static_cast<std::uint64_t>(p.row));
  }
  return h;
}

/// FNV-1a over (move, cost bits) per trace sample.
std::uint64_t trace_hash(const StitchResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [move, cost] : r.cost_trace) {
    h = mix(h, static_cast<std::uint64_t>(move));
    h = mix(h, std::bit_cast<std::uint64_t>(cost));
  }
  return h;
}

/// Lone SA at default options on the fig5 problem, pinned bit for bit.
void check_pinned_fig5_sa(const StitchResult& r) {
  MF_CHECK(std::bit_cast<std::uint64_t>(r.cost) == 0x40f5fbd000000000ULL);
  MF_CHECK(std::bit_cast<std::uint64_t>(r.wirelength) ==
           0x40b1250000000000ULL);
  MF_CHECK(r.cost == 90045.0);
  MF_CHECK(r.unplaced == 86);
  MF_CHECK(r.total_moves == 315000);
  MF_CHECK(r.accepted == 326);
  MF_CHECK(r.rejected == 187);
  MF_CHECK(r.illegal == 313590);
  MF_CHECK(positions_hash(r) == 0x2454b07f4a5b99adULL);
  MF_CHECK(trace_hash(r) == 0x6dddb7952c29a6adULL);
}

/// stitch() with every result checked by the independent verifier.
StitchResult checked_stitch(const Device& dev, const StitchProblem& problem,
                            const StitchOptions& opts) {
  StitchResult r = stitch(dev, problem, opts);
  if (const auto error = stitch_error(dev, problem, r)) {
    MF_CHECK_MSG(false, "illegal stitch result: " + *error);
  }
  return r;
}

/// Same positions, cost, and counters -- the bit-identity contract.
void check_identical(const StitchResult& a, const StitchResult& b) {
  MF_CHECK(a.cost == b.cost);
  MF_CHECK(a.wirelength == b.wirelength);
  MF_CHECK(a.unplaced == b.unplaced);
  MF_CHECK(a.total_moves == b.total_moves);
  MF_CHECK(a.positions.size() == b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    MF_CHECK(a.positions[i].col == b.positions[i].col);
    MF_CHECK(a.positions[i].row == b.positions[i].row);
  }
}

/// Move-for-move identity: counters, trace samples, and per-engine stats
/// (wall seconds excluded -- everything else must match).
void check_move_for_move(const StitchResult& a, const StitchResult& b) {
  check_identical(a, b);
  MF_CHECK(a.accepted == b.accepted);
  MF_CHECK(a.rejected == b.rejected);
  MF_CHECK(a.illegal == b.illegal);
  MF_CHECK(a.engine == b.engine);
  MF_CHECK(a.restart_index == b.restart_index);
  MF_CHECK(a.cost_trace.size() == b.cost_trace.size());
  for (std::size_t i = 0; i < a.cost_trace.size(); ++i) {
    MF_CHECK(a.cost_trace[i].first == b.cost_trace[i].first);
    MF_CHECK(a.cost_trace[i].second == b.cost_trace[i].second);
  }
  MF_CHECK(a.engines.size() == b.engines.size());
  for (std::size_t i = 0; i < a.engines.size(); ++i) {
    const EngineStats& x = a.engines[i];
    const EngineStats& y = b.engines[i];
    MF_CHECK(x.engine == y.engine);
    MF_CHECK(x.config == y.config);
    MF_CHECK(x.seed == y.seed);
    MF_CHECK(x.warm_start == y.warm_start);
    MF_CHECK(x.moves == y.moves);
    MF_CHECK(x.evals == y.evals);
    MF_CHECK(x.best_cost == y.best_cost);
    MF_CHECK(x.unplaced == y.unplaced);
    MF_CHECK(x.target_move == y.target_move);
  }
}

/// Device-filling synthetic: two mid-size macro shapes chained with star
/// nets, enough copies to oversubscribe the xc7z020 fabric. This is the
/// regime where lone SA spends most of its budget shuffling parked blocks.
StitchProblem filling_problem(const Device& dev) {
  StitchProblem problem;
  auto add_macro = [&](const char* name, int col0, int w, int h) {
    Macro m;
    m.name = name;
    m.pblock = PBlock{col0, col0 + w - 1, 0, h - 1};
    m.footprint = footprint_of(dev, m.pblock, false);
    m.used_slices = w * h;
    problem.macros.push_back(std::move(m));
  };
  add_macro("mid", 0, 5, 20);
  add_macro("tall", 6, 4, 34);
  int next = 0;
  auto instances = [&](int macro, int count) {
    for (int i = 0; i < count; ++i) {
      problem.instances.push_back(
          BlockInstance{"f" + std::to_string(next++), macro});
    }
  };
  instances(0, 90);
  instances(1, 60);
  for (int i = 0; i + 1 < next; ++i) {
    problem.nets.push_back(BlockNet{{i, i + 1}, 1.0});
  }
  for (int i = 0; i + 8 < next; i += 8) {
    problem.nets.push_back(BlockNet{{i, i + 4, i + 8}, 0.5});
  }
  return problem;
}

Sample run_once(const char* name, const Device& dev,
                const StitchProblem& problem, const StitchOptions& opts,
                StitchResult* out = nullptr) {
  Timer t;
  StitchResult r = checked_stitch(dev, problem, opts);
  Sample s;
  s.name = name;
  s.moves = r.restart_moves;
  s.seconds = t.seconds();
  s.cost = r.cost;
  s.unplaced = r.unplaced;
  if (out != nullptr) *out = std::move(r);
  return s;
}

/// The ISSUE-8 portfolio gate on one problem: race the default portfolio
/// against lone SA under both policies and require >= 1.5x time-to-equal-
/// cost OR >= 5% cost-at-equal-budget. Returns the two measured margins.
std::pair<double, double> portfolio_gate(const char* tag, const Device& dev,
                                         const StitchProblem& problem,
                                         const StitchResult& sa,
                                         std::vector<Sample>& samples) {
  StitchOptions pf;
  pf.engine = StitchEngine::Portfolio;
  pf.jobs = 4;

  // First-to-target: how many moves does the winning engine need to reach
  // the cost lone SA ends at? (target_move can be 0 when an engine's very
  // first placement already beats SA -- clamp the divisor.)
  StitchOptions to_target = pf;
  to_target.target_cost = sa.cost;
  StitchResult r_target;
  samples.push_back(run_once((std::string("pf_to_target_") + tag).c_str(),
                             dev, problem, to_target, &r_target));
  const double speedup =
      r_target.target_move >= 0
          ? static_cast<double>(sa.total_moves) /
                static_cast<double>(std::max(r_target.target_move, 1L))
          : 0.0;

  // Cost-at-equal-budget: every raced engine capped at SA's move count.
  StitchOptions budgeted = pf;
  budgeted.engine_budget = sa.total_moves;
  StitchResult r_budget;
  samples.push_back(run_once((std::string("pf_equal_budget_") + tag).c_str(),
                             dev, problem, budgeted, &r_budget));
  const double improvement = (sa.cost - r_budget.cost) / sa.cost;

  std::printf(
      "portfolio vs sa [%s]: time-to-equal-cost %.2fx (sa %ld moves, "
      "winner %s at %ld), cost-at-equal-budget %+.2f%% (%.1f -> %.1f, "
      "winner %s)\n",
      tag, speedup, sa.total_moves, r_target.engine.c_str(),
      r_target.target_move, improvement * 100.0, sa.cost, r_budget.cost,
      r_budget.engine.c_str());
  MF_CHECK_MSG(speedup >= 1.5 || improvement >= 0.05,
               "portfolio gate failed: need >= 1.5x speedup or >= 5% cost");
  return {speedup, improvement};
}

void append_json(std::string& json, const Sample& s, bool first) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s\n  {\"name\": \"%s\", \"moves\": %ld, \"wall_ms\": %.3f, "
                "\"moves_per_sec\": %.0f, \"cost\": %.6f, \"unplaced\": %d}",
                first ? "" : ",", s.name.c_str(), s.moves, s.seconds * 1e3,
                s.moves_per_sec(), s.cost, s.unplaced);
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  // Fig5-scale stitch problem: every cnvW1A1 block implemented at the
  // paper's constant CF 1.5, stitch deferred to the measured runs below.
  const Device dev = xc7z020_model();
  const CnvDesign design = build_cnv_w1a1();
  RwFlowOptions fopts;
  fopts.compute_timing = false;
  fopts.run_stitch = false;
  fopts.jobs = 0;
  CfPolicy policy;
  policy.constant_cf = 1.5;
  const RwFlowResult flow = run_rw_flow(design, dev, policy, fopts);
  const StitchProblem& problem = flow.problem;
  std::printf("stitch problem: %zu instances, %zu nets, %zu macros\n",
              problem.instances.size(), problem.nets.size(),
              problem.macros.size());

  std::vector<Sample> samples;
  std::string json;

  // -- lone SA: best-of-N wall time, every run against the pinned result --
  const int reps = quick ? 1 : 3;
  Sample sa;
  StitchResult sa_result;
  for (int rep = 0; rep < reps; ++rep) {
    const Sample s = run_once("sa", dev, problem, StitchOptions{}, &sa_result);
    check_pinned_fig5_sa(sa_result);
    if (rep == 0 || s.seconds < sa.seconds) sa = s;
  }
  samples.push_back(sa);
  std::printf("\n%-16s %10s %10s %12s %12s %9s\n", "engine", "moves",
              "wall ms", "moves/sec", "cost", "unplaced");
  std::printf("%-16s %10ld %10.1f %12.0f %12.1f %9d\n", sa.name.c_str(),
              sa.moves, sa.seconds * 1e3, sa.moves_per_sec(), sa.cost,
              sa.unplaced);
  std::printf("sa matches the pinned fig5 result (cost %.1f, %d unplaced, "
              "%ld moves)\n",
              sa_result.cost, sa_result.unplaced, sa_result.total_moves);

  // -- multi-start scaling: restarts fixed, jobs swept --------------------
  const int restarts = quick ? 4 : 8;
  const std::vector<int> jobs_sweep = quick ? std::vector<int>{1, 4}
                                            : std::vector<int>{1, 2, 4, 8};
  std::printf("\n%-16s %10s %10s %12s %12s %9s\n", "restarts x jobs", "moves",
              "wall ms", "moves/sec", "cost", "unplaced");
  StitchResult jobs1_result;
  for (std::size_t i = 0; i < jobs_sweep.size(); ++i) {
    StitchOptions opts;
    opts.restarts = restarts;
    opts.jobs = jobs_sweep[i];
    const std::string name = std::to_string(restarts) + "x" +
                             std::to_string(jobs_sweep[i]);
    StitchResult result;
    Sample s = run_once(("multistart_" + name).c_str(), dev, problem, opts,
                        &result);
    if (i == 0) {
      jobs1_result = std::move(result);
    } else {
      // Determinism across the fan-out width: bit-identical winner.
      check_identical(jobs1_result, result);
      MF_CHECK(jobs1_result.restart_index == result.restart_index);
    }
    std::printf("%-16s %10ld %10.1f %12.0f %12.1f %9d\n", name.c_str(),
                s.moves, s.seconds * 1e3, s.moves_per_sec(), s.cost,
                s.unplaced);
    samples.push_back(std::move(s));
  }
  std::printf("multi-start winner: restart %d of %d (cost %.1f)\n",
              jobs1_result.restart_index, restarts, jobs1_result.cost);

  // -- engine portfolio: race analytic + warm SA + evo against lone SA ----
  // sa_result above IS the lone-SA baseline on the fig5 problem (default
  // options); the filling problem needs its own baseline run.
  std::printf("\n");
  const StitchProblem filling = filling_problem(dev);
  StitchResult filling_sa;
  samples.push_back(
      run_once("sa_filling", dev, filling, StitchOptions{}, &filling_sa));
  const auto [fig5_speedup, fig5_improvement] =
      portfolio_gate("fig5", dev, problem, sa_result, samples);
  const auto [fill_speedup, fill_improvement] =
      portfolio_gate("filling", dev, filling, filling_sa, samples);

  // Determinism gate 1: the same portfolio race is bit-identical at any
  // fan-out width, per-engine stats included.
  {
    StitchOptions pf;
    pf.engine = StitchEngine::Portfolio;
    pf.jobs = 1;
    const StitchResult serial = checked_stitch(dev, problem, pf);
    pf.jobs = 4;
    const StitchResult wide = checked_stitch(dev, problem, pf);
    check_move_for_move(serial, wide);
    std::printf("portfolio jobs=1 vs jobs=4: bit-identical (%zu configs, "
                "winner %s, cost %.1f)\n",
                serial.engines.size(), serial.engine.c_str(), serial.cost);
  }

  // Determinism gate 2: racing portfolio={sa} at restarts=1 reproduces the
  // plain anneal move for move (the portfolio layer is inert for a pure-SA
  // run).
  {
    StitchOptions raced;
    raced.engine = StitchEngine::Portfolio;
    raced.portfolio = {StitchEngine::Sa};
    check_move_for_move(sa_result, checked_stitch(dev, problem, raced));
    std::printf("portfolio={sa} restarts=1: reproduces the plain anneal "
                "move for move (%ld moves)\n",
                sa_result.total_moves);
  }

  json += " \"problem\": {\"instances\": " +
          std::to_string(problem.instances.size()) +
          ", \"nets\": " + std::to_string(problem.nets.size()) +
          ", \"macros\": " + std::to_string(problem.macros.size()) + "},\n";
  char head[320];
  std::snprintf(head, sizeof head,
                " \"portfolio_gate\": {"
                "\"fig5_speedup\": %.3f, \"fig5_improvement\": %.4f, "
                "\"filling_speedup\": %.3f, \"filling_improvement\": %.4f},\n"
                " \"runs\": [",
                fig5_speedup, fig5_improvement, fill_speedup,
                fill_improvement);
  json += head;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    append_json(json, samples[i], i == 0);
  }
  json += "\n ]\n";
  std::printf("\n");
  if (!bench::write_bench_json("BENCH_STITCH.json", json)) return 1;
  return 0;
}
