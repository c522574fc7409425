#include "stitch/portfolio.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "stitch/analytic_placer.hpp"
#include "stitch/evo_stitcher.hpp"
#include "stitch/sa_stitcher.hpp"

namespace mf {
namespace {

struct RacedConfig {
  StitchEngine kind = StitchEngine::Sa;
  std::uint64_t seed = 0;
  bool warm_start = false;
};

/// Winner comparison. Returns true when `a` beats `b`; with equal merit the
/// caller keeps the lower config index (it iterates ascending and only
/// replaces on a strict win).
[[nodiscard]] bool beats(const StitchResult& a, const StitchResult& b,
                         double target_cost) {
  if (target_cost > 0.0) {
    const bool ra = a.target_move >= 0;
    const bool rb = b.target_move >= 0;
    if (ra != rb) return ra;
    if (ra && rb && a.target_move != b.target_move) {
      return a.target_move < b.target_move;
    }
  }
  return a.cost < b.cost;
}

EngineStats engine_stats_of(const StitchResult& run, int config,
                            std::uint64_t seed, bool warm_start) {
  EngineStats stats;
  stats.engine = run.engine;
  stats.config = config;
  stats.seed = seed;
  stats.warm_start = warm_start;
  stats.moves = run.total_moves;
  stats.evals = run.accepted + run.rejected;
  stats.seconds = run.seconds;
  stats.best_cost = run.cost;
  stats.unplaced = run.unplaced;
  stats.target_move = run.target_move;
  return stats;
}

}  // namespace

StitchResult run_portfolio(const Device& device, const StitchProblem& problem,
                           const StitchOptions& opts) {
  Timer timer;
  std::vector<StitchEngine> engines;
  if (opts.engine == StitchEngine::Portfolio) {
    engines = opts.portfolio.empty()
                  ? std::vector<StitchEngine>{StitchEngine::Analytic,
                                              StitchEngine::Sa,
                                              StitchEngine::Evo}
                  : opts.portfolio;
  } else {
    engines = {opts.engine};
  }
  const bool races_analytic =
      std::find(engines.begin(), engines.end(), StitchEngine::Analytic) !=
      engines.end();
  const bool multi_engine = engines.size() > 1;
  const int restarts = std::max(1, opts.restarts);

  // Engine-major config order; the analytic engine is seed-free, so extra
  // restarts of it would be identical copies -- it contributes one config.
  // SA configs are warm-started when the analytic engine is also racing:
  // its pre-placement is computed anyway, and the quenched warm anneal is
  // the portfolio's strongest runner. A single-engine-list portfolio stays
  // cold so `engines=sa` reproduces the historical multi-start bit-exactly.
  std::vector<RacedConfig> configs;
  for (const StitchEngine kind : engines) {
    const int reps = kind == StitchEngine::Analytic ? 1 : restarts;
    for (int k = 0; k < reps; ++k) {
      RacedConfig config;
      config.kind = kind;
      config.seed = restarts == 1
                        ? opts.seed
                        : task_seed(opts.seed, "restart:" + std::to_string(k));
      config.warm_start =
          opts.warm_start ||
          (kind == StitchEngine::Sa && multi_engine && races_analytic);
      configs.push_back(config);
    }
  }
  MF_CHECK(!configs.empty());

  // Pre-sized slots + per-config derived seeds: bit-identical at any jobs.
  std::vector<StitchResult> runs(configs.size());
  parallel_for_each(opts.jobs, configs.size(), [&](std::size_t i) {
    StitchOptions one = opts;
    one.engine = configs[i].kind;
    one.restarts = 1;
    one.jobs = 1;
    one.seed = configs[i].seed;
    one.warm_start = configs[i].warm_start;
    if (opts.engine_budget > 0) one.max_moves = opts.engine_budget;
    switch (configs[i].kind) {
      case StitchEngine::Sa:
        runs[i] = stitch_sa_single(device, problem, one);
        break;
      case StitchEngine::Evo:
        runs[i] = stitch_evo(device, problem, one);
        break;
      case StitchEngine::Analytic:
        runs[i] = stitch_analytic(device, problem, one);
        break;
      case StitchEngine::Portfolio:
        MF_CHECK_MSG(false, "a portfolio cannot race itself");
    }
  });

  std::size_t best = 0;
  long all_moves = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    all_moves += runs[i].total_moves;
    if (i > 0 && beats(runs[i], runs[best], opts.target_cost)) best = i;
  }
  std::vector<EngineStats> stats;
  stats.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    stats.push_back(engine_stats_of(runs[i], static_cast<int>(i),
                                    configs[i].seed, configs[i].warm_start));
  }
  StitchResult result = std::move(runs[best]);
  result.restart_index = static_cast<int>(best);
  result.restart_moves = all_moves;
  result.engines = std::move(stats);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace mf
