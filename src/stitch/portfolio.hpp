#pragma once
// Engine portfolio race for the stitcher.
//
// Runs engine x restart configurations on the deterministic thread pool and
// returns the winner. stitch() routes every call through here: a plain
// single-engine run is a one-configuration race, which parallel_for_each
// runs inline on the calling thread. Two policies:
//   * best-at-budget (default): every configuration runs to completion
//     (optionally capped by StitchOptions::engine_budget); the lowest final
//     cost wins, ties to the lowest config index.
//   * first-to-target (target_cost > 0): the configuration that reached
//     cost <= target in the fewest moves wins (ties to the lowest config
//     index); when none reached it, best-at-budget decides.
//
// Every configuration runs to completion either way -- there is no
// cross-configuration early kill -- which is what keeps the race
// bit-identical at any `jobs` value: a slot's result can never depend on a
// sibling's scheduling. Cancellation (CancelToken / deadline) reaches every
// configuration through the shared token in the options.
//
// Config list construction (stable, documented order): for each engine in
// the raced list, `restarts` configurations (the analytic engine, being
// seed-free, contributes exactly one). Seeds follow the multi-start rule:
// restarts == 1 uses opts.seed directly -- so a portfolio of
// `engines=sa, restarts=1` reproduces the historical single-start SA run
// move for move -- and restarts == K > 1 seeds restart k with
// task_seed(opts.seed, "restart:<k>") for every engine alike.

#include "fabric/device.hpp"
#include "stitch/engine.hpp"
#include "stitch/macro.hpp"

namespace mf {

/// Race the configured engines and return the winning result with aggregate
/// accounting (restart_index = winning config, restart_moves = moves summed
/// over all configs, engines = per-config EngineStats).
[[nodiscard]] StitchResult run_portfolio(const Device& device,
                                         const StitchProblem& problem,
                                         const StitchOptions& opts);

}  // namespace mf
