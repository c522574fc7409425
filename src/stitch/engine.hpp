#pragma once
// Stitcher option / result types shared by every placement engine.
//
// Every engine obeys one contract -- same problem in, same StitchResult out,
// deterministic for a given (options, seed) -- so the portfolio driver
// (stitch/portfolio.hpp) can race engines against each other on the
// deterministic thread pool:
//
//   * "sa"       -- the incremental simulated annealer (stitch/sa_stitcher);
//   * "evo"      -- RapidLayout-style evolutionary search over placement
//                   permutations (stitch/evo_stitcher);
//   * "analytic" -- a deterministic centroid pre-placer with footprint-legal
//                   snapping (stitch/analytic_placer); it also doubles as
//                   the warm start for SA configurations.
//
// Determinism rules (the portfolio's bit-identity contract depends on all
// three):
//   1. an engine run is a pure function of (device, problem, options) --
//      no wall-clock or scheduling inputs feed the walk;
//   2. every raced configuration derives its seed from task_seed, never from
//      sibling scheduling;
//   3. winners are chosen by (cost, lowest config index) -- or by
//      (moves-to-target, lowest config index) under a first-to-target race
//      -- so the outcome is identical at any `jobs` value.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "fabric/device.hpp"
#include "stitch/macro.hpp"

#ifndef MF_JOBS_DEFAULT
#define MF_JOBS_DEFAULT 1
#endif

namespace mf {

/// The engine families the stitcher can run. Portfolio is a meta-engine:
/// it races a configurable set of the other three.
enum class StitchEngine : std::uint8_t { Sa, Evo, Analytic, Portfolio };

[[nodiscard]] const char* to_string(StitchEngine engine) noexcept;

/// Parse an engine name ("sa", "evo", "analytic", "portfolio"); nullopt on
/// anything else. Callers must fail fast on nullopt -- a silent SA fallback
/// would hide typos in --stitch-engine.
[[nodiscard]] std::optional<StitchEngine> stitch_engine_from_string(
    std::string_view name) noexcept;

struct StitchOptions {
  std::uint64_t seed = 99;
  double cooling = 0.95;
  int moves_per_temp = 0;  ///< 0 = auto (10 x instances)
  double min_temp_ratio = 1e-4;  ///< stop when T < ratio * T0
  int place_retry_every = 25;  ///< try to un-park an unplaced block this often
  /// Stop annealing after this many temperature steps without a >0.1% cost
  /// improvement (0 = anneal the full schedule). Easier problems quiesce
  /// sooner, which is what makes SA convergence a quality metric.
  int stagnation_temps = 15;
  /// Watchdog: hard iteration budget on the walk (0 = unbounded). When the
  /// budget trips, the walk stops and the best-so-far snapshot is restored,
  /// so an over-budget run degrades to its best intermediate placement
  /// instead of running unbounded. Deterministic (move-count based).
  long max_moves = 0;
  /// Cooperative cancellation (common/cancel.hpp), polled every 32 moves
  /// with the same degradation semantics as max_moves (stop, restore
  /// best-so-far, watchdog_fired = true). One token armed with
  /// set_deadline_seconds() is the wall-clock budget: it bounds the whole
  /// flow, every raced engine configuration included. Non-deterministic --
  /// meant for service deadlines, not for reproducible experiments.
  const CancelToken* cancel = nullptr;
  /// Independent restarts per engine (multi-start). 1 = one run seeded with
  /// `seed` -- exactly the historical single-start behaviour, move for
  /// move. K > 1 runs K independent configurations, restart k seeded with
  /// task_seed(seed, "restart:<k>"); the lowest final cost wins, ties going
  /// to the lowest k. Deterministic at any `jobs` value. The analytic
  /// engine is seed-free, so it contributes one configuration regardless.
  int restarts = 1;
  /// Worker threads for the raced-configuration fan-out (1 = sequential,
  /// 0 = auto, i.e. hardware concurrency). Results are bit-identical at any
  /// value -- each configuration is an isolated engine run with its own
  /// derived seed, written into a pre-sized slot.
  int jobs = MF_JOBS_DEFAULT;

  // -- engine selection / portfolio knobs -----------------------------------
  /// Which engine solves the problem. Portfolio races `portfolio` (or the
  /// default analytic + sa + evo set) and returns the winner.
  StitchEngine engine = StitchEngine::Sa;
  /// Engines raced when `engine == Portfolio` (empty = analytic, sa, evo,
  /// in that config-index order). Portfolio itself is not a valid entry.
  std::vector<StitchEngine> portfolio;
  /// Per-configuration move budget for raced runs (0 = every engine runs
  /// its natural schedule). Maps onto the SA watchdog (max_moves) and the
  /// evolutionary generation budget, so "cost at equal budget" comparisons
  /// are exact. Must be >= 0.
  long engine_budget = 0;
  /// First-to-target race: when > 0, the portfolio winner is the
  /// configuration that first reaches cost <= target_cost (fewest moves,
  /// ties to the lowest config index), falling back to best-at-budget when
  /// no configuration reaches it. Engines record the crossing move index in
  /// StitchResult::target_move either way.
  double target_cost = 0.0;
  /// Evolutionary population size (>= 2). Individual 0 is the deterministic
  /// greedy (or analytic warm-start) placement; the rest are randomized.
  int evo_population = 12;
  /// Seed SA (and evolutionary individual 0) with the analytic pre-placement
  /// instead of the greedy initial placement. The portfolio sets this
  /// automatically for its SA configurations whenever the analytic engine
  /// is also in the race; a pure-SA portfolio stays cold-started so
  /// `engines=sa, restarts=1` reproduces the historical run move for move.
  bool warm_start = false;
};

/// Fail-fast validation of the engine/portfolio knobs. Returns a message on
/// the first violated constraint, nullopt when the options are usable.
/// stitch() turns a violation into an MF_CHECK failure; the CLI reports it
/// and exits 2 before any flow work starts.
[[nodiscard]] std::optional<std::string> stitch_options_error(
    const StitchOptions& opts);

struct BlockPlacement {
  int col = -1;
  int row = -1;
  [[nodiscard]] bool placed() const noexcept { return col >= 0; }
};

/// Per-configuration accounting of one raced engine run. StitchResult keeps
/// the historical aggregate fields (total_moves, restart_index,
/// restart_moves) for existing consumers; `engines` is the per-engine
/// breakdown a multi-engine run needs.
struct EngineStats {
  std::string engine;       ///< "sa" | "evo" | "analytic"
  int config = 0;           ///< index in the raced configuration list
  std::uint64_t seed = 0;   ///< seed this configuration ran with
  bool warm_start = false;  ///< analytic pre-placement seeded this run
  long moves = 0;           ///< move attempts consumed
  long evals = 0;           ///< cost evaluations (accepted + rejected probes)
  double seconds = 0.0;     ///< wall clock (informative; never bit-stable)
  double best_cost = 0.0;   ///< final cost of this configuration
  int unplaced = 0;
  /// First move index at which this configuration's cost reached
  /// target_cost (-1 = never, or no target set).
  long target_move = -1;
};

struct StitchResult {
  std::vector<BlockPlacement> positions;  ///< per instance
  int unplaced = 0;
  double wirelength = 0.0;  ///< final HPWL cost (penalty excluded)
  double cost = 0.0;        ///< wirelength + unplaced penalty
  long total_moves = 0;
  long accepted = 0;
  long rejected = 0;
  long illegal = 0;  ///< moves discarded for overlap / no legal anchor
  /// First move index after which the cost stays within 1% of the final
  /// cost -- the convergence metric behind the paper's "1.37x faster".
  long converge_move = 0;
  /// True when a watchdog budget (max_moves / cancel) cut the
  /// run short; the result is the best placement seen up to that point.
  bool watchdog_fired = false;
  double seconds = 0.0;  ///< wall clock of the whole stitch (all configs)
  /// Which raced configuration produced this result (0 when a single run).
  /// For multi-start SA this is the historical winning restart index.
  int restart_index = 0;
  /// Moves summed over every raced configuration (== total_moves for a
  /// single run).
  long restart_moves = 0;
  /// (move index, cost) samples for convergence plots; one sample per
  /// temperature step / generation, downsampled by stride doubling to at
  /// most ~4096 entries so pathological schedules cannot grow the trace
  /// unbounded. Always the WINNING configuration's trace only; `engine`
  /// tags which engine produced it (the trace-text header carries the tag).
  std::vector<std::pair<long, double>> cost_trace;
  /// Fraction of device slices covered by placed macro rectangles.
  double coverage = 0.0;
  /// Engine tag of the run that produced `positions` / `cost_trace`.
  std::string engine = "sa";
  /// First move index at which the walk's cost reached target_cost
  /// (-1 = never, or no target was set).
  long target_move = -1;
  /// Per-configuration breakdown of every raced engine run, in config-index
  /// order. A plain single run carries one entry.
  std::vector<EngineStats> engines;
};

/// Serialize a result's cost trace to the versioned text form used by the
/// golden-trace regression fixtures:
///   macroflow-cost-trace v1 engine=<tag> samples=<n>
///   <move> <16-hex-digit IEEE-754 bits of cost>
/// The hex encoding keeps the bytes bit-exact across platforms.
[[nodiscard]] std::string trace_to_text(const StitchResult& result);

}  // namespace mf
