#include "stitch/sa_stitcher.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "stitch/analytic_placer.hpp"
#include "stitch/placement_state.hpp"
#include "stitch/portfolio.hpp"
#include "stitch/verify.hpp"

namespace mf {
namespace {

/// cost_trace cap: one sample per temperature step until the schedule gets
/// pathological, then stride-doubled so the trace never exceeds ~4k entries.
constexpr std::size_t kTraceCap = 4096;

/// The SA walk over one PlacementState (one restart): the RNG, the cooling
/// schedule, the move counters, the cost trace and the best snapshot. Every
/// placement question -- legality, cost, block selection, anchor scans --
/// goes to the state.
class Annealer {
 public:
  Annealer(const Device& device, const StitchProblem& problem,
           const StitchOptions& opts)
      : opts_(opts), ctx_(device, problem), state_(ctx_), rng_(opts.seed) {}

  StitchResult run() {
    const Timer timer;
    if (opts_.warm_start) {
      // The analytic pre-placement is footprint-legal and overlap-free by
      // construction; the checked replay guards the occupancy state against
      // a future legalizer bug.
      replay(analytic_placement(ctx_.device(), ctx_.problem()));
    } else {
      for (int inst : ctx_.greedy_order()) state_.place_first_free(inst);
    }
    anneal();
    // RW's stitcher ends the same way: whatever still fits is placed, the
    // rest is reported unplaced (Figure 5's counts).
    state_.greedy_fill();
    finalize_from_state(ctx_, state_, result_);
    // The final fill can push the cost through the target after the walk.
    note_target(result_.cost);
    result_.engine = "sa";
    result_.seconds = timer.seconds();
    result_.restart_moves = result_.total_moves;
    return std::move(result_);
  }

 private:
  /// Place every placed entry of `snapshot`, in index order, on an empty
  /// state (the order fixes the incremental engine's cached boxes).
  void replay(const std::vector<BlockPlacement>& snapshot) {
    MF_CHECK(snapshot.size() == state_.positions().size());
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      if (!snapshot[i].placed()) continue;
      MF_CHECK(state_.try_place(static_cast<int>(i), snapshot[i].col,
                                snapshot[i].row));
    }
  }

  /// First-to-target bookkeeping: record the move index the walk's cost
  /// first reached the target. Pure observation -- it never perturbs the
  /// walk, so a targeted run stays move-for-move identical to an untargeted
  /// one.
  void note_target(double cost) {
    if (opts_.target_cost > 0.0 && result_.target_move < 0 &&
        cost <= opts_.target_cost) {
      result_.target_move = result_.total_moves;
    }
  }

  void anneal() {
    const Device& device = ctx_.device();
    double cost = state_.cost();
    // Warm starts quench from a low temperature: the pre-placement is
    // already good, and the cold T0 would scramble it back to random before
    // any downhill work happens.
    const double auto_t0 = 0.2 * (device.num_columns() + device.rows());
    const double t0 = opts_.warm_start ? 0.05 * auto_t0 : auto_t0;
    const int moves_per_temp =
        opts_.moves_per_temp > 0
            ? opts_.moves_per_temp
            : 10 * static_cast<int>(ctx_.problem().instances.size());
    const double t_min = t0 * opts_.min_temp_ratio;

    record_trace(0, cost);
    note_target(cost);
    double stagnant_best = cost;
    int stagnant_temps = 0;
    double best_cost = cost;
    std::vector<BlockPlacement> best_positions = state_.positions();
    for (double temp = t0; temp > t_min && !result_.watchdog_fired;
         temp *= opts_.cooling) {
      for (int k = 0; k < moves_per_temp; ++k) {
        // Watchdog: a budgeted anneal stops mid-schedule and degrades to
        // the best snapshot seen so far (restored below). The cancel-token
        // check is amortised over 32 moves to keep the hot loop cheap (its
        // deadline path consults a clock).
        if ((opts_.max_moves > 0 && result_.total_moves >= opts_.max_moves) ||
            (opts_.cancel != nullptr && result_.total_moves % 32 == 0 &&
             opts_.cancel->cancelled())) {
          result_.watchdog_fired = true;
          break;
        }
        ++result_.total_moves;
        if (opts_.place_retry_every > 0 &&
            result_.total_moves % opts_.place_retry_every == 0 &&
            try_unpark(cost)) {
          note_target(cost);
          continue;
        }
        displace_move(temp, cost);
        note_target(cost);
      }
      record_trace(result_.total_moves, cost);
      if (cost < best_cost) {
        best_cost = cost;
        best_positions = state_.positions();
      }
      // Quiescence detection: when the cost has not improved by more than
      // 0.1% for a while, further cooling is wasted annealing. Easier
      // placement problems (tighter macros, fewer illegal moves) quiesce
      // sooner -- the mechanism behind the paper's "converged 1.37x faster".
      // Only once every block is placed: while blocks are parked, progress
      // arrives in rare unpark events that a stagnation window would miss.
      if (opts_.stagnation_temps > 0 && state_.unplaced() == 0) {
        if (cost < stagnant_best * 0.999) {
          stagnant_best = cost;
          stagnant_temps = 0;
        } else if (++stagnant_temps >= opts_.stagnation_temps) {
          break;
        }
      }
    }
    // Keep the best solution seen, not wherever the walk happened to stop.
    if (best_cost < cost - 1e-9) {
      state_.clear();
      replay(best_positions);
    }
  }

  /// Append one (move, cost) sample; when the trace hits the cap, drop every
  /// other retained sample and double the sampling stride. With sane
  /// schedules (< 4096 temperature steps) this never fires and the trace is
  /// exactly one sample per step.
  void record_trace(long move, double cost) {
    if (trace_step_++ % trace_stride_ != 0) return;
    auto& trace = result_.cost_trace;
    trace.emplace_back(move, cost);
    if (trace.size() >= kTraceCap) {
      std::size_t keep = 0;
      for (std::size_t i = 0; i < trace.size(); i += 2) trace[keep++] = trace[i];
      trace.resize(keep);
      trace_stride_ *= 2;
    }
  }

  /// Attempt to place a parked block; always accepted when legal (the
  /// penalty dwarfs any wirelength increase). Mostly samples random anchors
  /// (cheap); every few calls it scans the instance's full anchor list so a
  /// lone remaining hole is found eventually.
  bool try_unpark(double& cost) {
    const IndexedIdSet& parked = state_.parked_ids();
    if (parked.empty()) return false;
    const int inst =
        parked.kth(static_cast<int>(rng_.index(static_cast<std::size_t>(
            parked.size()))));
    const auto& candidates = ctx_.anchors_of(inst);
    if (candidates.empty()) return false;
    const double before = state_.instance_cost(inst);
    bool placed = false;
    for (int attempt = 0; attempt < 10 && !placed; ++attempt) {
      const auto& [col, row] = candidates[rng_.index(candidates.size())];
      placed = state_.try_place(inst, col, row);
    }
    if (!placed && ++unpark_failures_ % 8 == 0) {
      placed = state_.place_first_free(inst);
    }
    if (!placed) {
      ++result_.illegal;
      return true;  // consumed the move
    }
    cost += state_.instance_cost(inst) - before - ctx_.penalty();
    ++result_.accepted;
    return true;
  }

  void displace_move(double temp, double& cost) {
    const IndexedIdSet& placed = state_.placed_ids();
    if (placed.empty()) return;
    const int inst = placed.kth(
        static_cast<int>(rng_.index(static_cast<std::size_t>(placed.size()))));
    const auto& candidates = ctx_.anchors_of(inst);
    const BlockPlacement old =
        state_.positions()[static_cast<std::size_t>(inst)];

    // 1-in-5 moves are compaction attempts: try the lowest-index (leftmost)
    // free anchor, which keeps free space contiguous instead of fragmenting
    // it across the fabric. The rest are uniform random displacements.
    std::pair<int, int> dest;
    if (rng_.index(5) == 0) {
      // The anchor list is (col, row)-sorted, so the candidates strictly
      // left of / below the current anchor are exactly [0, lower_bound).
      const auto end = static_cast<std::size_t>(
          std::lower_bound(candidates.begin(), candidates.end(),
                           std::make_pair(old.col, old.row)) -
          candidates.begin());
      const int hit = state_.first_free_anchor(inst, end);
      if (hit < 0) {
        ++result_.illegal;
        return;
      }
      dest = candidates[static_cast<std::size_t>(hit)];
    } else {
      dest = candidates[rng_.index(candidates.size())];
    }
    const auto [col, row] = dest;
    if (col == old.col && row == old.row) return;

    const std::optional<double> delta = state_.try_move(inst, col, row);
    if (!delta) {
      ++result_.illegal;
      return;
    }
    if (*delta <= 0.0 || rng_.uniform() < std::exp(-*delta / temp)) {
      cost += *delta;
      ++result_.accepted;
    } else {
      MF_CHECK(state_.try_move(inst, old.col, old.row));
      ++result_.rejected;
    }
  }

  const StitchOptions& opts_;
  const PlacementContext ctx_;
  PlacementState state_;
  Rng rng_;
  long unpark_failures_ = 0;
  long trace_step_ = 0;
  long trace_stride_ = 1;
  StitchResult result_;
};

}  // namespace

StitchResult stitch_sa_single(const Device& device,
                              const StitchProblem& problem,
                              const StitchOptions& opts) {
  Annealer annealer(device, problem, opts);
  return annealer.run();
}

StitchResult stitch(const Device& device, const StitchProblem& problem,
                    const StitchOptions& opts) {
  MF_CHECK(!problem.instances.empty());
  for (const BlockInstance& inst : problem.instances) {
    MF_CHECK(inst.macro >= 0 &&
             static_cast<std::size_t>(inst.macro) < problem.macros.size());
  }
  if (const auto error = stitch_options_error(opts)) {
    MF_CHECK_MSG(false, *error);
  }
  StitchResult result = run_portfolio(device, problem, opts);
#if !defined(NDEBUG)
  // Debug builds re-check every result with the independent verifier.
  if (const auto error = stitch_error(device, problem, result)) {
    MF_CHECK_MSG(false, *error);
  }
#endif
  return result;
}

}  // namespace mf
