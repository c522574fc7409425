#include "stitch/analytic_placer.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "stitch/placement_state.hpp"

namespace mf {
namespace {

/// Damped Gauss-Seidel sweeps of the continuous phase. Few iterations
/// suffice: the legalizer only needs the relative geometry to be roughly
/// right, not a converged quadratic solution.
constexpr int kCentroidIterations = 24;
constexpr double kDamping = 0.5;

}  // namespace

std::vector<BlockPlacement> analytic_placement(const Device& device,
                                               const StitchProblem& problem) {
  const PlacementContext ctx(device, problem);
  PlacementState state(ctx);

  // Phase 0: a legal greedy seed gives every instance a spread-out starting
  // point (all-at-center would make every centroid coincide and the sweeps
  // would never break the symmetry).
  for (int inst : ctx.greedy_order()) state.place_first_free(inst);

  const std::size_t n = problem.instances.size();
  std::vector<double> half_w(n);
  std::vector<double> half_h(n);
  std::vector<double> cc(n);
  std::vector<double> rr(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Macro& macro = ctx.macro_of(static_cast<int>(i));
    half_w[i] = macro.footprint.width() / 2.0;
    half_h[i] = macro.footprint.height / 2.0;
    const BlockPlacement& p = state.positions()[i];
    if (p.placed()) {
      cc[i] = p.col + half_w[i];
      rr[i] = p.row + half_h[i];
    } else {
      cc[i] = device.num_columns() / 2.0;
      rr[i] = device.rows() / 2.0;
    }
  }

  std::vector<std::vector<int>> nets_of(n);
  for (std::size_t net = 0; net < problem.nets.size(); ++net) {
    for (int inst : problem.nets[net].instances) {
      nets_of[static_cast<std::size_t>(inst)].push_back(static_cast<int>(net));
    }
  }

  // Phase 1: pull each instance toward the weighted mean of its nets'
  // bounding-box centers (the point that minimizes that net's HPWL term for
  // this instance), sweeping in index order so later instances already see
  // this sweep's updates (Gauss-Seidel).
  for (int iter = 0; iter < kCentroidIterations; ++iter) {
    for (std::size_t i = 0; i < n; ++i) {
      double sum_w = 0.0;
      double target_c = 0.0;
      double target_r = 0.0;
      for (int net : nets_of[i]) {
        const BlockNet& bn = problem.nets[static_cast<std::size_t>(net)];
        double c0 = 0.0, c1 = 0.0, r0 = 0.0, r1 = 0.0;
        int count = 0;
        for (int other : bn.instances) {
          const auto o = static_cast<std::size_t>(other);
          if (o == i) continue;
          if (count == 0) {
            c0 = c1 = cc[o];
            r0 = r1 = rr[o];
          } else {
            c0 = std::min(c0, cc[o]);
            c1 = std::max(c1, cc[o]);
            r0 = std::min(r0, rr[o]);
            r1 = std::max(r1, rr[o]);
          }
          ++count;
        }
        if (count == 0) continue;
        sum_w += bn.weight;
        target_c += bn.weight * 0.5 * (c0 + c1);
        target_r += bn.weight * 0.5 * (r0 + r1);
      }
      if (sum_w <= 0.0) continue;
      cc[i] = (1.0 - kDamping) * cc[i] + kDamping * (target_c / sum_w);
      rr[i] = (1.0 - kDamping) * rr[i] + kDamping * (target_r / sum_w);
    }
  }

  // Phase 2: legalize -- most-constrained first (the greedy order), each
  // instance snapped to the free anchor nearest its continuous position.
  state.clear();
  for (int inst : ctx.greedy_order()) {
    const auto i = static_cast<std::size_t>(inst);
    const int hit =
        state.nearest_free_anchor(inst, cc[i] - half_w[i], rr[i] - half_h[i]);
    if (hit < 0) continue;
    const auto& anchor = ctx.anchors_of(inst)[static_cast<std::size_t>(hit)];
    MF_CHECK(state.try_place(inst, anchor.first, anchor.second));
  }
  return state.positions();
}

StitchResult stitch_analytic(const Device& device,
                             const StitchProblem& problem,
                             const StitchOptions& opts) {
  Timer timer;
  const PlacementContext ctx(device, problem);
  PlacementState state(ctx);
  const std::vector<BlockPlacement> placement =
      analytic_placement(device, problem);
  StitchResult result;
  result.engine = "analytic";
  for (std::size_t i = 0; i < placement.size(); ++i) {
    ++result.total_moves;
    if (!placement[i].placed()) {
      ++result.illegal;
      continue;
    }
    MF_CHECK(
        state.try_place(static_cast<int>(i), placement[i].col, placement[i].row));
    ++result.accepted;
  }
  state.greedy_fill();
  result.cost_trace.emplace_back(0, state.cost());
  finalize_from_state(ctx, state, result);
  if (opts.target_cost > 0.0 && result.cost <= opts.target_cost) {
    result.target_move = result.total_moves;
  }
  result.restart_moves = result.total_moves;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace mf
