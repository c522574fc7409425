#include "stitch/placement_state.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"

namespace mf {
namespace {

std::vector<std::vector<std::pair<int, int>>> compatible_anchor_lists(
    const Device& device, const StitchProblem& problem) {
  std::vector<std::vector<std::pair<int, int>>> anchors;
  anchors.reserve(problem.macros.size());
  for (const Macro& macro : problem.macros) {
    anchors.push_back(
        compatible_anchors(device, macro.footprint, macro.pblock.row_lo));
  }
  return anchors;
}

/// Group a (col, row)-sorted anchor list into per-column runs so the
/// ordered free-anchor scan can test a column's rows a word at a time
/// instead of probing every anchor's full h-row footprint.
std::vector<PlacementContext::AnchorRun> build_runs(
    const std::vector<std::pair<int, int>>& list) {
  std::vector<PlacementContext::AnchorRun> runs;
  std::size_t i = 0;
  while (i < list.size()) {
    PlacementContext::AnchorRun run;
    run.begin = i;
    run.col = list[i].first;
    run.first_row = list[i].second;
    std::size_t j = i + 1;
    while (j < list.size() && list[j].first == run.col) ++j;
    run.end = j;
    run.stride = j - i > 1 ? list[i + 1].second - run.first_row : 1;
    run.uniform = run.stride > 0;
    for (std::size_t k = i + 1; run.uniform && k < j; ++k) {
      run.uniform = list[k].second - list[k - 1].second == run.stride;
    }
    runs.push_back(run);
    i = j;
  }
  return runs;
}

}  // namespace

PlacementContext::PlacementContext(const Device& device,
                                   const StitchProblem& problem)
    : PlacementContext(device, problem,
                       compatible_anchor_lists(device, problem)) {}

PlacementContext::PlacementContext(
    const Device& device, const StitchProblem& problem,
    std::vector<std::vector<std::pair<int, int>>> anchors)
    : device_(&device),
      problem_(&problem),
      anchors_(std::move(anchors)),
      penalty_(4.0 * (device.num_columns() + device.rows())) {
  MF_CHECK(anchors_.size() == problem.macros.size());
  for (auto& list : anchors_) {
    // compatible_anchors already emits (col, row)-ascending; sorting here
    // keeps the runs and the binary-searched scan windows correct for any
    // given list.
    std::sort(list.begin(), list.end());
    runs_.push_back(build_runs(list));
  }
  greedy_order_.resize(problem.instances.size());
  std::iota(greedy_order_.begin(), greedy_order_.end(), 0);
  std::sort(greedy_order_.begin(), greedy_order_.end(), [&](int a, int b) {
    const std::size_t ca = anchors_of(a).size();
    const std::size_t cb = anchors_of(b).size();
    if (ca != cb) return ca < cb;
    const long aa = macro_of(a).area();
    const long bb = macro_of(b).area();
    if (aa != bb) return aa > bb;  // big blocks first
    return a < b;
  });
}

PlacementState::PlacementState(const PlacementContext& ctx)
    : ctx_(&ctx),
      grid_(ctx.device().num_columns(), ctx.device().rows()),
      cost_engine_(ctx.problem()),
      positions_(ctx.problem().instances.size()),
      placed_(ctx.problem().instances.size()),
      parked_(ctx.problem().instances.size()) {
  clear();
}

void PlacementState::clear() {
  grid_.reset();
  cost_engine_.clear();
  positions_.assign(positions_.size(), BlockPlacement{});
  placed_.clear();
  parked_.clear();
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    parked_.insert(static_cast<int>(i));
  }
}

bool PlacementState::place_first_free(int instance) {
  const auto& candidates = ctx_->anchors_of(instance);
  const int hit = first_free_anchor(instance, candidates.size());
  if (hit < 0) return false;
  const auto& [col, row] = candidates[static_cast<std::size_t>(hit)];
  MF_CHECK(try_place(instance, col, row));
  return true;
}

int PlacementState::nearest_free_anchor(int instance, double col,
                                        double row) const {
  const auto& candidates = ctx_->anchors_of(instance);
  const Footprint& fp = ctx_->macro_of(instance).footprint;
  // Probe anchors in ascending Manhattan distance from the target point so
  // the first free one is the answer; ties resolve to the lowest anchor
  // index (stable sort over a distance-only key). The sort is O(A log A)
  // once per snap, which beats probing every anchor's footprint on crowded
  // grids where most probes fail.
  std::vector<std::pair<double, int>> order;
  order.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double d = std::abs(candidates[i].first - col) +
                     std::abs(candidates[i].second - row);
    order.emplace_back(d, static_cast<int>(i));
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [dist, idx] : order) {
    const auto& [c, r] = candidates[static_cast<std::size_t>(idx)];
    if (grid_.region_free(c, r, fp.width(), fp.height)) return idx;
  }
  return -1;
}

void PlacementState::greedy_fill() {
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<int> parked;
    for (std::size_t i = 0; i < positions_.size(); ++i) {
      if (!positions_[i].placed()) parked.push_back(static_cast<int>(i));
    }
    std::sort(parked.begin(), parked.end(), [&](int a, int b) {
      const long aa = ctx_->macro_of(a).area();
      const long bb = ctx_->macro_of(b).area();
      if (aa != bb) return aa > bb;
      return a < b;
    });
    for (int inst : parked) {
      if (place_first_free(inst)) progress = true;
    }
  }
}

void finalize_from_state(const PlacementContext& ctx,
                         const PlacementState& state, StitchResult& result) {
  result.positions = state.positions();
  result.unplaced = state.unplaced();
  result.wirelength = state.wirelength();
  result.cost = state.cost();

  long covered = 0;
  for (std::size_t i = 0; i < result.positions.size(); ++i) {
    if (!result.positions[i].placed()) continue;
    const Macro& macro = ctx.macro_of(static_cast<int>(i));
    int clb_cols = 0;
    for (ColumnKind kind : macro.footprint.kinds) {
      if (is_clb(kind)) ++clb_cols;
    }
    covered += static_cast<long>(clb_cols) * macro.footprint.height;
  }
  result.coverage = static_cast<double>(covered) /
                    std::max(1, ctx.device().totals().slices);

  const double threshold = result.cost * 1.01 + 1e-9;
  result.converge_move = result.total_moves;
  for (const auto& [move, cost] : result.cost_trace) {
    if (cost <= threshold) {
      result.converge_move = move;
      break;
    }
  }
}

}  // namespace mf
