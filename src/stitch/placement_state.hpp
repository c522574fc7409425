#pragma once
// The one placement model every stitcher engine runs on.
//
// The annealer, the evolutionary engine and the analytic pre-placer share
// the same ingredients: the legal anchor lists per macro (footprint-
// compatible positions, grouped into per-column runs), the bitset occupancy
// grid, and the incremental HPWL engine so a single-block move costs
// O(move) instead of O(netlist). PlacementContext holds the immutable
// per-problem geometry (shared by every individual in a population);
// PlacementState is one mutable placement with cached cost and the placed /
// parked id sets the annealer draws its blocks from -- value-copyable so
// evolutionary individuals can be cloned for crossover.

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/indexed_set.hpp"
#include "fabric/device.hpp"
#include "stitch/engine.hpp"
#include "stitch/incremental_cost.hpp"
#include "stitch/macro.hpp"
#include "stitch/occupancy.hpp"

namespace mf {

/// Immutable per-problem geometry shared by every PlacementState: anchor
/// lists and their column runs, the greedy placement order, and the
/// unplaced-block penalty.
class PlacementContext {
 public:
  /// One maximal same-column slice of a macro's sorted anchor list. When the
  /// rows step by a uniform stride the free-anchor scan tests the column's
  /// rows a word at a time; otherwise it falls back to per-anchor footprint
  /// probes.
  struct AnchorRun {
    std::size_t begin = 0, end = 0;  ///< index window into the anchor list
    int col = 0;
    int first_row = 0;
    int stride = 1;  ///< row step between consecutive anchors (uniform runs)
    bool uniform = true;
  };

  /// Anchors of every macro from compatible_anchors().
  PlacementContext(const Device& device, const StitchProblem& problem);
  /// Explicit per-macro anchor lists, sorted here. Tests use it to build
  /// anchor runs the generator never emits.
  PlacementContext(const Device& device, const StitchProblem& problem,
                   std::vector<std::vector<std::pair<int, int>>> anchors);

  [[nodiscard]] const Device& device() const noexcept { return *device_; }
  [[nodiscard]] const StitchProblem& problem() const noexcept {
    return *problem_;
  }
  /// Cost of one unplaced block: 4 x the device half-perimeter.
  [[nodiscard]] double penalty() const noexcept { return penalty_; }

  [[nodiscard]] const Macro& macro_of(int instance) const {
    return problem_->macros[macro_index(instance)];
  }

  /// (col, row)-sorted legal anchors of the instance's macro.
  [[nodiscard]] const std::vector<std::pair<int, int>>& anchors_of(
      int instance) const {
    return anchors_[macro_index(instance)];
  }

  /// Column runs of anchors_of(instance), in anchor order.
  [[nodiscard]] const std::vector<AnchorRun>& runs_of(int instance) const {
    return runs_[macro_index(instance)];
  }

  /// Instances in greedy placement order: fewest legal anchors first
  /// (constrained blocks get first pick), then larger area, then lower
  /// index. Deterministic.
  [[nodiscard]] const std::vector<int>& greedy_order() const noexcept {
    return greedy_order_;
  }

 private:
  [[nodiscard]] std::size_t macro_index(int instance) const {
    return static_cast<std::size_t>(
        problem_->instances[static_cast<std::size_t>(instance)].macro);
  }

  const Device* device_;
  const StitchProblem* problem_;
  std::vector<std::vector<std::pair<int, int>>> anchors_;  ///< per macro
  std::vector<std::vector<AnchorRun>> runs_;               ///< per macro
  std::vector<int> greedy_order_;
  double penalty_ = 0.0;
};

/// One mutable placement over a PlacementContext, with O(move) cost
/// maintenance. Copyable: the grid, the incremental engine and the id sets
/// are plain value types, so cloning an individual is a handful of vector
/// copies.
class PlacementState {
 public:
  explicit PlacementState(const PlacementContext& ctx);

  [[nodiscard]] const std::vector<BlockPlacement>& positions() const noexcept {
    return positions_;
  }
  [[nodiscard]] int unplaced() const noexcept { return parked_.size(); }
  [[nodiscard]] double wirelength() const { return cost_engine_.total(); }
  /// wirelength + penalty * unplaced -- the engines' objective.
  [[nodiscard]] double cost() const {
    return cost_engine_.total() + ctx_->penalty() * unplaced();
  }
  /// Cached HPWL over the instance's nets (the term a move can change).
  [[nodiscard]] double instance_cost(int instance) const {
    return cost_engine_.instance_cost(instance);
  }

  /// Placed / parked instance ids; kth() picks the k-th smallest.
  [[nodiscard]] const IndexedIdSet& placed_ids() const noexcept {
    return placed_;
  }
  [[nodiscard]] const IndexedIdSet& parked_ids() const noexcept {
    return parked_;
  }

  /// Place an unplaced instance; false when the region is occupied.
  bool try_place(int instance, int col, int row);

  /// Move a placed instance to (col, row) and return the change of its
  /// instance_cost; nullopt (state unchanged) when the destination is
  /// occupied by another block. Self-overlap is legal.
  std::optional<double> try_move(int instance, int col, int row);

  /// Unplace everything.
  void clear();

  /// First free anchor of the instance among anchors_of(instance)[0, end),
  /// in (col, row) order, or -1. A placed instance is lifted for the probe,
  /// so its own cells never block it; the state is unchanged on return.
  [[nodiscard]] int first_free_anchor(int instance, std::size_t end);

  /// Place an unplaced instance at its first free anchor; false when none
  /// is free.
  bool place_first_free(int instance);

  /// Free anchor closest to the continuous point (col, row) by Manhattan
  /// distance, ties to the lowest anchor index; -1 when none is free. The
  /// analytic legalizer's snapping primitive.
  [[nodiscard]] int nearest_free_anchor(int instance, double col,
                                        double row) const;

  /// Greedy post-pass: repeatedly try to place every parked block (largest
  /// area first, then lowest index) at its first free anchor until nothing
  /// more fits.
  void greedy_fill();

 private:
  /// The run scan behind first_free_anchor, on the grid as it stands.
  [[nodiscard]] int scan_runs(int instance, std::size_t end);

  const PlacementContext* ctx_;
  OccupancyGrid grid_;
  IncrementalWirelength cost_engine_;
  std::vector<BlockPlacement> positions_;
  IndexedIdSet placed_;
  IndexedIdSet parked_;
};

// The per-move primitives are defined here so they inline into the
// annealer's hot loop.

inline bool PlacementState::try_place(int instance, int col, int row) {
  const auto i = static_cast<std::size_t>(instance);
  MF_CHECK(!positions_[i].placed());
  const Footprint& fp = ctx_->macro_of(instance).footprint;
  if (!grid_.region_free(col, row, fp.width(), fp.height)) return false;
  grid_.fill(col, row, fp.width(), fp.height);
  cost_engine_.place(instance, col, row);
  positions_[i] = {col, row};
  parked_.erase(instance);
  placed_.insert(instance);
  return true;
}

inline std::optional<double> PlacementState::try_move(int instance,
                                                      int col, int row) {
  const auto i = static_cast<std::size_t>(instance);
  const BlockPlacement old = positions_[i];
  MF_CHECK(old.placed());
  if (col == old.col && row == old.row) return 0.0;
  const Footprint& fp = ctx_->macro_of(instance).footprint;
  const int w = fp.width();
  const int h = fp.height;
  // Lift the block so self-overlap does not block the move -- but only when
  // the old and new rectangles intersect; a disjoint destination probes
  // identically on the unlifted grid, which saves the clear/fill round trip
  // on the (common) illegal outcome.
  const bool lift = col < old.col + w && old.col < col + w &&
                    row < old.row + h && old.row < row + h;
  if (lift) grid_.clear(old.col, old.row, w, h);
  if (!grid_.region_free(col, row, w, h)) {
    if (lift) grid_.fill(old.col, old.row, w, h);
    return std::nullopt;
  }
  if (!lift) grid_.clear(old.col, old.row, w, h);
  grid_.fill(col, row, w, h);
  const double before = cost_engine_.instance_cost(instance);
  cost_engine_.place(instance, col, row);
  positions_[i] = {col, row};
  return cost_engine_.instance_cost(instance) - before;
}

/// Walks the column runs in anchor order. A uniform run is one
/// OccupancyGrid::first_free_row call, which tests 64 of its rows per word
/// and returns the lowest free one on the run's stride -- the same first hit
/// as probing every anchor's footprint. Non-uniform runs probe each anchor.
inline int PlacementState::scan_runs(int instance, std::size_t end) {
  const auto& candidates = ctx_->anchors_of(instance);
  const Footprint& fp = ctx_->macro_of(instance).footprint;
  const int w = fp.width();
  const int h = fp.height;
  for (const PlacementContext::AnchorRun& run : ctx_->runs_of(instance)) {
    if (run.begin >= end) break;
    const std::size_t last = std::min(run.end, end);
    if (!run.uniform) {
      for (std::size_t i = run.begin; i < last; ++i) {
        if (grid_.region_free(candidates[i].first, candidates[i].second, w,
                              h)) {
          return static_cast<int>(i);
        }
      }
      continue;
    }
    const int row = grid_.first_free_row(run.col, w, h, run.first_row,
                                         candidates[last - 1].second,
                                         run.stride);
    if (row >= 0) {
      return static_cast<int>(run.begin) + (row - run.first_row) / run.stride;
    }
  }
  return -1;
}

inline int PlacementState::first_free_anchor(int instance, std::size_t end) {
  const BlockPlacement p = positions_[static_cast<std::size_t>(instance)];
  const Footprint& fp = ctx_->macro_of(instance).footprint;
  if (p.placed()) grid_.clear(p.col, p.row, fp.width(), fp.height);
  const int hit = scan_runs(instance, end);
  if (p.placed()) grid_.fill(p.col, p.row, fp.width(), fp.height);
  return hit;
}

/// Coverage + converge_move bookkeeping shared by the engines' wrap-up:
/// fills positions/unplaced/wirelength/cost/coverage/converge_move of
/// `result` from the state and the already-recorded cost_trace.
void finalize_from_state(const PlacementContext& ctx,
                         const PlacementState& state, StitchResult& result);

}  // namespace mf
