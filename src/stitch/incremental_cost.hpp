#pragma once
// Incremental half-perimeter wirelength (HPWL) engine for the SA stitcher.
//
// The annealer's cost of a move is the change in HPWL over the nets of the
// moved instance. The historical code recomputed every touched net's
// bounding box from scratch -- O(net fan-in) per net per probe. This engine
// caches, per net, the bounding box of the placed instance centers plus the
// *multiplicity* of instances sitting on each of the four boundaries
// (VPR-style incremental bounding boxes). A move then updates each touched
// net in O(1), falling back to an exact rescan of one net only when the
// instance that alone defined a boundary moves inward.
//
// Exactness is the contract, not an approximation: every cached per-net
// cost is bitwise identical to what a from-scratch scan of that net would
// produce (min/max of a set of doubles does not depend on evaluation order,
// and the cost expression is the same), which is what lets the annealer's
// accept/reject decisions -- and therefore whole SA trajectories -- stay
// bit-identical to the pre-incremental engine. stitch/verify recomputes
// every reported wirelength from scratch and requires it bitwise.

#include <vector>

#include "stitch/macro.hpp"

namespace mf {

class IncrementalWirelength {
 public:
  explicit IncrementalWirelength(const StitchProblem& problem);

  /// Set `instance`'s anchor. Handles both a fresh placement and a move of
  /// an already-placed instance; every net of the instance is updated.
  void place(int instance, int col, int row);

  /// Remove `instance` from the placement. No-op when not placed.
  void unplace(int instance);

  /// Unplace everything (used when restoring a best-so-far snapshot).
  void clear();

  /// Cached HPWL of one net (0 when fewer than two instances are placed).
  [[nodiscard]] double net_cost(int net) const {
    return boxes_[static_cast<std::size_t>(net)].cost;
  }

  /// Sum of the cached costs of the instance's nets, in adjacency order --
  /// the same order (and therefore the same floating-point sum) as a naive
  /// per-net rescan loop.
  [[nodiscard]] double instance_cost(int instance) const;

  /// Sum of all cached net costs in net-index order; bitwise equal to
  /// `full_recompute()` by construction.
  [[nodiscard]] double total() const;

  /// From-scratch HPWL over the engine's current placement, ignoring every
  /// cache. Reference for the debug invariant and the property tests.
  [[nodiscard]] double full_recompute() const;

  [[nodiscard]] bool placed(int instance) const {
    return placed_[static_cast<std::size_t>(instance)] != 0;
  }

  [[nodiscard]] const std::vector<int>& nets_of(int instance) const {
    return nets_of_[static_cast<std::size_t>(instance)];
  }

  /// Number of O(fan-in) boundary rescans taken so far (perf accounting).
  [[nodiscard]] long rescans() const noexcept { return rescans_; }

 private:
  /// Bounding box of one net's placed instance centers. `at_*` counts how
  /// many placed centers sit exactly on that boundary; a removal only needs
  /// a rescan when it takes a boundary's count to zero.
  struct NetBox {
    double cmin = 0.0, cmax = 0.0;
    double rmin = 0.0, rmax = 0.0;
    int placed = 0;
    int at_cmin = 0, at_cmax = 0;
    int at_rmin = 0, at_rmax = 0;
    double cost = 0.0;
  };

  void add_center(NetBox& box, double cc, double rr);
  /// Cheap removal; returns false when the box must be rescanned (the
  /// removed center was the last one on some boundary).
  bool remove_center(NetBox& box, double cc, double rr);
  void rescan_net(int net);
  void refresh_cost(int net);

  const StitchProblem* problem_;
  std::vector<NetBox> boxes_;
  std::vector<std::vector<int>> nets_of_;
  std::vector<double> half_w_, half_h_;  ///< per-instance center offsets
  std::vector<double> center_c_, center_r_;
  std::vector<char> placed_;
  long rescans_ = 0;
};

}  // namespace mf
