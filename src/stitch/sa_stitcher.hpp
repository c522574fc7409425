#pragma once
// Simulated-annealing stitcher.
//
// Reproduces RapidWright's final stage: place every pre-implemented block on
// the device, connected copies close together, no overlaps. The cost is the
// half-perimeter wirelength of the inter-block nets plus a penalty per
// unplaced block (RW instead fails placement; parking lets us *count*
// unplaced blocks like the paper's Figure 5 does).
//
// The mechanism under study lives in the legality rules: a block is only
// placeable at anchors whose column-kind sequence matches its footprint
// (Section IV: relocation needs same-type columns), and blocks must not
// overlap. Looser CFs mean larger, more irregular footprints, fewer legal
// anchors, more rejected moves -- which is exactly why the paper's estimator
// speeds SA convergence 1.37x and cuts the final cost by 40%.
//
// The annealer keeps only the walk (RNG, schedule, counters, trace, best
// snapshot); the placement itself is a PlacementState
// (stitch/placement_state), the model the evolutionary and analytic engines
// share: bitset occupancy, incremental HPWL, O(log n) random block
// selection, and memoized per-column anchor scans. stitch/verify checks any
// result independently.
//
// The option/result types live in stitch/engine.hpp; `stitch()` below is the
// front door: it validates the options and runs the requested engine (SA by
// default) or race through the portfolio driver (stitch/portfolio.hpp).

#include "stitch/engine.hpp"

namespace mf {

/// Solve a stitch problem with the engine selected by `opts.engine`.
/// The default (SA, restarts = 1) is one anneal seeded with `opts.seed`.
StitchResult stitch(const Device& device, const StitchProblem& problem,
                    const StitchOptions& opts = {});

/// One SA run for one configuration (restarts/jobs ignored; `opts.seed` used
/// directly; honours `opts.warm_start` via the analytic pre-placer). This is
/// the SA engine the portfolio races.
StitchResult stitch_sa_single(const Device& device,
                              const StitchProblem& problem,
                              const StitchOptions& opts);

}  // namespace mf
