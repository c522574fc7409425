#pragma once
// Independent legality check of a stitch result.
//
// The engines keep their placement in incremental structures (bitset grid,
// cached net boxes, memoized scans) whose correctness is what is under test.
// This checker shares none of them: it rebuilds the answer from the problem
// and the reported positions alone, so a bug in the engines' bookkeeping
// cannot also hide in the check. Tests and bench_stitch run it on every
// result they produce; debug builds run it inside stitch().

#include <optional>
#include <string>

#include "fabric/device.hpp"
#include "stitch/engine.hpp"
#include "stitch/macro.hpp"

namespace mf {

/// nullopt when `result` is a legal, correctly costed placement of
/// `problem` on `device`; otherwise the first violation found:
///   * one position per instance;
///   * every placed instance fits its anchor (footprint_fits: in bounds,
///     column kinds match, BRAM/DSP row pitch kept);
///   * no two placed footprints share a cell;
///   * `unplaced` counts the unplaced positions;
///   * `wirelength` equals the HPWL recomputed from scratch, bitwise;
///   * `cost` equals wirelength + 4 (cols + rows) x unplaced, bitwise.
[[nodiscard]] std::optional<std::string> stitch_error(
    const Device& device, const StitchProblem& problem,
    const StitchResult& result);

}  // namespace mf
