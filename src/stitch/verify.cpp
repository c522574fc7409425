#include "stitch/verify.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "fabric/pblock.hpp"

namespace mf {
namespace {

const Macro& macro_of(const StitchProblem& problem, std::size_t instance) {
  return problem.macros[static_cast<std::size_t>(
      problem.instances[instance].macro)];
}

/// HPWL over the placed instance centers, net by net in net order: the
/// objective's definition, in the expression the incremental engine caches
/// per net, so a correct engine matches it bitwise.
double recomputed_wirelength(const StitchProblem& problem,
                             const std::vector<BlockPlacement>& positions) {
  double total = 0.0;
  for (const BlockNet& net : problem.nets) {
    double c0 = 0.0, c1 = 0.0, r0 = 0.0, r1 = 0.0;
    int count = 0;
    for (int inst : net.instances) {
      const auto i = static_cast<std::size_t>(inst);
      if (!positions[i].placed()) continue;
      const Footprint& fp = macro_of(problem, i).footprint;
      const double cc = positions[i].col + fp.width() / 2.0;
      const double rr = positions[i].row + fp.height / 2.0;
      if (count == 0) {
        c0 = c1 = cc;
        r0 = r1 = rr;
      } else {
        c0 = std::min(c0, cc);
        c1 = std::max(c1, cc);
        r0 = std::min(r0, rr);
        r1 = std::max(r1, rr);
      }
      ++count;
    }
    if (count >= 2) total += net.weight * ((c1 - c0) + (r1 - r0));
  }
  return total;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

std::optional<std::string> stitch_error(const Device& device,
                                        const StitchProblem& problem,
                                        const StitchResult& result) {
  const std::vector<BlockPlacement>& positions = result.positions;
  if (positions.size() != problem.instances.size()) {
    return std::to_string(positions.size()) + " positions for " +
           std::to_string(problem.instances.size()) + " instances";
  }
  const auto cols = static_cast<std::size_t>(device.num_columns());
  std::vector<int> owner(cols * static_cast<std::size_t>(device.rows()), -1);
  int unplaced = 0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const BlockPlacement& p = positions[i];
    if (!p.placed()) {
      ++unplaced;
      continue;
    }
    const Macro& macro = macro_of(problem, i);
    const Footprint& fp = macro.footprint;
    const std::string& name = problem.instances[i].name;
    if (!footprint_fits(device, fp, p.col, p.row, macro.pblock.row_lo)) {
      return "instance " + name + " does not fit at (" +
             std::to_string(p.col) + ", " + std::to_string(p.row) + ")";
    }
    for (int r = p.row; r < p.row + fp.height; ++r) {
      for (int c = p.col; c < p.col + fp.width(); ++c) {
        int& cell = owner[static_cast<std::size_t>(r) * cols +
                          static_cast<std::size_t>(c)];
        if (cell >= 0) {
          return "instances " +
                 problem.instances[static_cast<std::size_t>(cell)].name +
                 " and " + name + " share cell (" + std::to_string(c) +
                 ", " + std::to_string(r) + ")";
        }
        cell = static_cast<int>(i);
      }
    }
  }
  if (unplaced != result.unplaced) {
    return "reported " + std::to_string(result.unplaced) +
           " unplaced instances, found " + std::to_string(unplaced);
  }
  if (!same_bits(recomputed_wirelength(problem, positions),
                 result.wirelength)) {
    return "reported wirelength differs from the recomputed one";
  }
  const double penalty = 4.0 * (device.num_columns() + device.rows());
  if (!same_bits(result.cost, result.wirelength + penalty * result.unplaced)) {
    return "reported cost is not wirelength + unplaced penalty";
  }
  return std::nullopt;
}

}  // namespace mf
