#include "core/pblock_generator.hpp"

#include <algorithm>
#include <cmath>

namespace mf {
namespace {

/// Needs that a candidate rectangle must cover. The CF scales the slice
/// demand *including* the M-slice share (RapidWright applies the factor to
/// the resource counts); hard-block needs are absolute -- sites cannot be
/// padded, which is why hard-block-dominated modules stop responding to the
/// CF (Figure 4's sub-0.7 bins).
FabricResources needs_of(const ResourceReport& report, double cf) {
  FabricResources needs;
  needs.slices = std::max(
      1, static_cast<int>(std::ceil(report.est_slices * cf)));
  needs.slices_m = static_cast<int>(
      std::ceil(report.est_slices_m * std::max(1.0, cf)));
  needs.bram36 = report.bram36;
  needs.dsp = report.dsp;
  return needs;
}

}  // namespace

PBlockDims pblock_dims(const ResourceReport& report, const ShapeReport& shape,
                       double cf, const Device& device) {
  const int target = std::max(
      1, static_cast<int>(std::ceil(report.est_slices * cf)));
  // Constant aspect: W/H == shape.aspect(), W*H ~= target.
  int height = static_cast<int>(std::ceil(
      std::sqrt(static_cast<double>(target) / std::max(shape.aspect(), 1e-6))));
  height = std::max(height, shape.min_height);
  height = std::min(height, device.rows());
  int width = (target + height - 1) / height;
  return PBlockDims{std::max(width, 1), height};
}

std::optional<PBlock> generate_pblock(const Device& device,
                                      const ResourceReport& report,
                                      const ShapeReport& shape, double cf,
                                      const PBlockGenOptions& opts) {
  const FabricResources needs = needs_of(report, cf);
  PBlockDims dims = pblock_dims(report, shape, cf, device);

  // Hard-block needs can force a taller rectangle than the slice target
  // suggests: each BRAM/DSP column supplies one site pitch per kBramRowPitch
  // rows, so a single column must span at least this many rows.
  const int hard_rows =
      std::max(needs.bram36,
               (needs.dsp + kDspPerPitch - 1) / kDspPerPitch) *
      kBramRowPitch;
  if (hard_rows > dims.height) {
    dims.height = std::min(hard_rows + 1, device.rows());
  }

  // Widen until some anchor covers all needs (widening is how the generator
  // picks up extra M / BRAM / DSP columns while the aspect stays fixed for
  // the slice part).
  for (int width = dims.width; width <= device.num_columns(); ++width) {
    // Slide the rectangle down from the requested row. A window's slice
    // counts do not depend on row0 and its BRAM/DSP site counts repeat every
    // kBramRowPitch rows, so if any row0 covers the needs, the first one
    // lies within kBramRowPitch rows of the anchor row.
    for (int row0 = opts.anchor_row;
         row0 < opts.anchor_row + kBramRowPitch &&
         row0 + dims.height <= device.rows();
         ++row0) {
      // Running resource count over a sliding column window.
      const int row_hi = row0 + dims.height - 1;
      FabricResources window;
      int lo = 0;
      auto add_col = [&](int c, int sign) {
        switch (device.column(c)) {
          case ColumnKind::ClbL:
            window.slices += sign * dims.height;
            break;
          case ColumnKind::ClbM:
            window.slices += sign * dims.height;
            window.slices_m += sign * dims.height;
            break;
          case ColumnKind::Bram:
            window.bram36 += sign * Device::bram_sites_in_rows(row0, row_hi);
            break;
          case ColumnKind::Dsp:
            window.dsp += sign * Device::dsp_sites_in_rows(row0, row_hi);
            break;
          case ColumnKind::Clock:
            break;
        }
      };
      for (int c = 0; c < width && c < device.num_columns(); ++c) {
        add_col(c, +1);
      }
      PBlock best{};
      double best_score = 0.0;
      for (int hi = width - 1; hi < device.num_columns(); ++hi) {
        if (hi >= width) {
          add_col(hi, +1);
          add_col(lo, -1);
          ++lo;
        }
        if (lo < opts.anchor_col || !window.covers(needs)) continue;
        if (opts.policy == AnchorPolicy::FirstFit) {
          return PBlock{lo, hi, row0, row_hi};
        }
        // MinWaste: surplus slices are mild waste; hard-block sites covered
        // but unused are expensive (they sterilise BRAM/DSP columns for the
        // rest of the design and shrink the macro's relocation freedom).
        const double score =
            (window.slices - needs.slices) +
            25.0 * std::max(0, window.bram36 - needs.bram36) +
            25.0 * std::max(0, window.dsp - needs.dsp);
        if (best.empty() || score < best_score) {
          best = PBlock{lo, hi, row0, row_hi};
          best_score = score;
        }
      }
      if (!best.empty()) return best;
    }
    // Do not loop over widths forever when the height already spans the
    // device and the widest window failed: full-width failed => impossible.
    if (width == device.num_columns()) break;
  }
  return std::nullopt;
}

}  // namespace mf
