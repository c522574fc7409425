// Tests for the paper's core: PBlock generation (Fig. 1), the minimal-CF
// search, the seeded search schedule (Section VIII), and feature extraction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/cf_search.hpp"
#include "core/features.hpp"
#include "fabric/catalog.hpp"
#include "netlist/builder.hpp"
#include "rtlgen/generators.hpp"
#include "synth/optimize.hpp"

namespace mf {
namespace {

struct Prepared {
  Module module;
  ResourceReport report;
  ShapeReport shape;
};

Prepared prepare(Module module) {
  optimize(module.netlist);
  Prepared p{std::move(module), {}, {}};
  p.report = make_report(p.module.netlist);
  p.shape = quick_place(p.report);
  return p;
}

Prepared sample_module(std::uint64_t seed = 1, int luts = 400, int ffs = 350) {
  Rng rng(seed);
  MixedParams params;
  params.luts = luts;
  params.ffs = ffs;
  params.carry_adders = 2;
  params.carry_width = 12;
  params.control_sets = 3;
  return prepare(gen_mixed(params, rng));
}

TEST(PBlockGenerator, CoversScaledNeeds) {
  const Device dev = xc7z020_model();
  const Prepared p = sample_module();
  for (double cf : {1.0, 1.3, 1.7}) {
    const auto pb = generate_pblock(dev, p.report, p.shape, cf);
    ASSERT_TRUE(pb.has_value());
    const FabricResources r = dev.resources_in(*pb);
    EXPECT_GE(r.slices, static_cast<int>(p.report.est_slices * cf));
    EXPECT_GE(r.slices_m, p.report.est_slices_m);
  }
}

TEST(PBlockGenerator, SlicesMonotoneInCf) {
  const Device dev = xc7z020_model();
  const Prepared p = sample_module();
  int prev = 0;
  for (double cf = 0.9; cf <= 2.0; cf += 0.1) {
    const auto pb = generate_pblock(dev, p.report, p.shape, cf);
    ASSERT_TRUE(pb.has_value());
    const int slices = dev.resources_in(*pb).slices;
    EXPECT_GE(slices, prev);
    prev = slices;
  }
}

TEST(PBlockGenerator, RespectsCarryMinHeight) {
  const Device dev = xc7z020_model();
  Rng rng(2);
  const Prepared p = prepare(gen_carry({1, 48, false}, rng));
  const auto pb = generate_pblock(dev, p.report, p.shape, 1.0);
  ASSERT_TRUE(pb.has_value());
  EXPECT_GE(pb->height(), p.report.stats.longest_chain());
}

TEST(PBlockGenerator, HardBlocksForceTallRectangles) {
  const Device dev = xc7z020_model();
  Netlist nl;
  NetlistBuilder b(nl);
  const std::vector<NetId> addr = b.input_bus(10, "a");
  for (int i = 0; i < 10; ++i) b.bram36(addr, addr);
  nl.mark_output(b.lut({addr[0]}));
  Module m;
  m.netlist = std::move(nl);
  const Prepared p = prepare(std::move(m));
  const auto pb = generate_pblock(dev, p.report, p.shape, 1.0);
  ASSERT_TRUE(pb.has_value());
  EXPECT_GE(dev.resources_in(*pb).bram36, 10);
  EXPECT_GE(pb->height(), 10 * kBramRowPitch);
}

TEST(PBlockGenerator, HardBlockDominatedIgnoresSmallCf) {
  // For a BRAM-driven module, CF changes below ~1 do not change the PBlock:
  // the paper's explanation for the sub-0.7 Figure 4 bins.
  const Device dev = xc7z020_model();
  Netlist nl;
  NetlistBuilder b(nl);
  const std::vector<NetId> addr = b.input_bus(10, "a");
  for (int i = 0; i < 6; ++i) b.bram36(addr, addr);
  nl.mark_output(b.lut({addr[0]}));
  Module m;
  m.netlist = std::move(nl);
  const Prepared p = prepare(std::move(m));
  const auto small = generate_pblock(dev, p.report, p.shape, 0.5);
  const auto one = generate_pblock(dev, p.report, p.shape, 0.9);
  ASSERT_TRUE(small && one);
  EXPECT_EQ(*small, *one);
}

TEST(PBlockGenerator, ImpossibleNeedsReturnNullopt) {
  const Device dev = xc7z020_model();
  const Prepared p = sample_module();
  ResourceReport huge = p.report;
  huge.est_slices = dev.totals().slices + 1;
  EXPECT_FALSE(generate_pblock(dev, huge, p.shape, 1.0).has_value());
}

TEST(PBlockDims, AreaTracksTarget) {
  const Device dev = xc7z020_model();
  const Prepared p = sample_module();
  const PBlockDims d1 = pblock_dims(p.report, p.shape, 1.0, dev);
  const PBlockDims d2 = pblock_dims(p.report, p.shape, 2.0, dev);
  EXPECT_GE(static_cast<long>(d1.width) * d1.height, p.report.est_slices);
  EXPECT_GT(static_cast<long>(d2.width) * d2.height,
            static_cast<long>(d1.width) * d1.height);
}

/// The generator before its row scan was bounded: every `row0` from the
/// anchor row to the bottom of the device, at every width. generate_pblock
/// stops after kBramRowPitch rows, which is exact only while a window's
/// resources depend on `row0` solely through `row0 % kBramRowPitch`.
std::optional<PBlock> reference_generate_pblock(const Device& device,
                                                const ResourceReport& report,
                                                const ShapeReport& shape,
                                                double cf,
                                                const PBlockGenOptions& opts) {
  FabricResources needs;
  needs.slices =
      std::max(1, static_cast<int>(std::ceil(report.est_slices * cf)));
  needs.slices_m =
      static_cast<int>(std::ceil(report.est_slices_m * std::max(1.0, cf)));
  needs.bram36 = report.bram36;
  needs.dsp = report.dsp;
  PBlockDims dims = pblock_dims(report, shape, cf, device);
  const int hard_rows =
      std::max(needs.bram36, (needs.dsp + kDspPerPitch - 1) / kDspPerPitch) *
      kBramRowPitch;
  if (hard_rows > dims.height) {
    dims.height = std::min(hard_rows + 1, device.rows());
  }
  for (int width = dims.width; width <= device.num_columns(); ++width) {
    for (int row0 = opts.anchor_row; row0 + dims.height <= device.rows();
         ++row0) {
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
    if (width == device.num_columns()) break;
  }
  return std::nullopt;
}

TEST(PBlockGenerator, FiveRowScanMatchesFullScan) {
  // Seeded random needs: slice-, M-slice-, BRAM- and DSP-driven reports,
  // a third of them hard-block dominated (a few slices, many sites), on
  // both devices under both anchor policies with non-zero anchors.
  Rng rng(0x9b10c);
  const auto pick = [&rng](int lo, int hi) {
    return static_cast<int>(rng.uniform_int(lo, hi));
  };
  const Device devices[] = {xc7z020_model(), xc7z045_model()};
  int compared = 0;
  int found = 0;
  for (int draw = 0; draw < 300; ++draw) {
    ResourceReport report;
    ShapeReport shape;
    const int kind = draw % 3;
    report.est_slices = kind == 2 ? pick(1, 40)
                                  : pick(1, 2500);
    report.est_slices_m =
        pick(0, 3) == 0 ? pick(0, report.est_slices) : 0;
    report.bram36 = kind == 0 ? 0 : pick(0, kind == 2 ? 40 : 8);
    report.dsp = kind == 0 ? 0 : pick(0, kind == 2 ? 60 : 12);
    shape.bbox_w = pick(1, 60);
    shape.bbox_h = pick(1, 60);
    shape.min_height = pick(1, 48);
    const double cf = rng.uniform(0.5, 3.0);
    for (const Device& device : devices) {
      for (AnchorPolicy policy :
           {AnchorPolicy::FirstFit, AnchorPolicy::MinWaste}) {
        PBlockGenOptions opts;
        opts.policy = policy;
        opts.anchor_row = draw % 4 == 0 ? 0 : pick(1, 23);
        opts.anchor_col = draw % 5 == 0 ? 0 : pick(1, 31);
        const std::optional<PBlock> fast =
            generate_pblock(device, report, shape, cf, opts);
        const std::optional<PBlock> full =
            reference_generate_pblock(device, report, shape, cf, opts);
        ASSERT_EQ(fast, full)
            << device.name() << " draw " << draw << " cf " << cf
            << " slices " << report.est_slices << " m "
            << report.est_slices_m << " bram " << report.bram36 << " dsp "
            << report.dsp << " anchor " << opts.anchor_col << ","
            << opts.anchor_row;
        ++compared;
        found += fast.has_value();
      }
    }
  }
  // Both outcomes must be exercised, and most draws must place.
  EXPECT_EQ(compared, 1200);
  EXPECT_GT(found, compared / 2);
  EXPECT_LT(found, compared);
}

TEST(CfSearch, FindsMinimalFeasible) {
  const Device dev = xc7z020_model();
  const Prepared p = sample_module();
  const CfSearchResult found = find_min_cf(p.module, p.report, p.shape, dev);
  ASSERT_TRUE(found.found);
  EXPECT_GE(found.min_cf, 0.9);
  EXPECT_LE(found.min_cf, 2.5);
  EXPECT_TRUE(found.place.feasible);
}

TEST(CfSearch, ReportedCfIsTight) {
  // One step below the reported minimum must be infeasible (unless the
  // PBlock is identical due to quantization).
  const Device dev = xc7z020_model();
  const Prepared p = sample_module(3, 700, 500);
  CfSearchOptions opts;
  const CfSearchResult found =
      find_min_cf(p.module, p.report, p.shape, dev, opts);
  ASSERT_TRUE(found.found);
  if (found.min_cf > opts.start + 1e-9) {
    const double below = found.min_cf - opts.step;
    const auto pb = generate_pblock(dev, p.report, p.shape, below);
    ASSERT_TRUE(pb.has_value());
    if (!(*pb == found.pblock)) {
      const PlaceResult r =
          place_in_pblock(p.module, p.report, dev, *pb, opts.place);
      EXPECT_FALSE(r.feasible);
    }
  }
}

TEST(CfSearch, ToolRunsCounted) {
  const Device dev = xc7z020_model();
  const Prepared p = sample_module();
  const CfSearchResult found = find_min_cf(p.module, p.report, p.shape, dev);
  ASSERT_TRUE(found.found);
  EXPECT_GE(found.tool_runs, 1);
  // Never more runs than CF steps in the searched interval.
  EXPECT_LE(found.tool_runs,
            static_cast<int>((found.min_cf - 0.9) / 0.02) + 2);
}

TEST(SeededSearch, FirstRunSuccessWhenSeedGenerous) {
  const Device dev = xc7z020_model();
  const Prepared p = sample_module();
  const SeededSearchResult r =
      seeded_cf_search(p.module, p.report, p.shape, dev, 2.2);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.first_run_success);
  EXPECT_EQ(r.tool_runs, 1);
  EXPECT_DOUBLE_EQ(r.cf, 2.2);
}

TEST(SeededSearch, ClimbsFromUnderestimate) {
  const Device dev = xc7z020_model();
  const Prepared p = sample_module(5, 800, 700);
  const CfSearchResult truth = find_min_cf(p.module, p.report, p.shape, dev);
  ASSERT_TRUE(truth.found);
  const SeededSearchResult r =
      seeded_cf_search(p.module, p.report, p.shape, dev, 0.9);
  ASSERT_TRUE(r.found);
  if (truth.min_cf > 0.9 + 1e-9) {
    EXPECT_FALSE(r.first_run_success);
    EXPECT_GT(r.tool_runs, 1);
  }
  // The seeded schedule never lands below the true minimum.
  EXPECT_GE(r.cf, truth.min_cf - 0.021);
}

TEST(SeededSearch, MoreRunsFromWorseSeed) {
  const Device dev = xc7z020_model();
  const Prepared p = sample_module(5, 800, 700);
  const SeededSearchResult far =
      seeded_cf_search(p.module, p.report, p.shape, dev, 0.9);
  const CfSearchResult truth = find_min_cf(p.module, p.report, p.shape, dev);
  ASSERT_TRUE(truth.found && far.found);
  const SeededSearchResult close = seeded_cf_search(
      p.module, p.report, p.shape, dev, truth.min_cf + 0.01);
  EXPECT_LE(close.tool_runs, far.tool_runs);
}

// -- features -----------------------------------------------------------------

class FeatureSetTest : public ::testing::TestWithParam<FeatureSet> {};

TEST_P(FeatureSetTest, NamesAlignWithValues) {
  const Prepared p = sample_module();
  const auto names = feature_names(GetParam());
  const auto values = extract_features(GetParam(), p.report, p.shape);
  EXPECT_EQ(names.size(), values.size());
  EXPECT_FALSE(names.empty());
  for (double v : values) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSets, FeatureSetTest,
                         ::testing::Values(FeatureSet::Classical,
                                           FeatureSet::ClassicalStar,
                                           FeatureSet::Additional,
                                           FeatureSet::All,
                                           FeatureSet::LinReg9));

TEST(Features, LinReg9HasNineInputs) {
  EXPECT_EQ(feature_names(FeatureSet::LinReg9).size(), 9u);
}

TEST(Features, AdditionalAreRelative) {
  // Scaling a design up should leave the relative features nearly unchanged.
  const Prepared small = sample_module(7, 200, 160);
  const Prepared big = sample_module(7, 2000, 1600);
  const auto fs = extract_features(FeatureSet::Additional, small.report,
                                   small.shape);
  const auto fb =
      extract_features(FeatureSet::Additional, big.report, big.shape);
  // Carry ratio (index 0) shrinks with size here (fixed adder count), but
  // FF/All (index 2) must stay comparable.
  EXPECT_NEAR(fs[2], fb[2], 0.25);
}

TEST(Features, CarryRatioReflectsCarryContent) {
  Rng rng(8);
  const Prepared carry = prepare(gen_carry({2, 16, false}, rng));
  const Prepared plain = sample_module(9, 400, 100);
  const auto fc =
      extract_features(FeatureSet::Additional, carry.report, carry.shape);
  const auto fp =
      extract_features(FeatureSet::Additional, plain.report, plain.shape);
  EXPECT_GT(fc[0], fp[0]);  // Carry/All
}

}  // namespace
}  // namespace mf
