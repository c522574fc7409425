#include "stitch/sa_stitcher.hpp"

#include <gtest/gtest.h>

#include "fabric/catalog.hpp"
#include "stitch/verify.hpp"

namespace mf {
namespace {

/// Build a macro whose footprint starts at column `col0` with `w` columns
/// and `h` rows on `dev`.
Macro make_macro(const Device& dev, const std::string& name, int col0, int w,
                 int h, bool uses_hard = false) {
  Macro macro;
  macro.name = name;
  macro.pblock = PBlock{col0, col0 + w - 1, 0, h - 1};
  macro.footprint = footprint_of(dev, macro.pblock, uses_hard);
  macro.used_slices = w * h;
  macro.est_slices = w * h;
  macro.cf = 1.0;
  return macro;
}

StitchProblem chain_problem(const Device& dev, int blocks, int w, int h) {
  StitchProblem problem;
  problem.macros.push_back(make_macro(dev, "m", 0, w, h));
  for (int i = 0; i < blocks; ++i) {
    problem.instances.push_back(
        BlockInstance{"m_i" + std::to_string(i), 0});
  }
  // Chain connectivity: i <-> i+1.
  for (int i = 0; i + 1 < blocks; ++i) {
    problem.nets.push_back(BlockNet{{i, i + 1}, 1.0});
  }
  return problem;
}

StitchOptions fast_opts(std::uint64_t seed = 1) {
  StitchOptions opts;
  opts.seed = seed;
  opts.moves_per_temp = 200;
  opts.cooling = 0.85;
  return opts;
}

TEST(Stitcher, PlacesEverythingWithRoom) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = chain_problem(dev, 20, 3, 10);
  const StitchResult r = stitch(dev, problem, fast_opts());
  EXPECT_EQ(r.unplaced, 0);
  EXPECT_GT(r.total_moves, 0);
}

TEST(Stitcher, NoOverlapsInResult) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = chain_problem(dev, 30, 4, 12);
  const StitchResult r = stitch(dev, problem, fast_opts(2));
  const auto error = stitch_error(dev, problem, r);
  EXPECT_FALSE(error) << error.value_or("");
}

TEST(Stitcher, PlacedBlocksOnCompatibleAnchors) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = chain_problem(dev, 15, 5, 9);
  const StitchResult r = stitch(dev, problem, fast_opts(3));
  const auto error = stitch_error(dev, problem, r);
  EXPECT_FALSE(error) << error.value_or("");
}

TEST(Stitcher, ParksBlocksWhenDeviceFull) {
  const Device dev = xc7z020_model();
  // 60 blocks of 30x30 cannot fit a ~94x150 grid.
  const StitchProblem problem = chain_problem(dev, 60, 30, 30);
  const StitchResult r = stitch(dev, problem, fast_opts(4));
  EXPECT_GT(r.unplaced, 0);
  EXPECT_LT(r.unplaced, 60);  // some must fit
}

TEST(Stitcher, ConnectedBlocksEndUpCloserThanRandom) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = chain_problem(dev, 24, 3, 10);
  StitchOptions opts = fast_opts(5);
  const StitchResult annealed = stitch(dev, problem, opts);
  // Quenched run (temperature ~0, no optimisation passes beyond greedy):
  StitchOptions frozen = opts;
  frozen.moves_per_temp = 1;
  frozen.min_temp_ratio = 0.99;  // single temperature step
  const StitchResult greedy = stitch(dev, problem, frozen);
  EXPECT_LE(annealed.wirelength, greedy.wirelength);
}

TEST(Stitcher, CostTraceDecreasesOverall) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = chain_problem(dev, 24, 3, 10);
  const StitchResult r = stitch(dev, problem, fast_opts(6));
  ASSERT_GE(r.cost_trace.size(), 2u);
  // The final (best-restored, fill-completed) cost never exceeds the
  // greedy starting point; the raw trace may wander above it at high
  // temperature.
  EXPECT_LE(r.cost, r.cost_trace.front().second);
  EXPECT_LE(r.converge_move, r.total_moves);
}

TEST(Stitcher, DeterministicPerSeed) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = chain_problem(dev, 12, 3, 8);
  const StitchResult a = stitch(dev, problem, fast_opts(7));
  const StitchResult b = stitch(dev, problem, fast_opts(7));
  EXPECT_EQ(a.wirelength, b.wirelength);
  EXPECT_EQ(a.unplaced, b.unplaced);
  EXPECT_EQ(a.accepted, b.accepted);
}

TEST(Stitcher, CoverageMatchesPlacedArea) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = chain_problem(dev, 10, 3, 10);
  const StitchResult r = stitch(dev, problem, fast_opts(8));
  ASSERT_EQ(r.unplaced, 0);
  // Each footprint covers at most 3 CLB columns x 10 rows.
  const double max_cover =
      10.0 * 3 * 10 / dev.totals().slices;
  EXPECT_LE(r.coverage, max_cover + 1e-9);
  EXPECT_GT(r.coverage, 0.0);
}

TEST(Stitcher, HardBlockMacrosKeepAlignment) {
  const Device dev = xc7z020_model();
  int bram_col = -1;
  for (int c = 0; c < dev.num_columns(); ++c) {
    if (dev.column(c) == ColumnKind::Bram) {
      bram_col = c;
      break;
    }
  }
  ASSERT_GT(bram_col, 0);
  StitchProblem problem;
  problem.macros.push_back(
      make_macro(dev, "bram_user", bram_col - 1, 3, 10, /*uses_hard=*/true));
  for (int i = 0; i < 4; ++i) {
    problem.instances.push_back(BlockInstance{"b" + std::to_string(i), 0});
  }
  const StitchResult r = stitch(dev, problem, fast_opts(9));
  for (const BlockPlacement& p : r.positions) {
    if (!p.placed()) continue;
    EXPECT_EQ((p.row - problem.macros[0].pblock.row_lo) % kBramRowPitch, 0);
  }
}

}  // namespace
}  // namespace mf
