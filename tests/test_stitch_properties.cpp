// Property tests over the SA stitcher: for any seed, the result must be
// overlap-free, anchor-legal, correctly costed, and reproducible.

#include <gtest/gtest.h>

#include <cstdint>

#include "fabric/catalog.hpp"
#include "stitch/sa_stitcher.hpp"
#include "stitch/verify.hpp"
#include "stitch_fixtures.hpp"

namespace mf {
namespace {

using namespace stitch_fixtures;

class StitchProperty : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] std::uint64_t seed() const {
    return static_cast<std::uint64_t>(GetParam()) + 1;
  }
};

TEST_P(StitchProperty, ResultIsLegal) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  const StitchResult r = stitch(dev, problem, golden_opts(seed()));
  // Overlap-free, anchor-legal, and cost == wirelength + penalty * unplaced
  // with the wirelength recomputed from scratch.
  const auto error = stitch_error(dev, problem, r);
  EXPECT_FALSE(error) << error.value_or("");
}

TEST_P(StitchProperty, ReproduciblePerSeed) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  const StitchResult a = stitch(dev, problem, golden_opts(seed()));
  const StitchResult b = stitch(dev, problem, golden_opts(seed()));
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i].col, b.positions[i].col);
    EXPECT_EQ(a.positions[i].row, b.positions[i].row);
  }
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.total_moves, b.total_moves);
}

TEST_P(StitchProperty, TraceEndsAtFinalCostScale) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  const StitchResult r = stitch(dev, problem, golden_opts(seed()));
  ASSERT_FALSE(r.cost_trace.empty());
  // The annealer's running cost and the recomputed final cost must agree to
  // within the final-fill improvements (fill only ever lowers the cost).
  EXPECT_LE(r.cost, r.cost_trace.back().second + 1e-6);
  EXPECT_LE(r.converge_move, r.total_moves);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StitchProperty, ::testing::Range(0, 5));

}  // namespace
}  // namespace mf
