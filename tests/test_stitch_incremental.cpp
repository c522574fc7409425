// The annealer's exactness contract, pinned three ways:
//
//   1. golden rows: SA at restarts = 1 must reproduce pinned results bit for
//      bit (counters, bit_cast'd final doubles, position and cost-trace
//      hashes). The mixed-problem rows were captured from the original naive
//      engine; the overfull rows (the device-filling synthetic and the cnv
//      min-CF problems on both devices) pin the parked / unpark / final-fill
//      paths, and were captured while that naive engine still agreed with
//      the incremental one bit for bit;
//   2. stitch_error: every pinned result is legal and correctly costed,
//      wirelength recomputed from scratch;
//   3. properties: the IncrementalWirelength cache never drifts from a
//      from-scratch recompute under 10k random place / move / unplace ops.
//
// Plus the multi-start determinism contract: restarts = K is bit-identical
// at any `jobs` value, the winner is the argmin over the per-restart
// task_seed runs (lowest index on ties), and restarts = 1 is the plain
// single anneal.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fabric/catalog.hpp"
#include "flow/rw_flow.hpp"
#include "nn/cnv_w1a1.hpp"
#include "stitch/incremental_cost.hpp"
#include "stitch/sa_stitcher.hpp"
#include "stitch/verify.hpp"
#include "stitch_fixtures.hpp"

namespace mf {
namespace {

using namespace stitch_fixtures;

/// One pinned run: every field SA produces for (problem, options(seed)).
struct GoldenRow {
  std::uint64_t seed;
  long total_moves, accepted, rejected, illegal;
  int unplaced;
  long converge_move;
  std::uint64_t wirelength_bits, cost_bits, positions_hash, trace_hash;
};

void expect_row(const Device& dev, const StitchProblem& problem,
                const StitchResult& r, const GoldenRow& g) {
  SCOPED_TRACE("seed " + std::to_string(g.seed));
  EXPECT_EQ(r.total_moves, g.total_moves);
  EXPECT_EQ(r.accepted, g.accepted);
  EXPECT_EQ(r.rejected, g.rejected);
  EXPECT_EQ(r.illegal, g.illegal);
  EXPECT_EQ(r.unplaced, g.unplaced);
  EXPECT_EQ(r.converge_move, g.converge_move);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.wirelength), g.wirelength_bits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.cost), g.cost_bits);
  EXPECT_EQ(positions_hash(r), g.positions_hash);
  EXPECT_EQ(trace_hash(r), g.trace_hash);
  const auto error = stitch_error(dev, problem, r);
  EXPECT_FALSE(error) << error.value_or("");
}

/// (mixed_problem, golden_opts(seed)). Seeds 1-4 come from the original
/// naive engine; 5 and 6 from the last build that still carried it.
constexpr GoldenRow kGolden[] = {
    {1ull, 8550, 273, 4673, 3571, 0, 6900, 0x4084100000000000ull,
     0x4084100000000000ull, 0x951f887e78dcc37dull, 0xec6c069e6130f303ull},
    {2ull, 7500, 272, 3973, 3235, 0, 5250, 0x4083000000000000ull,
     0x4083000000000000ull, 0x782d59339c4f41b6ull, 0xfa0c9f5680e004b7ull},
    {3ull, 6150, 292, 3076, 2762, 0, 3750, 0x4083e00000000000ull,
     0x4083e00000000000ull, 0xcea142ba32a847dbull, 0xdc1cc13a53bc3fe3ull},
    {4ull, 2250, 229, 1067, 950, 0, 0, 0x4088300000000000ull,
     0x4088300000000000ull, 0x949cf05a4da2f262ull, 0x8e0f1a8d127b74c5ull},
    {5ull, 8550, 295, 4766, 3461, 0, 7800, 0x4081880000000000ull,
     0x4081880000000000ull, 0x426b9b9213a71a90ull, 0xbba02a9e6130f303ull},
    {6ull, 2250, 224, 1053, 967, 0, 0, 0x4088300000000000ull,
     0x4088300000000000ull, 0x949cf05a4da2f262ull, 0x4caa4e8d127b74c5ull},
};

TEST(StitchIncremental, GoldenTracesMatchPreChangeEngine) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  for (const GoldenRow& g : kGolden) {
    expect_row(dev, problem, stitch(dev, problem, golden_opts(g.seed)), g);
  }
}

TEST(StitchIncremental, OverfullSyntheticDigest) {
  // Default options: 75 of 150 blocks stay parked, 269,543 of 270,000
  // moves are illegal.
  constexpr GoldenRow kFilling = {
      99ull, 270000, 110, 236, 269543, 75, 0, 0x40a86b0000000000ull,
      0x40f3001800000000ull, 0x76753f33f08a5bfaull, 0x86c6eb1e26920b1dull};
  const Device dev = xc7z020_model();
  const StitchProblem problem = filling_problem(dev);
  expect_row(dev, problem, stitch(dev, problem, StitchOptions{}), kFilling);
}

/// The `macroflow cnv` min-CF stitch problem (every cnvW1A1 block at its
/// minimal CF), default anneal options with seeds 100-103.
constexpr GoldenRow kCnvZ020[] = {
    {100ull, 315000, 2587, 2177, 309462, 78, 92750, 0x40b0990000000000ull,
     0x40f4011000000000ull, 0x35c441379ed068a2ull, 0xcf0d84a52c29a6adull},
    {101ull, 315000, 2467, 2191, 309595, 78, 99750, 0x40b0e48000000000ull,
     0x40f405c800000000ull, 0x2824c5ed6322ef5dull, 0xf14781e52c29a6adull},
    {102ull, 315000, 2500, 2519, 309239, 78, 70000, 0x40b0e88000000000ull,
     0x40f4060800000000ull, 0x39e5429ae5fc93f9ull, 0xf869326d2c29a6adull},
    {103ull, 315000, 2454, 2178, 309640, 78, 77000, 0x40b0b50000000000ull,
     0x40f402d000000000ull, 0xb0365b226d339821ull, 0x471570952c29a6adull},
};
constexpr GoldenRow kCnvZ045[] = {
    {100ull, 315000, 15866, 127900, 171066, 0, 290500, 0x40bae60000000000ull,
     0x40bae60000000000ull, 0x8c4e85b5cb4e3fd8ull, 0x6efb48652c29a6adull},
    {101ull, 315000, 12209, 131839, 170774, 0, 222250, 0x40bd5d0000000000ull,
     0x40bd5d0000000000ull, 0x0d387e47a454daadull, 0xca927b652c29a6adull},
    {102ull, 271250, 14348, 104496, 152249, 0, 232750, 0x40b7d70000000000ull,
     0x40b7d70000000000ull, 0x32872e263ec3236aull, 0x932f573a341df24dull},
    {103ull, 315000, 14529, 125060, 175245, 0, 273000, 0x40ba2d0000000000ull,
     0x40ba2d0000000000ull, 0x065634fe4ea3ea59ull, 0xffca24e52c29a6adull},
};

StitchProblem cnv_min_cf_problem(const Device& dev) {
  RwFlowOptions opts;
  opts.compute_timing = false;
  opts.run_stitch = false;
  opts.jobs = 1;
  CfPolicy policy;
  policy.mode = CfPolicy::Mode::MinSearch;
  return run_rw_flow(build_cnv_w1a1(), dev, policy, opts).problem;
}

TEST(StitchIncremental, CnvMinCfDigestsOnBothDevices) {
  const Device z020 = xc7z020_model();
  const Device z045 = xc7z045_model();
  for (const auto& [dev, rows] :
       {std::pair{&z020, &kCnvZ020}, std::pair{&z045, &kCnvZ045}}) {
    const StitchProblem problem = cnv_min_cf_problem(*dev);
    ASSERT_EQ(problem.instances.size(), 175u);
    for (const GoldenRow& g : *rows) {
      StitchOptions opts;
      opts.seed = g.seed;
      expect_row(*dev, problem, stitch(*dev, problem, opts), g);
    }
  }
}

TEST(StitchIncremental, WirelengthCacheNeverDrifts) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  const int n = static_cast<int>(problem.instances.size());
  for (std::uint64_t seed : {7ull, 19ull, 101ull}) {
    IncrementalWirelength engine(problem);
    Rng rng(seed);
    for (int op = 0; op < 10000; ++op) {
      const int inst = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
      // 1/4 unplace, 3/4 place-or-move at a random (legal or not -- the
      // engine's geometry never consults occupancy) anchor.
      if (rng.index(4) == 0) {
        engine.unplace(inst);
      } else {
        const int col = static_cast<int>(rng.index(100));
        const int row = static_cast<int>(rng.index(140));
        engine.place(inst, col, row);
      }
      if (op % 97 == 0 || op > 9900) {
        ASSERT_NEAR(engine.total(), engine.full_recompute(), 1e-9)
            << "seed " << seed << " op " << op;
      }
    }
    EXPECT_NEAR(engine.total(), engine.full_recompute(), 1e-9);
    EXPECT_GT(engine.rescans(), 0) << "property run never hit the rescan path";
  }
}

TEST(StitchIncremental, MultiStartIdenticalAtAnyJobs) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  StitchOptions opts = golden_opts(5);
  opts.restarts = 8;
  opts.jobs = 1;
  const StitchResult sequential = stitch(dev, problem, opts);
  opts.jobs = 8;
  const StitchResult parallel = stitch(dev, problem, opts);
  expect_identical(sequential, parallel);
  EXPECT_EQ(sequential.restart_moves, parallel.restart_moves);
}

TEST(StitchIncremental, MultiStartWinnerIsArgminOverTaskSeeds) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  StitchOptions opts = golden_opts(5);
  opts.restarts = 8;
  const StitchResult multi = stitch(dev, problem, opts);

  int best = -1;
  double best_cost = 0.0;
  long all_moves = 0;
  for (int k = 0; k < 8; ++k) {
    StitchOptions one = golden_opts(5);
    one.seed = task_seed(opts.seed, "restart:" + std::to_string(k));
    const StitchResult r = stitch(dev, problem, one);
    all_moves += r.total_moves;
    if (best < 0 || r.cost < best_cost) {  // strict <: ties keep lowest k
      best = k;
      best_cost = r.cost;
    }
  }
  EXPECT_EQ(multi.restart_index, best);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(multi.cost),
            std::bit_cast<std::uint64_t>(best_cost));
  EXPECT_EQ(multi.restart_moves, all_moves);
}

TEST(StitchIncremental, SingleRestartIsThePlainAnneal) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  StitchOptions multi = golden_opts(3);
  multi.restarts = 1;
  multi.jobs = 8;  // must not matter at restarts = 1
  const StitchResult a = stitch(dev, problem, multi);
  const StitchResult b = stitch(dev, problem, golden_opts(3));
  expect_identical(a, b);
  EXPECT_EQ(a.restart_index, 0);
  EXPECT_EQ(a.restart_moves, a.total_moves);
}

TEST(StitchIncremental, CostTraceIsCapped) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  StitchOptions opts = golden_opts(1);
  // Pathological schedule: ~9200 temperature steps of one move each, with
  // quiescence detection off so the walk really takes them all.
  opts.moves_per_temp = 1;
  opts.cooling = 0.999;
  opts.stagnation_temps = 0;
  const StitchResult r = stitch(dev, problem, opts);
  EXPECT_GT(r.total_moves, 4096);
  EXPECT_LE(r.cost_trace.size(), 4096u);
  EXPECT_GE(r.cost_trace.size(), 1024u);  // downsampled, not truncated
  for (std::size_t i = 1; i < r.cost_trace.size(); ++i) {
    EXPECT_LT(r.cost_trace[i - 1].first, r.cost_trace[i].first);
  }
}

}  // namespace
}  // namespace mf
