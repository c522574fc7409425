// The engine-portfolio contract, pinned four ways:
//
//   1. history: the restarts = 1 SA cost trace serialises to the exact
//      bytes of tests/data/golden_sa_trace.txt (captured before the engine
//      split), and racing `portfolio = {sa}` reproduces the plain single
//      anneal move for move -- the portfolio layer adds nothing to a
//      pure-SA run;
//   2. legality: every alternative engine (evo, analytic, warm-started SA)
//      returns footprint-legal, overlap-free, correctly costed placements
//      on every catalog device;
//   3. determinism: a portfolio race is bit-identical at any `jobs` value
//      (ctest re-runs this suite as `stitch_portfolio_jobs` with
//      MF_TEST_JOBS=8), the analytic engine ignores the seed entirely, and
//      observing `target_cost` never perturbs a run;
//   4. validation: malformed StitchOptions fail fast with CheckError
//      instead of silently falling back to SA.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/check.hpp"
#include "fabric/catalog.hpp"
#include "stitch/engine.hpp"
#include "stitch/sa_stitcher.hpp"
#include "stitch/verify.hpp"
#include "stitch_fixtures.hpp"

namespace mf {
namespace {

using namespace stitch_fixtures;

int env_jobs() {
  if (const char* jobs = std::getenv("MF_TEST_JOBS")) {
    const int n = std::atoi(jobs);
    if (n > 0) return n;
  }
  return 8;
}

/// Footprint-legal, overlap-free and correctly costed (stitch/verify).
void expect_legal(const Device& dev, const StitchProblem& problem,
                  const StitchResult& r) {
  const auto error = stitch_error(dev, problem, r);
  EXPECT_FALSE(error) << error.value_or("");
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "missing fixture " << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// -- 1. history --------------------------------------------------------------

TEST(StitchPortfolio, SaTraceMatchesGoldenFixtureByteForByte) {
  const Device dev = xc7z020_model();
  const StitchResult r = stitch(dev, mixed_problem(dev), golden_opts(1));
  EXPECT_EQ(r.engine, "sa");
  const std::string golden =
      read_file(std::string(MF_TEST_DATA_DIR) + "/golden_sa_trace.txt");
  EXPECT_EQ(trace_to_text(r), golden);
}

TEST(StitchPortfolio, PureSaPortfolioReproducesThePlainAnneal) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  const StitchResult plain = stitch(dev, problem, golden_opts(7));
  StitchOptions opts = golden_opts(7);
  opts.engine = StitchEngine::Portfolio;
  opts.portfolio = {StitchEngine::Sa};
  const StitchResult raced = stitch(dev, problem, opts);
  expect_identical(plain, raced);
  ASSERT_EQ(raced.engines.size(), 1u);
  EXPECT_EQ(raced.engines[0].engine, "sa");
  EXPECT_FALSE(raced.engines[0].warm_start);
  EXPECT_EQ(raced.engines[0].seed, 7u);
  EXPECT_EQ(raced.engines[0].moves, plain.total_moves);
  EXPECT_EQ(raced.engines[0].evals, plain.accepted + plain.rejected);
}

TEST(StitchPortfolio, ObservingTargetCostNeverPerturbsARun) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  const StitchResult cold = stitch(dev, problem, golden_opts(2));
  StitchOptions opts = golden_opts(2);
  opts.target_cost = cold.cost;  // generous: the run reaches it by the end
  const StitchResult watched = stitch(dev, problem, opts);
  expect_identical(cold, watched);
  EXPECT_GE(watched.target_move, 0);
  EXPECT_LE(watched.target_move, watched.total_moves);
  EXPECT_EQ(cold.target_move, -1);  // no target, never observed
}

// -- 2. legality on every catalog device ------------------------------------

TEST(StitchPortfolio, EvoIsLegalOnEveryCatalogDevice) {
  for (const Device& dev : {xc7z020_model(), xc7z045_model()}) {
    const StitchProblem problem = mixed_problem(dev);
    StitchOptions opts = golden_opts(3);
    opts.engine = StitchEngine::Evo;
    const StitchResult r = stitch(dev, problem, opts);
    EXPECT_EQ(r.engine, "evo");
    expect_legal(dev, problem, r);
    // Reproducible per seed.
    expect_identical(r, stitch(dev, problem, opts));
  }
}

TEST(StitchPortfolio, AnalyticIsLegalAndSeedFreeOnEveryCatalogDevice) {
  for (const Device& dev : {xc7z020_model(), xc7z045_model()}) {
    const StitchProblem problem = mixed_problem(dev);
    StitchOptions opts = golden_opts(4);
    opts.engine = StitchEngine::Analytic;
    const StitchResult r = stitch(dev, problem, opts);
    EXPECT_EQ(r.engine, "analytic");
    expect_legal(dev, problem, r);
    // The pre-placer is deterministic and ignores the seed entirely.
    StitchOptions reseeded = opts;
    reseeded.seed = 0xdecafbadULL;
    expect_identical(r, stitch(dev, problem, reseeded));
  }
}

TEST(StitchPortfolio, WarmStartedSaIsLegalAndDeterministic) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  StitchOptions opts = golden_opts(5);
  opts.warm_start = true;
  const StitchResult r = stitch(dev, problem, opts);
  expect_legal(dev, problem, r);
  expect_identical(r, stitch(dev, problem, opts));
  // Warm start changes the run (seeded placement + quenched schedule).
  const StitchResult cold = stitch(dev, problem, golden_opts(5));
  EXPECT_NE(positions_hash(r), positions_hash(cold));
}

// -- 3. portfolio determinism ------------------------------------------------

TEST(StitchPortfolio, RaceIsBitIdenticalAtAnyJobs) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  StitchOptions opts = golden_opts(6);
  opts.engine = StitchEngine::Portfolio;  // default analytic + sa + evo race
  opts.jobs = 1;
  const StitchResult serial = stitch(dev, problem, opts);
  opts.jobs = env_jobs();
  const StitchResult wide = stitch(dev, problem, opts);
  expect_identical(serial, wide);
  ASSERT_EQ(serial.engines.size(), wide.engines.size());
  for (std::size_t i = 0; i < serial.engines.size(); ++i) {
    const EngineStats& a = serial.engines[i];
    const EngineStats& b = wide.engines[i];
    EXPECT_EQ(a.engine, b.engine);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.warm_start, b.warm_start);
    EXPECT_EQ(a.moves, b.moves);
    EXPECT_EQ(a.evals, b.evals);
    EXPECT_EQ(a.unplaced, b.unplaced);
    EXPECT_EQ(a.target_move, b.target_move);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.best_cost),
              std::bit_cast<std::uint64_t>(b.best_cost));
    // seconds is wall clock and is allowed to differ.
  }
}

TEST(StitchPortfolio, WinnerIsLowestCostThenLowestConfigIndex) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  StitchOptions opts = golden_opts(6);
  opts.engine = StitchEngine::Portfolio;
  const StitchResult r = stitch(dev, problem, opts);
  ASSERT_EQ(r.engines.size(), 3u);  // analytic + sa + evo, one seed each
  expect_legal(dev, problem, r);
  long sum = 0;
  for (const EngineStats& s : r.engines) {
    sum += s.moves;
    // Winner rule: strictly-lower cost wins; ties keep the lowest index.
    if (s.config < r.restart_index) EXPECT_GT(s.best_cost, r.cost);
    EXPECT_GE(s.best_cost, r.cost);
  }
  EXPECT_EQ(r.restart_moves, sum);
  const EngineStats& winner =
      r.engines[static_cast<std::size_t>(r.restart_index)];
  EXPECT_EQ(std::bit_cast<std::uint64_t>(winner.best_cost),
            std::bit_cast<std::uint64_t>(r.cost));
  EXPECT_EQ(winner.engine, r.engine);
  EXPECT_EQ(winner.moves, r.total_moves);
  // The cost trace belongs to the winning engine only.
  const std::string header = trace_to_text(r);
  EXPECT_EQ(header.rfind("macroflow-cost-trace v1 engine=" + r.engine, 0), 0u);
}

// -- 4. fail-fast validation -------------------------------------------------

TEST(StitchPortfolio, MalformedOptionsThrowInsteadOfFallingBackToSa) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  auto with = [&](auto tweak) {
    StitchOptions opts = golden_opts(1);
    tweak(opts);
    return opts;
  };
  EXPECT_THROW(
      stitch(dev, problem, with([](StitchOptions& o) { o.restarts = 0; })),
      CheckError);
  EXPECT_THROW(
      stitch(dev, problem, with([](StitchOptions& o) { o.jobs = -1; })),
      CheckError);
  EXPECT_THROW(stitch(dev, problem,
                      with([](StitchOptions& o) { o.evo_population = 1; })),
               CheckError);
  EXPECT_THROW(stitch(dev, problem,
                      with([](StitchOptions& o) { o.engine_budget = -1; })),
               CheckError);
  EXPECT_THROW(stitch(dev, problem,
                      with([](StitchOptions& o) { o.target_cost = -0.5; })),
               CheckError);
  EXPECT_THROW(stitch(dev, problem,
                      with([](StitchOptions& o) {
                        o.engine = StitchEngine::Portfolio;
                        o.portfolio = {StitchEngine::Portfolio};
                      })),
               CheckError);
  EXPECT_THROW(stitch(dev, problem,
                      with([](StitchOptions& o) {
                        o.portfolio = {StitchEngine::Evo};  // engine still sa
                      })),
               CheckError);
  // Unknown engine names never reach the library: the parser rejects them.
  EXPECT_EQ(stitch_engine_from_string("frobnicate"), std::nullopt);
  EXPECT_EQ(stitch_engine_from_string(""), std::nullopt);
}

}  // namespace
}  // namespace mf
