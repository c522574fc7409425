#pragma once
// Shared stitcher test fixtures: the pinned problems, the golden options,
// result hashes and the bit-identity expectation. Pinned digests and the
// golden trace fixture are tied to these exact problems -- do not reshape
// them.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>

#include "fabric/pblock.hpp"
#include "stitch/engine.hpp"
#include "stitch/macro.hpp"

namespace mf::stitch_fixtures {

/// Three macro shapes, one BRAM-bound, 36 instances in a chain.
inline StitchProblem mixed_problem(const Device& dev) {
  StitchProblem problem;
  auto add_macro = [&](const char* name, int col0, int w, int h, bool hard) {
    Macro m;
    m.name = name;
    m.pblock = PBlock{col0, col0 + w - 1, 0, h - 1};
    m.footprint = footprint_of(dev, m.pblock, hard);
    m.used_slices = w * h;
    problem.macros.push_back(std::move(m));
  };
  add_macro("small", 0, 3, 8, false);
  add_macro("wide", 3, 9, 12, false);
  int bram_col = -1;
  for (int c = 0; c < dev.num_columns(); ++c) {
    if (dev.column(c) == ColumnKind::Bram) {
      bram_col = c;
      break;
    }
  }
  add_macro("brammy", bram_col - 1, 3, 10, true);

  int next = 0;
  auto instances = [&](int macro, int count) {
    for (int i = 0; i < count; ++i) {
      problem.instances.push_back(
          BlockInstance{"i" + std::to_string(next++), macro});
    }
  };
  instances(0, 20);
  instances(1, 10);
  instances(2, 6);
  for (int i = 0; i + 1 < next; ++i) {
    problem.nets.push_back(BlockNet{{i, i + 1}, 1.0});
  }
  return problem;
}

/// bench_stitch's device-filling synthetic: two mid-size macro shapes
/// chained with star nets, enough copies to oversubscribe the xc7z020
/// fabric, so SA runs with blocks parked the whole walk.
inline StitchProblem filling_problem(const Device& dev) {
  StitchProblem problem;
  auto add_macro = [&](const char* name, int col0, int w, int h) {
    Macro m;
    m.name = name;
    m.pblock = PBlock{col0, col0 + w - 1, 0, h - 1};
    m.footprint = footprint_of(dev, m.pblock, false);
    m.used_slices = w * h;
    problem.macros.push_back(std::move(m));
  };
  add_macro("mid", 0, 5, 20);
  add_macro("tall", 6, 4, 34);
  int next = 0;
  auto instances = [&](int macro, int count) {
    for (int i = 0; i < count; ++i) {
      problem.instances.push_back(
          BlockInstance{"f" + std::to_string(next++), macro});
    }
  };
  instances(0, 90);
  instances(1, 60);
  for (int i = 0; i + 1 < next; ++i) {
    problem.nets.push_back(BlockNet{{i, i + 1}, 1.0});
  }
  for (int i = 0; i + 8 < next; i += 8) {
    problem.nets.push_back(BlockNet{{i, i + 4, i + 8}, 0.5});
  }
  return problem;
}

inline StitchOptions golden_opts(std::uint64_t seed) {
  StitchOptions opts;
  opts.seed = seed;
  opts.moves_per_temp = 150;
  opts.cooling = 0.85;
  return opts;
}

inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;
  return h;
}

inline std::uint64_t positions_hash(const StitchResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const BlockPlacement& p : r.positions) {
    h = mix(h, static_cast<std::uint64_t>(p.col));
    h = mix(h, static_cast<std::uint64_t>(p.row));
  }
  return h;
}

inline std::uint64_t trace_hash(const StitchResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [move, cost] : r.cost_trace) {
    h = mix(h, static_cast<std::uint64_t>(move));
    h = mix(h, std::bit_cast<std::uint64_t>(cost));
  }
  return h;
}

/// Same walk, same answer: counters, engine tag, winning config, bitwise
/// wirelength and cost, positions and cost trace.
inline void expect_identical(const StitchResult& a, const StitchResult& b) {
  EXPECT_EQ(a.total_moves, b.total_moves);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.illegal, b.illegal);
  EXPECT_EQ(a.unplaced, b.unplaced);
  EXPECT_EQ(a.converge_move, b.converge_move);
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.restart_index, b.restart_index);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.wirelength),
            std::bit_cast<std::uint64_t>(b.wirelength));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cost),
            std::bit_cast<std::uint64_t>(b.cost));
  EXPECT_EQ(positions_hash(a), positions_hash(b));
  EXPECT_EQ(trace_hash(a), trace_hash(b));
}

}  // namespace mf::stitch_fixtures
