// The stitcher's placement components, each checked against a plain
// reference on seeded random inputs:
//
//   * OccupancyGrid region_free / fill / clear against a per-cell bool grid,
//     rectangles crossing 64-row word boundaries included;
//   * OccupancyGrid::first_free_row (the word-parallel column-run scan)
//     against a per-cell probe, at stride 1 and kBramRowPitch, over windows
//     starting mid-word and ending on the device's last row, with heights
//     past 64 rows;
//   * IndexedIdSet kth / size / contains against a std::set;
//   * PlacementState::first_free_anchor (column-run scan, lifting a placed
//     instance) against a per-anchor footprint probe of the positions, over
//     uniform, non-uniform and BRAM-pitch anchor runs, the last blocked off
//     the pitch, on the xc7z020 and xc7z045 grids;
//
// plus stitch_error itself: every injected fault in a legal result is
// reported.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/indexed_set.hpp"
#include "common/rng.hpp"
#include "fabric/catalog.hpp"
#include "stitch/occupancy.hpp"
#include "stitch/placement_state.hpp"
#include "stitch/sa_stitcher.hpp"
#include "stitch/verify.hpp"
#include "stitch_fixtures.hpp"

namespace mf {
namespace {

using namespace stitch_fixtures;

struct GridShape {
  int cols, rows;
  int max_h;  ///< tallest rectangle drawn
};

TEST(StitchState, OccupancyGridMatchesCellGrid) {
  for (const auto& [cols, rows, max_h] :
       {GridShape{150, 40, 6}, GridShape{64, 12, 6}, GridShape{5, 3, 6},
        GridShape{40, 150, 70}, GridShape{7, 200, 70}}) {
    OccupancyGrid grid(cols, rows);
    std::vector<char> cells(static_cast<std::size_t>(cols * rows), 0);
    auto cell = [&](int c, int r) -> char& {
      return cells[static_cast<std::size_t>(r * cols + c)];
    };
    Rng rng(static_cast<std::uint64_t>(cols));
    int free_probes = 0;
    int busy_probes = 0;
    int straddling = 0;
    for (int op = 0; op < 4000; ++op) {
      const int w = 1 + static_cast<int>(rng.index(
                            static_cast<std::size_t>(std::min(cols, 70))));
      const int h = 1 + static_cast<int>(rng.index(
                            static_cast<std::size_t>(std::min(rows, max_h))));
      const int col =
          static_cast<int>(rng.index(static_cast<std::size_t>(cols - w + 1)));
      const int row =
          static_cast<int>(rng.index(static_cast<std::size_t>(rows - h + 1)));
      if (row / 64 != (row + h - 1) / 64) ++straddling;
      switch (rng.index(4)) {
        case 0:
          grid.fill(col, row, w, h);
          for (int c = col; c < col + w; ++c) {
            for (int r = row; r < row + h; ++r) cell(c, r) = 1;
          }
          break;
        case 1:
          grid.clear(col, row, w, h);
          for (int c = col; c < col + w; ++c) {
            for (int r = row; r < row + h; ++r) cell(c, r) = 0;
          }
          break;
        default: {
          bool expected = true;
          for (int c = col; c < col + w; ++c) {
            for (int r = row; r < row + h; ++r) expected &= cell(c, r) == 0;
          }
          ASSERT_EQ(grid.region_free(col, row, w, h), expected)
              << cols << "x" << rows << " op " << op << " rect (" << col
              << ", " << row << ", " << w << ", " << h << ")";
          ++(expected ? free_probes : busy_probes);
        }
      }
    }
    for (int c = 0; c < cols; ++c) {
      for (int r = 0; r < rows; ++r) {
        EXPECT_EQ(grid.occupied(c, r), cell(c, r) != 0) << c << ", " << r;
      }
    }
    EXPECT_GT(free_probes, 0);
    EXPECT_GT(busy_probes, 0);
    if (rows > 64) {
      EXPECT_GT(straddling, 0);
    }
    grid.reset();
    EXPECT_TRUE(grid.region_free(0, 0, cols, rows));
  }
}

TEST(StitchState, FirstFreeRowMatchesCellProbe) {
  // Row counts: one exact word, a partial last word (xc7z020's 150) and
  // xc7z045's 250 (four words per column). Heights past 128 make the
  // doubling shift by whole words.
  for (const auto& [cols, rows, max_h] :
       {GridShape{6, 64, 40}, GridShape{9, 150, 140},
        GridShape{12, 250, 200}}) {
    OccupancyGrid grid(cols, rows);
    std::vector<char> cells(static_cast<std::size_t>(cols * rows), 0);
    auto cell = [&](int c, int r) -> char& {
      return cells[static_cast<std::size_t>(r * cols + c)];
    };
    auto paint = [&](int col, int row, int w, int h, char v) {
      for (int c = col; c < col + w; ++c) {
        for (int r = row; r < row + h; ++r) cell(c, r) = v;
      }
    };
    Rng rng(static_cast<std::uint64_t>(rows));
    int hits = 0, misses = 0, tall_hits = 0, word_shift_hits = 0;
    int pitched_hits = 0;
    int mid_word = 0, to_last_row = 0;
    for (int op = 0; op < 6000; ++op) {
      const int w = 1 + static_cast<int>(rng.index(
                            static_cast<std::size_t>(std::min(cols, 4))));
      const int col =
          static_cast<int>(rng.index(static_cast<std::size_t>(cols - w + 1)));
      const std::size_t kind = rng.index(10);
      if (kind < 2) {  // a short block
        const int h = 1 + static_cast<int>(rng.index(30));
        const int row = static_cast<int>(
            rng.index(static_cast<std::size_t>(rows - h + 1)));
        grid.fill(col, row, w, h);
        paint(col, row, w, h, 1);
        continue;
      }
      if (kind < 3) {  // a tall hole
        const int h = 1 + static_cast<int>(
                              rng.index(static_cast<std::size_t>(rows)));
        const int row = static_cast<int>(
            rng.index(static_cast<std::size_t>(rows - h + 1)));
        grid.clear(col, row, w, h);
        paint(col, row, w, h, 0);
        continue;
      }
      const int h = 1 + static_cast<int>(rng.index(
                            static_cast<std::size_t>(std::min(rows, max_h))));
      const int stride = rng.bernoulli(0.5) ? 1 : kBramRowPitch;
      const int row_lo = static_cast<int>(
          rng.index(static_cast<std::size_t>(rows - h + 1)));
      // A third of the windows end on the last row a footprint fits, a
      // third reach past it (the scan must not let it hang off the
      // device), a third end anywhere before.
      const std::size_t window = rng.index(3);
      const int row_hi =
          window == 0 ? rows - h
          : window == 1
              ? row_lo + static_cast<int>(rng.index(
                             static_cast<std::size_t>(rows - row_lo)))
              : row_lo + static_cast<int>(rng.index(
                             static_cast<std::size_t>(rows - h - row_lo + 1)));
      int expected = -1;
      for (int s = row_lo; s <= std::min(row_hi, rows - h) && expected < 0;
           s += stride) {
        bool free = true;
        for (int c = col; c < col + w; ++c) {
          for (int r = s; r < s + h; ++r) free = free && cell(c, r) == 0;
        }
        if (free) expected = s;
      }
      ASSERT_EQ(grid.first_free_row(col, w, h, row_lo, row_hi, stride),
                expected)
          << cols << "x" << rows << " op " << op << " col " << col << " w "
          << w << " h " << h << " rows [" << row_lo << ", " << row_hi
          << "] stride " << stride;
      ++(expected >= 0 ? hits : misses);
      tall_hits += expected >= 0 && h > 64 ? 1 : 0;
      word_shift_hits += expected >= 0 && h > 128 ? 1 : 0;
      pitched_hits += expected >= 0 && stride > 1 ? 1 : 0;
      mid_word +=
          row_lo % 64 != 0 && row_lo / 64 != (row_hi + h - 1) / 64 ? 1 : 0;
      to_last_row += row_hi + h >= rows ? 1 : 0;
    }
    for (int c = 0; c < cols; ++c) {
      for (int r = 0; r < rows; ++r) {
        ASSERT_EQ(grid.occupied(c, r), cell(c, r) != 0) << c << ", " << r;
      }
    }
    EXPECT_GT(hits, 0);
    EXPECT_GT(misses, 0);
    EXPECT_GT(pitched_hits, 0);
    EXPECT_GT(to_last_row, 0);
    if (rows > 64) {
      EXPECT_GT(mid_word, 0);
    }
    if (max_h > 64) {
      EXPECT_GT(tall_hits, 0);
    }
    if (max_h > 128) {
      EXPECT_GT(word_shift_hits, 0);
    }
  }
}

TEST(StitchState, IndexedIdSetMatchesStdSet) {
  for (const std::size_t universe : {1u, 2u, 5u, 64u, 65u, 200u}) {
    IndexedIdSet set(universe);
    std::set<int> ref;
    Rng rng(universe);
    for (int op = 0; op < 3000; ++op) {
      const int id = static_cast<int>(rng.index(universe));
      if (rng.bernoulli(0.55)) {
        set.insert(id);
        ref.insert(id);
      } else {
        set.erase(id);
        ref.erase(id);
      }
      if (op == 1500) {
        set.clear();
        ref.clear();
      }
      ASSERT_EQ(set.size(), static_cast<int>(ref.size()));
      ASSERT_EQ(set.empty(), ref.empty());
      ASSERT_EQ(set.contains(id), ref.count(id) == 1);
      if (op % 13 == 0 || universe <= 5) {
        int k = 0;
        for (const int member : ref) {
          ASSERT_EQ(set.kth(k++), member) << "universe " << universe;
        }
      }
    }
  }
}

/// The slow reference for first_free_anchor: the first anchor in [0, end)
/// whose whole footprint misses every cell of every other placed instance,
/// probed cell by cell.
int probe_first_free(const Device& dev, const PlacementContext& ctx,
                     const PlacementState& state, int instance,
                     std::size_t end) {
  const int cols = dev.num_columns();
  std::vector<char> cells(static_cast<std::size_t>(cols * dev.rows()), 0);
  const auto& positions = state.positions();
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (!positions[i].placed() || static_cast<int>(i) == instance) continue;
    const Footprint& fp = ctx.macro_of(static_cast<int>(i)).footprint;
    for (int c = positions[i].col; c < positions[i].col + fp.width(); ++c) {
      for (int r = positions[i].row; r < positions[i].row + fp.height; ++r) {
        cells[static_cast<std::size_t>(r * cols + c)] = 1;
      }
    }
  }
  const auto& anchors = ctx.anchors_of(instance);
  const Footprint& fp = ctx.macro_of(instance).footprint;
  for (std::size_t i = 0; i < std::min(end, anchors.size()); ++i) {
    bool free = true;
    for (int c = anchors[i].first; c < anchors[i].first + fp.width(); ++c) {
      for (int r = anchors[i].second; r < anchors[i].second + fp.height;
           ++r) {
        free = free && cells[static_cast<std::size_t>(r * cols + c)] == 0;
      }
    }
    if (free) return static_cast<int>(i);
  }
  return -1;
}

/// The generator's anchors with a seeded ~30% dropped and the rest
/// reversed: gaps make non-uniform runs, and the context must re-sort.
std::vector<std::vector<std::pair<int, int>>> gappy_anchors(
    const Device& dev, const StitchProblem& problem) {
  Rng rng(17);
  std::vector<std::vector<std::pair<int, int>>> lists;
  for (const Macro& macro : problem.macros) {
    std::vector<std::pair<int, int>> kept;
    for (const auto& anchor :
         compatible_anchors(dev, macro.footprint, macro.pblock.row_lo)) {
      if (!rng.bernoulli(0.3)) kept.push_back(anchor);
    }
    std::reverse(kept.begin(), kept.end());
    lists.push_back(std::move(kept));
  }
  return lists;
}

/// mixed_problem plus eight copies of a twin of its BRAM-bound macro that
/// is not BRAM-bound: the twin's anchors step by one row through the same
/// columns, so its copies block the BRAM macro's columns off the pitch.
StitchProblem anchor_scan_problem(const Device& dev) {
  StitchProblem problem = mixed_problem(dev);
  Macro twin = problem.macros[2];
  twin.name = "twin";
  twin.footprint.uses_bram_or_dsp = false;
  problem.macros.push_back(std::move(twin));
  for (int i = 0; i < 8; ++i) {
    problem.instances.push_back(BlockInstance{"t" + std::to_string(i), 3});
  }
  return problem;
}

/// first_free_anchor against probe_first_free on anchor_scan_problem(dev),
/// with the generator's anchors and with gappy ones, over seeded placements
/// and prefixes.
void expect_scan_matches_probe(const Device& dev) {
  const StitchProblem problem = anchor_scan_problem(dev);
  const int n = static_cast<int>(problem.instances.size());
  const PlacementContext generated(dev, problem);
  const PlacementContext gappy(dev, problem, gappy_anchors(dev, problem));

  for (const PlacementContext* ctx : {&generated, &gappy}) {
    int non_uniform = 0;
    int pitched = 0;
    for (int inst = 0; inst < n; ++inst) {
      for (const auto& run : ctx->runs_of(inst)) {
        non_uniform += run.uniform ? 0 : 1;
        pitched += run.uniform && run.stride == kBramRowPitch ? 1 : 0;
      }
    }
    if (ctx == &generated) {
      EXPECT_GT(pitched, 0);
    } else {
      EXPECT_GT(non_uniform, 0);
    }

    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      PlacementState state(*ctx);
      Rng rng(seed);
      // Crowd the leftmost anchors so scans over short prefixes both hit
      // and miss; about a quarter of the instances stay unplaced.
      auto random_anchor = [&](int inst) {
        const auto& anchors = ctx->anchors_of(inst);
        return anchors[rng.index(std::min<std::size_t>(anchors.size(), 300))];
      };
      for (int inst = 0; inst < n; ++inst) {
        if (rng.bernoulli(0.25)) continue;
        for (int attempt = 0; attempt < 4; ++attempt) {
          const auto [col, row] = random_anchor(inst);
          if (state.try_place(inst, col, row)) break;
        }
      }
      int lifted = 0, parked = 0, hits = 0, misses = 0;
      for (int round = 0; round < 300; ++round) {
        const int inst = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
        const std::size_t size = ctx->anchors_of(inst).size();
        const std::size_t end = rng.index(std::min<std::size_t>(size, 400) + 1);
        const int expected = probe_first_free(dev, *ctx, state, inst, end);
        SCOPED_TRACE("seed " + std::to_string(seed) + " round " +
                     std::to_string(round) + " instance " +
                     std::to_string(inst) + " end " + std::to_string(end));
        ASSERT_EQ(state.first_free_anchor(inst, end), expected);
        // The same call again (the lifted probe must leave the state as it
        // found it), then a shorter and a longer prefix.
        ASSERT_EQ(state.first_free_anchor(inst, end), expected);
        const std::size_t shorter = rng.index(end + 1);
        ASSERT_EQ(state.first_free_anchor(inst, shorter),
                  probe_first_free(dev, *ctx, state, inst, shorter));
        const std::size_t longer = std::min(size, end + rng.index(60));
        ASSERT_EQ(state.first_free_anchor(inst, longer),
                  probe_first_free(dev, *ctx, state, inst, longer));
        ++(state.positions()[static_cast<std::size_t>(inst)].placed()
               ? lifted
               : parked);
        ++(expected >= 0 ? hits : misses);
        // Commit a random move or placement every other round.
        if (round % 2 == 0) {
          const int other =
              static_cast<int>(rng.index(static_cast<std::size_t>(n)));
          const auto [col, row] = random_anchor(other);
          if (state.positions()[static_cast<std::size_t>(other)].placed()) {
            (void)state.try_move(other, col, row);
          } else {
            (void)state.try_place(other, col, row);
          }
        }
      }
      EXPECT_GT(lifted, 0);
      EXPECT_GT(parked, 0);
      EXPECT_GT(hits, 0);
      EXPECT_GT(misses, 0);
    }
  }
}

TEST(StitchState, FirstFreeAnchorMatchesPerAnchorProbe) {
  for (const Device& dev : {xc7z020_model(), xc7z045_model()}) {
    SCOPED_TRACE(dev.name());
    expect_scan_matches_probe(dev);
  }
}

TEST(StitchVerify, ReportsEveryInjectedFault) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  const StitchResult legal = stitch(dev, problem, golden_opts(1));
  ASSERT_FALSE(stitch_error(dev, problem, legal));
  ASSERT_EQ(legal.unplaced, 0);

  auto expect_fault = [&](const std::string& report, auto&& mutate) {
    StitchResult r = legal;
    mutate(r);
    const auto error = stitch_error(dev, problem, r);
    ASSERT_TRUE(error) << "undetected: " << report;
    EXPECT_NE(error->find(report), std::string::npos) << *error;
  };

  // Instances 0-19 share the "small" macro, 30-35 the BRAM-bound one.
  expect_fault("share cell",
               [](StitchResult& r) { r.positions[1] = r.positions[0]; });
  expect_fault("does not fit", [&](StitchResult& r) {
    // The first column whose kinds do not match the footprint, same row.
    const Macro& small = problem.macros[0];
    BlockPlacement& p = r.positions[0];
    int col = 0;
    while (footprint_fits(dev, small.footprint, col, p.row,
                          small.pblock.row_lo)) {
      ++col;
    }
    ASSERT_LE(col + small.footprint.width(), dev.num_columns());
    p.col = col;
  });
  expect_fault("does not fit", [&](StitchResult& r) {
    const Macro& brammy = problem.macros[2];
    ASSERT_TRUE(brammy.footprint.uses_bram_or_dsp);
    BlockPlacement& p = r.positions[30];
    p.row += p.row + 1 + brammy.footprint.height <= dev.rows() ? 1 : -1;
  });
  expect_fault("positions for",
               [](StitchResult& r) { r.positions.pop_back(); });
  expect_fault("unplaced instances", [](StitchResult& r) { ++r.unplaced; });
  expect_fault("unplaced instances",
               [](StitchResult& r) { r.positions[5] = BlockPlacement{}; });
  const double inf = std::numeric_limits<double>::infinity();
  expect_fault("wirelength differs", [&](StitchResult& r) {
    r.wirelength = std::nextafter(r.wirelength, inf);
  });
  expect_fault("wirelength differs", [&](StitchResult& r) {
    r.wirelength = std::nextafter(r.wirelength, -inf);
  });
  expect_fault("cost is not",
               [&](StitchResult& r) { r.cost = std::nextafter(r.cost, inf); });
  expect_fault("cost is not",
               [&](StitchResult& r) { r.cost = std::nextafter(r.cost, -inf); });
}

}  // namespace
}  // namespace mf
