// Output digest of the feasibility oracle (PBlock generation -> packing ->
// routability), pinned over the inputs the paper labels: the 2,000-module
// dataset sweep on xc7z020 and the 74 unique cnvW1A1 blocks on both model
// devices. A speed-up of the oracle must leave every digest unchanged; a
// change that moves one must update the constant together with an
// explanation in EXPERIMENTS.md.
//
// Each search is folded into a 64-bit FNV-1a digest of: found, the min CF's
// bit pattern, tool runs, the PBlock, used slices, every cell position, and
// the route estimate (peak and mean bits, grid origin and size, every
// demand cell's bits). The searches fan out over MF_TEST_JOBS workers
// (default 1; ctest's oracle_digest_jobs reruns at 8) and are folded in
// index order, so the digest does not depend on the thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/cf_search.hpp"
#include "fabric/catalog.hpp"
#include "nn/cnv_w1a1.hpp"
#include "rtlgen/sweep.hpp"
#include "synth/optimize.hpp"

namespace mf {
namespace {

int digest_jobs() {
  const char* env = std::getenv("MF_TEST_JOBS");
  return env != nullptr ? std::max(1, std::atoi(env)) : 1;
}

/// FNV-1a over fixed-width little-endian words.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add_int(std::int64_t value) { add(static_cast<std::uint64_t>(value)); }
  void add_double(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t digest_search(const Module& original, const Device& device,
                            const CfSearchOptions& search) {
  Module module = original;
  optimize(module.netlist);
  const ResourceReport report = make_report(module.netlist);
  const ShapeReport shape = quick_place(report);
  const CfSearchResult r = find_min_cf(module, report, shape, device, search);

  Digest d;
  d.add_int(r.found ? 1 : 0);
  d.add_double(r.min_cf);
  d.add_int(r.tool_runs);
  d.add_int(r.pblock.col_lo);
  d.add_int(r.pblock.col_hi);
  d.add_int(r.pblock.row_lo);
  d.add_int(r.pblock.row_hi);
  d.add_int(r.place.used_slices);
  d.add_int(static_cast<std::int64_t>(r.place.placement.size()));
  for (const CellPlacement& p : r.place.placement) {
    d.add_int(p.col);
    d.add_int(p.row);
  }
  const RouteEstimate& route = r.place.route;
  d.add_double(route.peak);
  d.add_double(route.mean);
  d.add_int(route.grid_w);
  d.add_int(route.grid_h);
  d.add_int(route.col0);
  d.add_int(route.row0);
  d.add_int(static_cast<std::int64_t>(route.demand.size()));
  for (double demand : route.demand) d.add_double(demand);
  return d.value();
}

/// Digest `count` searches (task `i` calls `search_one(i)`), folded in index
/// order.
template <typename SearchOne>
std::uint64_t fold_searches(std::size_t count, const SearchOne& search_one) {
  std::vector<std::uint64_t> per_task(count, 0);
  parallel_for_each(digest_jobs(), count,
                    [&](std::size_t i) { per_task[i] = search_one(i); });
  Digest folded;
  folded.add(count);
  for (std::uint64_t task : per_task) folded.add(task);
  return folded.value();
}

std::uint64_t cnv_digest(const Device& device) {
  static const CnvDesign design = build_cnv_w1a1();
  EXPECT_EQ(design.unique_modules.size(),
            static_cast<std::size_t>(kCnvUniqueBlocks));
  // run_rw_flow's MinSearch policy: start at 0.5 to expose the
  // hard-block-dominated minima.
  CfSearchOptions search;
  search.start = 0.5;
  return fold_searches(design.unique_modules.size(), [&](std::size_t i) {
    return digest_search(design.unique_modules[i], device, search);
  });
}

TEST(OracleDigest, DatasetSweepOnXc7z020) {
  const std::vector<GenSpec> specs = dataset_sweep({2000, 42});
  ASSERT_EQ(specs.size(), 2000u);
  const Device device = xc7z020_model();
  // build_ground_truth's labelling search: the paper's start of 0.9.
  const CfSearchOptions search;
  const std::uint64_t digest = fold_searches(specs.size(), [&](std::size_t i) {
    return digest_search(realize(specs[i]), device, search);
  });
  EXPECT_EQ(hex(digest), "0x6e4f617e26d7f2bf");
}

TEST(OracleDigest, CnvBlocksOnXc7z020) {
  EXPECT_EQ(hex(cnv_digest(xc7z020_model())), "0x80d07febf6a886d7");
}

TEST(OracleDigest, CnvBlocksOnXc7z045) {
  EXPECT_EQ(hex(cnv_digest(xc7z045_model())), "0x547e5df9df252d82");
}

}  // namespace
}  // namespace mf
