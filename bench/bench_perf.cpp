// google-benchmark microbenchmarks over the library's computational kernels:
// module realisation + synthesis, PBlock generation, detailed placement,
// routability estimation, minimal-CF search, forest training and stitching
// (a constant-CF cnvW1A1 problem, and the cnv workloads' min-CF ones).
// These quantify the "rapid" in rapid prototyping: one full feasibility
// check runs in ~1 ms, which is what makes exhaustive CF sweeps and
// dataset-scale labelling practical on a laptop.

#include <benchmark/benchmark.h>

#include "core/cf_search.hpp"
#include "fabric/catalog.hpp"
#include "flow/ground_truth.hpp"
#include "flow/rw_flow.hpp"
#include "ml/rforest.hpp"
#include "nn/cnv_w1a1.hpp"
#include "rtlgen/generators.hpp"
#include "stitch/sa_stitcher.hpp"
#include "synth/optimize.hpp"

namespace {

using namespace mf;

struct Prepared {
  Module module;
  ResourceReport report;
  ShapeReport shape;
};

Prepared prepared_module(int luts) {
  Rng rng(1);
  MixedParams params;
  params.luts = luts;
  params.ffs = luts;
  params.carry_adders = 2;
  params.control_sets = 4;
  Prepared p{gen_mixed(params, rng), {}, {}};
  optimize(p.module.netlist);
  p.report = make_report(p.module.netlist);
  p.shape = quick_place(p.report);
  return p;
}

void BM_RealizeAndSynthesize(benchmark::State& state) {
  Rng rng(1);
  MixedParams params;
  params.luts = static_cast<int>(state.range(0));
  params.ffs = params.luts;
  for (auto _ : state) {
    Module m = gen_mixed(params, rng);
    optimize(m.netlist);
    benchmark::DoNotOptimize(make_report(m.netlist).est_slices);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RealizeAndSynthesize)->Arg(100)->Arg(1000)->Arg(4000);

void BM_GeneratePBlock(benchmark::State& state) {
  const Device dev = xc7z020_model();
  const Prepared p = prepared_module(800);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_pblock(dev, p.report, p.shape, 1.2));
  }
}
BENCHMARK(BM_GeneratePBlock);

void BM_DetailedPlace(benchmark::State& state) {
  const Device dev = xc7z020_model();
  const Prepared p = prepared_module(static_cast<int>(state.range(0)));
  const auto pb = generate_pblock(dev, p.report, p.shape, 1.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        place_in_pblock(p.module, p.report, dev, *pb, {}).feasible);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(p.module.netlist.num_cells()));
}
BENCHMARK(BM_DetailedPlace)->Arg(200)->Arg(2000);

void BM_MinCfSearch(benchmark::State& state) {
  const Device dev = xc7z020_model();
  const Prepared p = prepared_module(500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        find_min_cf(p.module, p.report, p.shape, dev).min_cf);
  }
}
BENCHMARK(BM_MinCfSearch);

void BM_ForestTrain(benchmark::State& state) {
  // Small synthetic regression task; trees scale linearly.
  Rng rng(3);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 800; ++i) {
    std::vector<double> row(8);
    for (double& v : row) v = rng.uniform();
    x.push_back(row);
    y.push_back(row[0] * 0.5 + row[3] + 0.9);
  }
  RForestOptions opts;
  opts.trees = static_cast<int>(state.range(0));
  for (auto _ : state) {
    RandomForest forest;
    forest.fit(x, y, opts);
    benchmark::DoNotOptimize(forest.tree_count());
  }
}
BENCHMARK(BM_ForestTrain)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_StitchCnv(benchmark::State& state) {
  // Stitch the pre-implemented cnvW1A1 (macros built once outside the loop).
  const Device dev = xc7z020_model();
  static const StitchProblem problem = [] {
    const Device d = xc7z020_model();
    const CnvDesign design = build_cnv_w1a1();
    RwFlowOptions opts;
    opts.compute_timing = false;
    opts.run_stitch = false;
    CfPolicy policy;
    policy.constant_cf = 1.2;
    return run_rw_flow(design, d, policy, opts).problem;
  }();
  StitchOptions opts;
  opts.moves_per_temp = 400;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stitch(dev, problem, opts).cost);
  }
}
BENCHMARK(BM_StitchCnv)->Unit(benchmark::kMillisecond);

/// cnvW1A1 at per-block minimal CF: the problem the cnv workloads stitch.
StitchProblem cnv_min_cf_problem(const Device& dev) {
  RwFlowOptions opts;
  opts.compute_timing = false;
  opts.run_stitch = false;
  opts.jobs = 1;
  CfPolicy policy;
  policy.mode = CfPolicy::Mode::MinSearch;
  return run_rw_flow(build_cnv_w1a1(), dev, policy, opts).problem;
}

/// The cnv workloads' stitch with default options and anneal seed 100 (the
/// problems built once): arg 0 stitches on the overfull xc7z020, where 78
/// blocks stay parked, arg 1 on the xc7z045.
void BM_StitchCnvMinCf(benchmark::State& state) {
  static const Device devices[] = {xc7z020_model(), xc7z045_model()};
  static const StitchProblem problems[] = {cnv_min_cf_problem(devices[0]),
                                           cnv_min_cf_problem(devices[1])};
  const auto i = static_cast<std::size_t>(state.range(0));
  StitchOptions opts;
  opts.seed = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stitch(devices[i], problems[i], opts).cost);
  }
  state.SetLabel(devices[i].name());
}
BENCHMARK(BM_StitchCnvMinCf)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
