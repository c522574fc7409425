// The batch workloads: the cnvW1A1 flow on two devices and the train recipe.
//
// The timed runs call the public entry points exactly as `macroflow cnv` and
// `macroflow train` do (run_rw_flow, train_bundle). A traced run replays the
// same work from the layers' public functions -- generate_pblock,
// place_in_pblock with the routability check split out into an explicit
// estimate_routability, stitch, CfEstimator::train -- records a span around
// each call, and asserts the replay reproduces the real call exactly.

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/cf_search.hpp"
#include "fabric/catalog.hpp"
#include "fabric/pblock.hpp"
#include "flow/ground_truth.hpp"
#include "flow/rw_flow.hpp"
#include "ml/metrics.hpp"
#include "nn/cnv_w1a1.hpp"
#include "route/routability.hpp"
#include "rtlgen/sweep.hpp"
#include "serve/trainer.hpp"
#include "synth/optimize.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

using namespace mf;

// -- traced replay of the CF search ------------------------------------------

/// Work counted at the layer boundaries of a traced replay.
struct LayerCounts {
  long searches = 0;
  long tool_runs = 0;
  long feasible = 0;
  long pblock_calls = 0;
  long pblock_distinct = 0;
  long pack_calls = 0;
  long pack_fail = 0;
  long route_calls = 0;
  long congestion_fail = 0;
  long cells_out = 0;
};

/// find_min_cf, call for call: the same upward sweep and PBlock dedupe, with
/// the placer's routability verdict computed by an explicit
/// estimate_routability call so packing and routability are timed apart.
CfSearchResult traced_find_min_cf(const Module& module,
                                  const ResourceReport& report,
                                  const ShapeReport& shape,
                                  const Device& device,
                                  const CfSearchOptions& opts, Tracer& tracer,
                                  LayerCounts& counts) {
  const Tracer::Scope span(tracer, "core.cf_search");
  ++counts.searches;
  DetailedPlaceOptions pack_only = opts.place;
  pack_only.check_routability = false;
  CfSearchResult result;
  PBlock last_tried;
  bool last_feasible = false;
  for (double cf = opts.start; cf <= opts.max_cf + 1e-9; cf += opts.step) {
    std::optional<PBlock> pb;
    {
      const Tracer::Scope s(tracer, "core.pblock");
      pb = generate_pblock(device, report, shape, cf, opts.pblock);
    }
    ++counts.pblock_calls;
    if (!pb) continue;
    if (opts.dedupe_pblocks && !last_tried.empty() && *pb == last_tried) {
      if (last_feasible) {
        result.min_cf = cf;
        return result;
      }
      continue;
    }
    ++counts.pblock_distinct;
    last_tried = *pb;
    PlaceResult place;
    {
      const Tracer::Scope s(tracer, "place.pack");
      place = place_in_pblock(module, report, device, *pb, pack_only);
    }
    ++counts.pack_calls;
    if (place.feasible) {
      const Tracer::Scope s(tracer, "route.routability");
      place.route = estimate_routability(module.netlist, place.placement, *pb,
                                         opts.place.route);
      ++counts.route_calls;
      if (!place.route.routable) {
        place.feasible = false;
        place.fail_reason = "congestion";
        ++counts.congestion_fail;
      }
    } else {
      ++counts.pack_fail;
    }
    ++result.tool_runs;
    ++counts.tool_runs;
    last_feasible = place.feasible;
    if (place.feasible) {
      ++counts.feasible;
      result.found = true;
      result.min_cf = cf;
      result.pblock = *pb;
      result.place = std::move(place);
      return result;
    }
  }
  return result;
}

/// Synthesize a private copy of `module` and derive its reports, each step
/// in its own span.
struct Synthesized {
  Module module;
  ResourceReport report;
  ShapeReport shape;
};

Synthesized traced_synthesize(const Module& module, Tracer& tracer,
                              LayerCounts& counts) {
  Synthesized out{module, {}, {}};
  {
    const Tracer::Scope s(tracer, "synth.optimize");
    optimize(out.module.netlist);
  }
  counts.cells_out += static_cast<long>(out.module.netlist.num_cells());
  {
    const Tracer::Scope s(tracer, "synth.report");
    out.report = make_report(out.module.netlist);
  }
  {
    const Tracer::Scope s(tracer, "place.quick");
    out.shape = quick_place(out.report);
  }
  return out;
}

/// Self seconds and counts of one traced replay, plus its wall time.
struct Replay {
  Tracer tracer;
  LayerCounts counts;
  double seconds = 0.0;
};

/// Per-layer metrics over the replays: each layer's median self time, and
/// the counts (identical in every replay, the replays being deterministic).
/// Replay r ran between untraced runs r and r + 1, so its tracing cost is
/// taken against their mean, which cancels a machine speed that drifts
/// during the run.
void report_layers(const std::vector<Replay>& replays,
                   const std::vector<double>& untraced_s, Report& report) {
  std::map<std::string, std::vector<double>> self;
  std::vector<double> replay_s;
  std::vector<double> overhead_s;
  std::vector<double> self_ratio;
  for (std::size_t r = 0; r < replays.size(); ++r) {
    const double around = (untraced_s[r] + untraced_s[r + 1]) / 2.0;
    double self_sum = 0.0;
    for (const auto& [name, s] : replays[r].tracer.self_seconds()) {
      self[name].push_back(s);
      self_sum += s;
    }
    replay_s.push_back(replays[r].seconds);
    overhead_s.push_back(replays[r].seconds - around);
    self_ratio.push_back(self_sum / around);
  }
  const auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second);
  };
  for (const char* layer :
       {"rtlgen.realize", "synth.optimize", "synth.report", "place.quick",
        "core.cf_search", "core.pblock", "place.pack", "route.routability",
        "stitch"}) {
    report.set(std::string(layer) + ".s", self_of(layer));
  }
  report.set("flow.self_s", self_of("flow"));
  report.set("train.self_s", self_of("train"));
  report.set("ml.features_s", self_of("ml.features"));
  report.set("ml.balance_s", self_of("ml.balance"));
  report.set("ml.split_s", self_of("ml.split"));
  report.set("ml.fit_s", self_of("ml.fit"));
  report.set("ml.predict_s", self_of("ml.predict"));

  const LayerCounts& c = replays.front().counts;
  const auto ratio = [](long num, long den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  report.set("synth.optimize.cells_out", static_cast<double>(c.cells_out));
  report.set("core.cf_search.calls", static_cast<double>(c.searches));
  report.set("core.cf_search.tool_runs", static_cast<double>(c.tool_runs));
  report.set("core.cf_search.feasible_ratio", ratio(c.feasible, c.tool_runs));
  report.set("core.pblock.calls", static_cast<double>(c.pblock_calls));
  report.set("core.pblock.distinct_ratio",
             ratio(c.pblock_distinct, c.pblock_calls));
  report.set("place.pack.calls", static_cast<double>(c.pack_calls));
  report.set("place.pack.fail", static_cast<double>(c.pack_fail));
  report.set("route.routability.calls", static_cast<double>(c.route_calls));
  report.set("route.routability.congestion_fail",
             static_cast<double>(c.congestion_fail));

  report.set("trace.untraced_s", median(untraced_s));
  report.set("trace.replay_s", median(replay_s));
  report.set("trace.overhead_s", median(overhead_s));
  report.set("trace.self_sum_ratio", median(self_ratio));
  report.set("trace.spans", static_cast<double>(replays.front().tracer.size()));
}

void write_trace(const RunConfig& cfg, const Tracer& tracer, Report& report) {
  report.check(tracer.write_chrome_json(cfg.trace_out),
               "cannot write trace file " + cfg.trace_out);
}

// -- cnvW1A1 flow ---------------------------------------------------------------

/// `macroflow cnv`'s flow options (timing off, one worker) with the given
/// anneal seed.
RwFlowOptions cnv_options(std::uint64_t stitch_seed) {
  RwFlowOptions opts;
  opts.compute_timing = false;
  opts.jobs = 1;
  opts.stitch.seed = stitch_seed;
  return opts;
}

CfPolicy min_search() {
  CfPolicy policy;
  policy.mode = CfPolicy::Mode::MinSearch;
  return policy;
}

/// Everything a flow run produced that a repeat must reproduce bit for bit.
struct FlowSignature {
  std::vector<double> block_cf;  ///< -1 for a failed block
  std::vector<int> block_runs;
  int tool_runs = 0;
  double cost = 0.0;
  int unplaced = 0;
  std::vector<int> positions;  ///< col, row per instance
  friend bool operator==(const FlowSignature&, const FlowSignature&) = default;

  [[nodiscard]] bool same_blocks(const FlowSignature& other) const {
    return block_cf == other.block_cf && block_runs == other.block_runs &&
           tool_runs == other.tool_runs;
  }
};

/// The stitch half of a signature; the caller has filled in the blocks.
FlowSignature finish_signature(FlowSignature sig, int tool_runs,
                               const StitchResult& stitch) {
  sig.tool_runs = tool_runs;
  sig.cost = stitch.cost;
  sig.unplaced = stitch.unplaced;
  for (const BlockPlacement& p : stitch.positions) {
    sig.positions.push_back(p.col);
    sig.positions.push_back(p.row);
  }
  return sig;
}

FlowSignature signature_of(const RwFlowResult& result) {
  FlowSignature sig;
  for (const ImplementedBlock& block : result.blocks) {
    sig.block_cf.push_back(block.ok() ? block.macro.cf : -1.0);
    sig.block_runs.push_back(block.macro.tool_runs);
  }
  return finish_signature(std::move(sig), result.total_tool_runs,
                          result.stitch);
}

/// Independent check of a stitch result: every placed macro sits on a
/// legal anchor inside the device, no two overlap, the unplaced count
/// matches the positions, and the cost is wirelength plus the penalty.
std::optional<std::string> placement_error(const Device& device,
                                           const StitchProblem& problem,
                                           const StitchResult& stitch) {
  if (stitch.positions.size() != problem.instances.size()) {
    return "one position per instance expected";
  }
  const int cols = device.num_columns();
  std::vector<int> owner(static_cast<std::size_t>(cols) * device.rows(), -1);
  int unplaced = 0;
  for (std::size_t i = 0; i < stitch.positions.size(); ++i) {
    const BlockPlacement& p = stitch.positions[i];
    if (!p.placed()) {
      ++unplaced;
      continue;
    }
    const Macro& macro =
        problem.macros[static_cast<std::size_t>(problem.instances[i].macro)];
    const Footprint& fp = macro.footprint;
    if (!footprint_fits(device, fp, p.col, p.row, macro.pblock.row_lo)) {
      return "instance " + problem.instances[i].name + " on an illegal anchor";
    }
    for (int c = p.col; c < p.col + fp.width(); ++c) {
      for (int r = p.row; r < p.row + fp.height; ++r) {
        int& cell = owner[static_cast<std::size_t>(r) * cols + c];
        if (cell >= 0) {
          return "instances " + problem.instances[i].name + " and " +
                 problem.instances[static_cast<std::size_t>(cell)].name +
                 " overlap";
        }
        cell = static_cast<int>(i);
      }
    }
  }
  if (unplaced != stitch.unplaced) return "unplaced count disagrees";
  const double penalty = 4.0 * (device.num_columns() + device.rows());
  if (stitch.cost != stitch.wirelength + penalty * stitch.unplaced) {
    return "cost is not wirelength + unplaced penalty";
  }
  return std::nullopt;
}

/// The replayed flow: run_rw_flow in MinSearch mode, from its layers.
struct ReplayedFlow {
  std::vector<bool> ok;
  std::vector<Macro> macros;
  int tool_runs = 0;
  StitchProblem problem;
  StitchResult stitch;
};

ReplayedFlow traced_cnv_flow(const BlockDesign& design, const Device& device,
                             const RwFlowOptions& opts, Replay& replay) {
  Tracer& tracer = replay.tracer;
  const Tracer::Scope root(tracer, "flow");
  ReplayedFlow flow;
  const std::size_t n = design.unique_modules.size();
  flow.ok.assign(n, false);
  flow.macros.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Synthesized s =
        traced_synthesize(design.unique_modules[i], tracer, replay.counts);
    CfSearchOptions search = opts.search;
    search.start = 0.5;  // run_rw_flow's MinSearch start
    const CfSearchResult found = traced_find_min_cf(
        s.module, s.report, s.shape, device, search, tracer, replay.counts);
    Macro& macro = flow.macros[i];
    macro.tool_runs = found.tool_runs;
    flow.tool_runs += found.tool_runs;
    if (!found.found) continue;
    flow.ok[i] = true;
    macro.name = s.module.name;
    macro.pblock = found.pblock;
    macro.footprint =
        footprint_of(device, found.pblock, s.report.uses_bram_or_dsp());
    macro.used_slices = found.place.used_slices;
    macro.est_slices = s.report.est_slices;
    macro.cf = found.min_cf;
    macro.fill_ratio = found.place.fill_ratio;
  }
  // The stitch problem over the implemented blocks, nets re-mapped onto the
  // surviving instances.
  std::vector<int> macro_index(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (!flow.ok[i]) continue;
    macro_index[i] = static_cast<int>(flow.problem.macros.size());
    flow.problem.macros.push_back(flow.macros[i]);
  }
  std::vector<int> inst_map(design.instances.size(), -1);
  for (std::size_t i = 0; i < design.instances.size(); ++i) {
    const int m =
        macro_index[static_cast<std::size_t>(design.instances[i].macro)];
    if (m < 0) continue;
    inst_map[i] = static_cast<int>(flow.problem.instances.size());
    flow.problem.instances.push_back({design.instances[i].name, m});
  }
  for (const BlockNet& net : design.nets) {
    BlockNet mapped;
    mapped.weight = net.weight;
    for (const int inst : net.instances) {
      const int m = inst_map[static_cast<std::size_t>(inst)];
      if (m >= 0) mapped.instances.push_back(m);
    }
    if (mapped.instances.size() >= 2) flow.problem.nets.push_back(mapped);
  }
  const Tracer::Scope s(tracer, "stitch");
  flow.stitch = stitch(device, flow.problem, opts.stitch);
  return flow;
}

FlowSignature signature_of(const ReplayedFlow& flow) {
  FlowSignature sig;
  for (std::size_t i = 0; i < flow.ok.size(); ++i) {
    sig.block_cf.push_back(flow.ok[i] ? flow.macros[i].cf : -1.0);
    sig.block_runs.push_back(flow.macros[i].tool_runs);
  }
  return finish_signature(std::move(sig), flow.tool_runs, flow.stitch);
}

void trace_cnv(const RunConfig& cfg, const BlockDesign& design,
               const Device& device, std::uint64_t stitch_seed,
               Report& report) {
  const RwFlowOptions opts = cnv_options(stitch_seed);
  (void)run_rw_flow(design, device, min_search(), opts);  // warm-up
  std::vector<double> untraced_s;
  std::optional<FlowSignature> real;
  const auto untraced = [&] {
    const Clock::time_point t0 = Clock::now();
    const RwFlowResult result =
        run_rw_flow(design, device, min_search(), opts);
    untraced_s.push_back(seconds_since(t0));
    real = signature_of(result);
  };
  untraced();
  std::vector<Replay> replays(cfg.quick ? 1 : 5);
  StitchResult stitch_stats;
  for (Replay& replay : replays) {
    const Clock::time_point t0 = Clock::now();
    const ReplayedFlow flow = traced_cnv_flow(design, device, opts, replay);
    replay.seconds = seconds_since(t0);
    report.attempt(*real == signature_of(flow),
                   "traced replay differs from run_rw_flow");
    const auto error = placement_error(device, flow.problem, flow.stitch);
    report.check(!error, "replayed stitch: " + error.value_or(""));
    stitch_stats = flow.stitch;
    untraced();
  }
  report_layers(replays, untraced_s, report);
  const auto moves = static_cast<double>(stitch_stats.total_moves);
  std::vector<double> stitch_s;
  for (const Replay& replay : replays) {
    stitch_s.push_back(replay.tracer.self_seconds().at("stitch"));
  }
  report.set("stitch.moves", moves);
  report.set("stitch.moves_per_s", moves / median(stitch_s));
  report.set("stitch.accept_ratio",
             static_cast<double>(stitch_stats.accepted) / moves);
  report.set("stitch.illegal_ratio",
             static_cast<double>(stitch_stats.illegal) / moves);
  report.set("stitch.converge_move",
             static_cast<double>(stitch_stats.converge_move));
  report.set("stitch.unplaced", static_cast<double>(stitch_stats.unplaced));
  write_trace(cfg, replays.back().tracer, report);
}

// -- train recipe ---------------------------------------------------------------

constexpr int kSweepModules = 2000;
constexpr std::uint64_t kSweepSeed = 42;

/// `macroflow train --seed <estimator_seed>`'s recipe: the canonical
/// 2,000-module sweep and a default-sized random forest on every feature.
TrainSpec train_spec(std::uint64_t estimator_seed, int jobs,
                     int modules = kSweepModules) {
  TrainSpec spec;
  spec.name = "bench";
  spec.kind = EstimatorKind::RandomForest;
  spec.features = FeatureSet::All;
  spec.dataset_count = modules;
  spec.dataset_seed = kSweepSeed;
  spec.options.seed = estimator_seed;
  spec.options.rforest.trees = kForestTrees;
  spec.options.rforest.seed = task_seed(estimator_seed, "cli:rforest");
  spec.jobs = jobs;
  return spec;
}

/// The k-th estimator seed of a run.
std::uint64_t estimator_seed(std::uint64_t seed, int k) {
  return task_seed(seed, "estimator:" + std::to_string(k));
}

/// What train_bundle does after labelling -- balance, split, fit, score the
/// holdout -- from its layers, each step in its own span.
BundleProvenance fit_holdout(const TrainSpec& spec,
                             const std::vector<LabeledModule>& samples,
                             Tracer& tracer) {
  Dataset data;
  {
    const Tracer::Scope s(tracer, "ml.features");
    data = make_dataset(spec.features, samples);
  }
  Dataset balanced;
  {
    const Tracer::Scope s(tracer, "ml.balance");
    Rng rng(task_seed(spec.options.seed, "serve:balance"));
    balanced = balance_by_target(data, spec.bin_width, spec.bin_cap, rng);
  }
  Dataset train;
  Dataset holdout;
  {
    const Tracer::Scope s(tracer, "ml.split");
    Rng rng(task_seed(spec.options.seed, "serve:split"));
    std::tie(train, holdout) =
        train_test_split(balanced, spec.train_fraction, rng);
  }
  CfEstimator::Options options = spec.options;
  options.rforest.jobs = spec.jobs;
  CfEstimator estimator(spec.kind, spec.features, options);
  {
    const Tracer::Scope s(tracer, "ml.fit");
    estimator.train(train);
  }
  BundleProvenance p;
  p.dataset_rows = static_cast<std::int64_t>(train.size());
  p.holdout_rows = static_cast<std::int64_t>(holdout.size());
  const Tracer::Scope s(tracer, "ml.predict");
  p.holdout_mean_rel_err =
      mean_relative_error(estimator.predict_rows(holdout.x), holdout.y);
  return p;
}

/// train_bundle at jobs=1, from its layers.
BundleProvenance traced_train(const TrainSpec& spec, const Device& device,
                              Replay& replay) {
  Tracer& tracer = replay.tracer;
  const Tracer::Scope root(tracer, "train");
  std::vector<LabeledModule> samples;
  for (const GenSpec& gen : dataset_sweep({spec.dataset_count,
                                           spec.dataset_seed})) {
    std::optional<Module> realized;
    {
      const Tracer::Scope s(tracer, "rtlgen.realize");
      realized = realize(gen);
    }
    const Synthesized s = traced_synthesize(*realized, tracer, replay.counts);
    const CfSearchResult found = traced_find_min_cf(
        s.module, s.report, s.shape, device, {}, tracer, replay.counts);
    if (found.found) {
      samples.push_back({s.module.name, s.report, s.shape, found.min_cf});
    }
  }
  return fit_holdout(spec, samples, tracer);
}

bool same_provenance(const BundleProvenance& a, const BundleProvenance& b) {
  return a.dataset_rows == b.dataset_rows && a.holdout_rows == b.holdout_rows &&
         a.holdout_mean_rel_err == b.holdout_mean_rel_err;
}

void trace_train(const RunConfig& cfg, const Device& device, Report& report) {
  const TrainSpec spec = train_spec(estimator_seed(cfg.seed, 0), 1);
  (void)train_bundle(train_spec(spec.options.seed, 1, 300), device);  // warm-up
  std::vector<double> untraced_s;
  const auto untraced = [&] {
    const Clock::time_point t0 = Clock::now();
    const ModelBundle bundle = train_bundle(spec, device);
    untraced_s.push_back(seconds_since(t0));
    return bundle.provenance;
  };
  const BundleProvenance real = untraced();
  std::vector<Replay> replays(1);
  const Clock::time_point t0 = Clock::now();
  const BundleProvenance replayed = traced_train(spec, device, replays[0]);
  replays[0].seconds = seconds_since(t0);
  (void)untraced();  // after the replay too: report_layers brackets it
  report.attempt(same_provenance(real, replayed),
                 "traced replay differs from train_bundle");
  report_layers(replays, untraced_s, report);
  report.set("ml.fit_rows", static_cast<double>(replayed.dataset_rows));
  write_trace(cfg, replays[0].tracer, report);
}

}  // namespace

void run_cnv(const RunConfig& cfg, bool large_device, Report& report) {
  std::optional<Device> device;
  BlockDesign design;
  SetupTimer setup([&] {
    device.emplace(large_device ? xc7z045_model() : xc7z020_model());
    design = build_cnv_w1a1();
  });
  setup.run(3);

  // The run cycles through kSeeds anneal seeds derived from the benchmark
  // seed: every seed's flows must agree bit for bit, the CF search must not
  // depend on the seed at all, and the reported cost is the median over
  // seeds (one anneal is too noisy a sample of the stitcher's quality).
  constexpr int kSeeds = 32;
  std::vector<std::uint64_t> seeds;
  for (int k = 0; k < kSeeds; ++k) {
    seeds.push_back(task_seed(cfg.seed, "stitch:" + std::to_string(k)));
  }
  if (cfg.trace) {
    trace_cnv(cfg, design, *device, seeds[0], report);
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  std::vector<std::optional<FlowSignature>> reference(kSeeds);
  int k = 0;  // anneal seed of the flow in `result`
  RwFlowResult result;
  // Checked between the timed flows, together with one more set-up.
  const auto check_and_set_up = [&] {
    FlowSignature sig = signature_of(result);
    std::string problem;
    if (result.failed_blocks != 0 || result.cancelled) {
      problem = "flow reported failed blocks";
    } else if (reference[k]) {
      if (!(sig == *reference[k])) problem = "repeat flow differs";
    } else if (const auto error = placement_error(*device, result.problem,
                                                  result.stitch)) {
      problem = *error;
    } else if (reference[0] && !sig.same_blocks(*reference[0])) {
      problem = "CF search depends on the anneal seed";
    } else {
      reference[k] = std::move(sig);
    }
    report.attempt(problem.empty(), problem);
    setup.run(1);
  };
  const Samples samples = measure(
      cfg.seconds, cfg.quick ? kSeeds : 40,
      [&](int i) {
        k = std::max(i, 0) % kSeeds;
        result =
            run_rw_flow(design, *device, min_search(), cnv_options(seeds[k]));
      },
      check_and_set_up);

  report.set("setup_s", setup.median_s());
  report_batch_timing(samples, 0.75, 1.0, report);
  std::vector<double> costs;
  for (const auto& sig : reference) {
    if (sig) costs.push_back(sig->cost);
  }
  report.check(costs.size() == kSeeds, "not every anneal seed ran");
  report.set("qor_cost", median(costs));
  report.set("peak_rss_mb", peak_rss_mb());
}

void run_train(const RunConfig& cfg, Report& report) {
  // Set-up makes the recipe's inputs: the device model and the sweep's
  // module specs. train_bundle derives the same specs from (count, seed)
  // itself; the list bounds the rows a bundle may report.
  std::optional<Device> device;
  std::size_t modules = 0;
  SetupTimer setup([&] {
    device.emplace(xc7z020_model());
    modules = dataset_sweep({kSweepModules, kSweepSeed}).size();
  });
  // ~0.2 ms, so many repetitions cost nothing; the process runs it at one
  // of two speeds ~1.5x apart (bench/e2e/README.md, Bounds), which no
  // repetition count removes.
  setup.run(101);
  if (cfg.trace) {
    trace_train(cfg, *device, report);
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  // One balance/split/forest draw is too noisy a sample of the holdout
  // error, so the warm-up labels the sweep once and fits kEstimatorSeeds
  // draws on it; the reported error is their median. Timed sample i runs
  // the whole recipe with the (i % kTimedSeeds)-th of those seeds and must
  // reproduce that draw's provenance bit for bit.
  constexpr int kEstimatorSeeds = 15;
  constexpr int kTimedSeeds = 3;
  std::vector<BundleProvenance> reference;
  const Samples samples = measure(
      cfg.seconds, cfg.quick ? 1 : kTimedSeeds,
      [&](int i) {
        if (i < 0) {
          const GroundTruth truth = build_ground_truth(
              dataset_sweep({kSweepModules, kSweepSeed}), *device, {}, 2);
          for (int k = 0; k < kEstimatorSeeds; ++k) {
            Tracer unused;
            reference.push_back(fit_holdout(
                train_spec(estimator_seed(cfg.seed, k), 2), truth.samples,
                unused));
          }
          return;
        }
        const int k = i % kTimedSeeds;
        const ModelBundle bundle =
            train_bundle(train_spec(estimator_seed(cfg.seed, k), 2), *device);
        report.attempt(same_provenance(reference[k], bundle.provenance),
                       "recipe differs from its labelled-once replay");
      });
  std::vector<double> errors;
  for (const BundleProvenance& p : reference) {
    report.check(p.holdout_rows > 0 &&
                     static_cast<std::size_t>(p.dataset_rows +
                                              p.holdout_rows) <= modules &&
                     p.holdout_mean_rel_err > 0.0 &&
                     p.holdout_mean_rel_err < 1.0,
                 "bundle rows or holdout error out of range");
    errors.push_back(p.holdout_mean_rel_err);
  }
  report.set("setup_s", setup.median_s());
  // Three samples leave no percentile short of the maximum with samples
  // beyond it, so the tail is the slowest recipe.
  report_batch_timing(samples, 1.0, kSweepModules, report);
  report.set("qor_cost", median(errors));
  report.set("peak_rss_mb", peak_rss_mb());
}

void check_heldout_seed(std::uint64_t default_seed, Report& report) {
  const Device device = xc7z020_model();
  const BlockDesign design = build_cnv_w1a1();
  std::vector<StitchResult> walks;
  for (const std::uint64_t seed : {default_seed, kHeldOutSeed}) {
    const RwFlowResult result = run_rw_flow(
        design, device, min_search(),
        cnv_options(task_seed(seed, "stitch:0")));
    const auto error = placement_error(device, result.problem, result.stitch);
    report.attempt(!error && result.failed_blocks == 0,
                   "seed " + std::to_string(seed) + ": " +
                       error.value_or("failed blocks"));
    walks.push_back(result.stitch);
  }
  report.check(walks[0].cost_trace != walks[1].cost_trace,
               "the held-out seed does not change the anneal walk");
}

}  // namespace e2e
