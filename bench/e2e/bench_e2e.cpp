// bench_e2e: one workload of the end-to-end benchmark per process
// (bench/e2e/README.md).
//
//   bench_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--quick]
//   bench_e2e --check-seeds
//
// The last line of standard output is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). A failed output check makes the run incorrect and the exit
// code 1; a usage error exits 2. A traced run writes its spans to
// .bench_build/traces/<workload>-seed<N>.json under the working directory.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using namespace e2e;

struct Workload {
  const char* name;
  std::uint64_t default_seed;
  void (*run)(const RunConfig&, Report&);
};

const Workload kWorkloads[] = {
    {"cnv-z045", 1,
     [](const RunConfig& cfg, Report& r) { run_cnv(cfg, true, r); }},
    {"cnv-z020", 2,
     [](const RunConfig& cfg, Report& r) { run_cnv(cfg, false, r); }},
    {"train", 42, run_train},
    {"serve-rf", 7, run_serve},
};

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--quick]\n"
               "       bench_e2e --check-seeds\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

void print_problems(const Report& report) {
  for (const std::string& problem : report.problems()) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
}

int finish(const Report& report, bool trace) {
  print_problems(report);
  std::printf("%s\n", report.json(trace).c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool seed_given = false;
  bool seconds_given = false;
  bool check_seeds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    char* end = nullptr;
    if (arg == "--quick") {
      cfg.quick = true;
    } else if (arg == "--check-seeds") {
      check_seeds = true;
    } else if (value == nullptr) {
      return usage();
    } else if (arg == "--workload") {
      cfg.workload = value;
      ++i;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value, &end, 10);
      seed_given = true;
      if (*end != '\0') return usage();
      ++i;
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value, &end);
      seconds_given = true;
      if (*end != '\0' || !(cfg.seconds > 0.0)) return usage();
      ++i;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage();
      }
      cfg.trace = value[0] == '1';
      ++i;
    } else {
      return usage();
    }
  }
  if (cfg.quick && !seconds_given) cfg.seconds = 2.0;

  try {
    if (check_seeds) {
      Report report;
      check_heldout_seed(kWorkloads[1].default_seed, report);
      print_problems(report);
      std::printf("held-out seed %llu: %s\n",
                  static_cast<unsigned long long>(kHeldOutSeed),
                  report.correct() ? "different anneal walk, all checks pass"
                                   : "FAILED");
      return report.correct() ? 0 : 1;
    }
    for (const Workload& w : kWorkloads) {
      if (cfg.workload != w.name) continue;
      if (!seed_given) cfg.seed = w.default_seed;
      cfg.trace_out = ".bench_build/traces/" + cfg.workload + "-seed" +
                      std::to_string(cfg.seed) + ".json";
      Report report;
      w.run(cfg, report);
      if (cfg.trace) std::printf("trace written to %s\n", cfg.trace_out.c_str());
      return finish(report, cfg.trace);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_e2e: %s\n", error.what());
    return 1;
  }
  return usage();
}
