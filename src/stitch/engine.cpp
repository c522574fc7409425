#include "stitch/engine.hpp"

#include <cstdio>
#include <cstring>

namespace mf {

const char* to_string(StitchEngine engine) noexcept {
  switch (engine) {
    case StitchEngine::Sa:
      return "sa";
    case StitchEngine::Evo:
      return "evo";
    case StitchEngine::Analytic:
      return "analytic";
    case StitchEngine::Portfolio:
      return "portfolio";
  }
  return "sa";
}

std::optional<StitchEngine> stitch_engine_from_string(
    std::string_view name) noexcept {
  if (name == "sa") return StitchEngine::Sa;
  if (name == "evo") return StitchEngine::Evo;
  if (name == "analytic") return StitchEngine::Analytic;
  if (name == "portfolio") return StitchEngine::Portfolio;
  return std::nullopt;
}

std::optional<std::string> stitch_options_error(const StitchOptions& opts) {
  if (opts.restarts < 1) {
    return "stitch restarts must be >= 1 (got " +
           std::to_string(opts.restarts) + ")";
  }
  if (opts.jobs < 0) {
    return "stitch jobs must be >= 0 (got " + std::to_string(opts.jobs) + ")";
  }
  if (opts.evo_population < 2) {
    return "evolutionary population must be >= 2 (got " +
           std::to_string(opts.evo_population) + ")";
  }
  if (opts.engine_budget < 0) {
    return "engine budget must be >= 0 (got " +
           std::to_string(opts.engine_budget) + ")";
  }
  if (opts.target_cost < 0.0) {
    return "target cost must be >= 0";
  }
  for (const StitchEngine entry : opts.portfolio) {
    if (entry == StitchEngine::Portfolio) {
      return "a portfolio cannot race itself (nested 'portfolio' entry)";
    }
  }
  if (!opts.portfolio.empty() && opts.engine != StitchEngine::Portfolio) {
    return "a portfolio engine list requires engine=portfolio";
  }
  return std::nullopt;
}

std::string trace_to_text(const StitchResult& result) {
  std::string out = "macroflow-cost-trace v1 engine=" + result.engine +
                    " samples=" + std::to_string(result.cost_trace.size()) +
                    "\n";
  char buf[64];
  for (const auto& [move, cost] : result.cost_trace) {
    unsigned long long bits = 0;
    static_assert(sizeof bits == sizeof cost);
    std::memcpy(&bits, &cost, sizeof bits);
    std::snprintf(buf, sizeof buf, "%ld %016llx\n", move, bits);
    out += buf;
  }
  return out;
}

}  // namespace mf
