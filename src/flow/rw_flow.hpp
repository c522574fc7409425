#pragma once
// The RapidWright-style pre-implemented-block flow, end to end:
//
//   1. identify unique blocks in the block design;
//   2. per unique block: synthesize & optimize, quick-place (shape report),
//      pick a CF (constant or estimator), generate the PBlock, place & route
//      inside it -- retrying per the Section VIII schedule when infeasible;
//   3. cache the implementation (a Macro) and reuse it for every instance;
//   4. stitch all instances onto the device with simulated annealing.
//
// The implementation cache is the flow's reason to exist: when a design
// iteration touches one block, only that block re-runs steps 2-3.

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/cf_search.hpp"
#include "core/estimator.hpp"
#include "flow/tool_run.hpp"
#include "stitch/macro.hpp"
#include "stitch/sa_stitcher.hpp"
#include "timing/sta.hpp"

namespace mf {

/// How the flow chooses each block's correction factor.
struct CfPolicy {
  enum class Mode {
    Constant,   ///< fixed CF for every block (RW's default, 1.5)
    Estimator,  ///< per-block CF from a trained CfEstimator
    MinSearch,  ///< exhaustive minimal-CF search (ground-truth baseline)
  };
  Mode mode = Mode::Constant;
  double constant_cf = 1.5;
  const CfEstimator* estimator = nullptr;  ///< required for Estimator mode
};

struct RwFlowOptions {
  CfSearchOptions search;      ///< placement / search knobs (incl. runner)
  StitchOptions stitch;        ///< annealer knobs
  bool run_stitch = true;
  bool compute_timing = true;
  /// Graceful degradation: when the primary search fails *under fault
  /// injection* (search.runner attached and injection enabled), retry once
  /// with an escalated constant CF before declaring the block failed. With
  /// injection disabled the flow is bit-identical to the infallible-tool
  /// behaviour -- no extra searches, no extra tool runs.
  bool degrade_on_failure = true;
  double degrade_cf = 2.5;  ///< escalated CF for the fallback attempt
  /// Worker threads for the per-block implement loop (the blocks are
  /// independent). The stitch parallelises separately via multi-start
  /// annealing: set stitch.restarts / stitch.jobs. 1 = sequential, 0 = auto
  /// (hardware concurrency). Results are bit-identical at any value: blocks
  /// land in pre-sized slots, the ToolRunner keeps per-block state, and the
  /// fault-injection stream is a pure function of (seed, block, ordinal).
  int jobs = MF_JOBS_DEFAULT;
  /// Cooperative cancellation (common/cancel.hpp). A tripped token stops new
  /// per-block implements (in-flight blocks drain), skips the stitch, and
  /// marks not-yet-implemented blocks FlowStatus::Cancelled. The same token
  /// is forwarded into the annealer (unless stitch.cancel is set) so a
  /// deadline covers the flow end to end.
  const CancelToken* cancel = nullptr;
  /// ModuleCache::run only: when non-empty, the cache is checkpointed here
  /// (atomically; flow/serialize.hpp) after the merge -- including on
  /// cancellation, so a cancelled run resumes with its completed blocks.
  std::string checkpoint_path;
};

/// Per-block outcome of the flow.
enum class FlowStatus : std::uint8_t {
  Ok,        ///< implemented at the policy's CF (possibly after refinement)
  Degraded,  ///< primary search failed; escalated constant-CF fallback stuck
  Failed,    ///< no implementation; excluded from the stitch problem
  Cancelled, ///< flow cancelled before this block ran; retried on resume
};

[[nodiscard]] const char* to_string(FlowStatus status) noexcept;

/// One unique block after implementation.
struct ImplementedBlock {
  std::string name;
  FlowStatus status = FlowStatus::Failed;
  FlowError error;   ///< why the block failed (or why it was degraded)
  int attempts = 0;  ///< physical tool invocations incl. retries (0: no runner)
  Macro macro;
  ResourceReport report;
  ShapeReport shape;
  double seed_cf = 0.0;  ///< CF the policy proposed
  bool first_run_success = false;

  /// Compatibility accessor for the old `bool ok` field: true when the block
  /// produced a usable macro (cleanly or degraded). Cancelled blocks never
  /// ran, so they are not ok -- and not cached either.
  [[nodiscard]] bool ok() const noexcept {
    return status == FlowStatus::Ok || status == FlowStatus::Degraded;
  }
  [[nodiscard]] bool degraded() const noexcept {
    return status == FlowStatus::Degraded;
  }
};

struct RwFlowResult {
  std::vector<ImplementedBlock> blocks;  ///< aligned with unique_modules
  StitchProblem problem;
  StitchResult stitch;
  int total_tool_runs = 0;
  int failed_blocks = 0;
  int degraded_blocks = 0;
  /// Cancellation outcome: `cancelled` is true when the token tripped during
  /// the run (even if every block had already finished -- the stitch is then
  /// skipped); cancelled_blocks counts blocks marked FlowStatus::Cancelled.
  bool cancelled = false;
  int cancelled_blocks = 0;
  std::vector<FlowError> errors;  ///< one per failed block, in block order
};

/// Implement one module: synthesize, quick-place, then run the seeded CF
/// search from `seed_cf`.
ImplementedBlock implement_block(const Module& module, const Device& device,
                                 double seed_cf, const RwFlowOptions& opts);

/// Full flow over a block design.
RwFlowResult run_rw_flow(const BlockDesign& design, const Device& device,
                         const CfPolicy& policy, const RwFlowOptions& opts = {});

/// Implementation cache keyed by unique-block name, for DSE scenarios where
/// a design revision re-uses most blocks (the paper's motivating use case).
///
/// Failure semantics: only blocks that produced a usable macro are stored.
/// A failed implementation is *not* cached, so the next run retries it --
/// caching a failure would pin a transient tool fault forever.
///
/// The cache can be checkpointed to disk (versioned, per-entry checksummed;
/// see flow/serialize.hpp) so an interrupted flow resumes with its
/// implemented macros intact and re-runs only missing/corrupted blocks.
///
/// Thread safety: find/store/restore take an internal mutex, so concurrent
/// lookups and insertions are safe. `run` itself consults the cache and
/// inserts new blocks sequentially (only the implement work fans out), so
/// hit/miss counters and insertion order are identical at any `jobs` value.
/// find()'s returned pointer stays valid across inserts (std::map nodes are
/// stable) but callers must not hold it across an erase (none exists).
class ModuleCache {
 public:
  [[nodiscard]] const ImplementedBlock* find(const std::string& name) const;
  void store(ImplementedBlock block);
  /// Insert without counting a miss -- used by checkpoint restore.
  void restore(ImplementedBlock block);
  [[nodiscard]] std::size_t size() const noexcept { return cache_.size(); }
  [[nodiscard]] int hits() const noexcept { return hits_; }
  [[nodiscard]] int misses() const noexcept { return misses_; }
  [[nodiscard]] const std::map<std::string, ImplementedBlock>& entries()
      const noexcept {
    return cache_;
  }

  /// Like run_rw_flow, but consults / fills the cache per unique block.
  RwFlowResult run(const BlockDesign& design, const Device& device,
                   const CfPolicy& policy, const RwFlowOptions& opts = {});

 private:
  mutable std::mutex mutex_;
  std::map<std::string, ImplementedBlock> cache_;
  mutable int hits_ = 0;
  int misses_ = 0;
};

}  // namespace mf
