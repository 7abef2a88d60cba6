#ifndef ZEUS_CORE_BATCHED_EXECUTOR_H_
#define ZEUS_CORE_BATCHED_EXECUTOR_H_

#include <string>
#include <vector>

#include "core/executor.h"
#include "core/localizer.h"
#include "core/query_planner.h"

namespace zeus::core {

// Inter-video batched Zeus-RL executor — the extension the paper sketches
// in §6.4: the sequential executor cannot batch within one video (each
// decision depends on the previous segment's ProxyFeature), but across
// videos the per-video traversals are independent, so same-configuration
// invocations from different videos can share one GPU launch.
//
// The executor runs one traversal per video in lockstep rounds. Each round
// collects the agent's greedy configuration choice for every still-active
// video, groups the choices by configuration, and charges each group to the
// cost model as ceil(k / max_batch) batched launches instead of k
// singleton launches. Decisions, predictions and masks are bit-identical
// to running QueryExecutor on each video separately — batching changes the
// cost accounting, never the plan semantics.
class BatchedExecutor : public Localizer {
 public:
  struct Options {
    // Maximum invocations fused into one launch (GPU memory bound).
    int max_batch = 16;
  };

  BatchedExecutor(const QueryPlan* plan, const Options& opts)
      : plan_(plan), opts_(opts) {}
  explicit BatchedExecutor(const QueryPlan* plan)
      : BatchedExecutor(plan, Options()) {}

  RunResult Localize(const std::vector<const video::Video*>& videos) override;
  std::string name() const override { return "Zeus-RL-Batched"; }

  const Options& options() const { return opts_; }

 private:
  const QueryPlan* plan_;
  Options opts_;
};

}  // namespace zeus::core

#endif  // ZEUS_CORE_BATCHED_EXECUTOR_H_
