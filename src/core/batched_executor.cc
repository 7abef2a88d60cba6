#include "core/batched_executor.h"

#include <map>
#include <memory>
#include <vector>

#include "common/timer.h"
#include "rl/env.h"

namespace zeus::core {

RunResult BatchedExecutor::Localize(
    const std::vector<const video::Video*>& videos) {
  common::WallTimer timer;
  RunResult result;

  // One single-video environment per input video, stepped in lockstep.
  std::vector<std::unique_ptr<rl::VideoEnv>> envs;
  envs.reserve(videos.size());
  for (const video::Video* v : videos) {
    envs.push_back(std::make_unique<rl::VideoEnv>(
        std::vector<const video::Video*>{v}, &plan_->rl_space,
        plan_->cache.get(), plan_->targets, plan_->env_opts));
  }

  // Charges a group of k same-configuration invocations as batched
  // launches of at most max_batch each.
  auto charge_group = [&](int config_id, int k) {
    const Configuration& c = plan_->rl_space.config(config_id);
    int remaining = k;
    while (remaining > 0) {
      int batch = std::min(remaining, opts_.max_batch);
      result.gpu_seconds += plan_->cost_model.BatchedSegmentCost(
          c.nominal_resolution, c.nominal_segment_length, batch);
      remaining -= batch;
    }
    result.invocations += k;
  };

  // Round 0: every video's forced initial invocation uses the slowest
  // configuration (§3), so they all batch together.
  if (cancel_.cancelled()) {
    result.cancelled = true;
    result.masks.resize(videos.size());
    result.wall_seconds = timer.ElapsedSeconds();
    return result;
  }
  int slowest = plan_->rl_space.SlowestId();
  for (auto& env : envs) env->ResetSequential();
  charge_group(slowest, static_cast<int>(envs.size()));

  // Lockstep rounds over the active environments.
  while (true) {
    // Cancellation point: a Cancel() lands before the next round starts, so
    // the abort latency is bounded by one lockstep round.
    if (cancel_.cancelled()) {
      result.cancelled = true;
      break;
    }
    std::map<int, std::vector<rl::VideoEnv*>> groups;
    for (auto& env : envs) {
      if (env->done()) continue;
      int action = plan_->agent->GreedyAction(env->state());
      groups[action].push_back(env.get());
    }
    if (groups.empty()) break;
    if (gpu_budget_ > 0.0) {
      // Budget point: the cost model prices the whole upcoming round; if
      // it cannot fit the remaining budget, stop here — the same round
      // boundary the cancellation check uses, so strict-tier runs (which
      // never set a budget) execute an identical schedule.
      double round_cost = 0.0;
      for (const auto& [config_id, members] : groups) {
        const Configuration& c = plan_->rl_space.config(config_id);
        int remaining = static_cast<int>(members.size());
        while (remaining > 0) {
          const int batch = std::min(remaining, opts_.max_batch);
          round_cost += plan_->cost_model.BatchedSegmentCost(
              c.nominal_resolution, c.nominal_segment_length, batch);
          remaining -= batch;
        }
      }
      if (result.gpu_seconds + round_cost > gpu_budget_) {
        result.budget_exhausted = true;
        break;
      }
    }
    // Each environment steps on this thread: a step on a feature-cache hit
    // is well under a microsecond, and concurrent queries already run on
    // their own engine workers.
    for (auto& [config_id, members] : groups) {
      charge_group(config_id, static_cast<int>(members.size()));
      for (rl::VideoEnv* env : members) env->Step(config_id);
    }
  }

  // Collect masks and per-config frame accounting from the environments.
  for (auto& env : envs) {
    result.masks.push_back(env->mask(0));
    result.total_frames += env->total_frames();
    for (const auto& [config_id, frames] : env->invocation_log()) {
      result.frames_per_config[config_id] += frames;
    }
  }
  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace zeus::core
