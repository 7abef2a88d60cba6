#include "workload.h"

#include <filesystem>

#include "apfg/feature_cache.h"
#include "core/metrics.h"
#include "engine/executor_factory.h"

namespace zeusbench {

using zeus::video::DatasetFamily;

zeus::video::DatasetProfile DatasetProfile(DatasetFamily family) {
  zeus::video::DatasetProfile p = zeus::video::DatasetProfile::ForFamily(family);
  p.num_videos = kVideos;
  p.frames_per_video = kFramesPerVideo;
  return p;
}

zeus::core::QueryPlanner::Options PlannerOptions() {
  zeus::core::QueryPlanner::Options o;
  o.seed = 17;
  o.apfg.epochs = 4;
  o.profile.max_windows_per_config = 60;
  o.trainer.episodes = 3;
  o.trainer.min_buffer = 32;
  o.trainer.agent.batch_size = 32;
  o.max_rl_configs = 4;
  return o;
}

std::string Query::Sql() const {
  return "SELECT segment_ids FROM UDF(video) WHERE action_class = '" + action +
         "' AND accuracy >= " + std::to_string(static_cast<int>(kAccuracyTarget * 100)) +
         "%";
}

zeus::core::ActionQuery Query::Parsed() const {
  return zeus::core::QueryParser::Parse(Sql()).value();
}

std::string Query::PlanKey() const {
  return zeus::engine::QueryEngine::PlanKey(dataset, Parsed());
}

const Query& PoleVault() {
  static const Query q{"thumos", DatasetFamily::kThumos14Like, "PoleVault"};
  return q;
}
const Query& CleanAndJerk() {
  static const Query q{"thumos", DatasetFamily::kThumos14Like, "CleanAndJerk"};
  return q;
}
const Query& IroningClothes() {
  static const Query q{"anet", DatasetFamily::kActivityNetLike, "IroningClothes"};
  return q;
}
const Query& TennisServe() {
  static const Query q{"anet", DatasetFamily::kActivityNetLike, "TennisServe"};
  return q;
}

namespace {

zeus::common::Result<zeus::engine::QueryResult> ReferenceResult(
    const zeus::core::QueryPlan& plan, const zeus::video::SyntheticDataset& ds,
    const zeus::core::ActionQuery& query) {
  std::vector<const zeus::video::Video*> test;
  for (int i : ds.test_indices()) test.push_back(&ds.video(static_cast<size_t>(i)));
  auto localizer = zeus::engine::ExecutorFactory::Make(
      zeus::engine::ExecutionOptions{}, &plan, &ds, test.size());
  if (!localizer.ok()) return localizer.status();
  const zeus::core::RunResult run = localizer.value()->Localize(test);
  zeus::engine::QueryResult out;
  out.metrics = zeus::core::EvaluateVideos(test, plan.targets, run.masks,
                                           zeus::core::EvalOptions{});
  const int range_end = query.frame_end < 0 ? 1 << 30 : query.frame_end;
  for (size_t vi = 0; vi < test.size(); ++vi) {
    for (const auto& inst : zeus::core::MaskToInstances(run.masks[vi])) {
      if (inst.end <= query.frame_begin || inst.start >= range_end) continue;
      if (query.limit >= 0 && static_cast<int>(out.segments.size()) >= query.limit) {
        return out;
      }
      out.segments.push_back({test[vi]->id(), inst.start, inst.end});
    }
  }
  return out;
}

}  // namespace

void Outcome::Fail(const std::string& what, bool wrong) {
  ++failed;
  wrong_answer = wrong_answer || wrong;
  if (errors.size() < 8) errors.push_back(what);
}

std::optional<Answer> Reference(const zeus::core::QueryPlan* plan,
                                const zeus::video::SyntheticDataset* ds,
                                const zeus::core::ActionQuery& query,
                                const std::string& what, Outcome* out) {
  if (plan == nullptr || ds == nullptr) {
    out->Fail(what + ": no trained plan to take the reference from", true);
    return std::nullopt;
  }
  auto ref = ReferenceResult(*plan, *ds, query);
  if (!ref.ok()) {
    out->Fail(what + ": reference failed: " + ref.status().ToString(), true);
    return std::nullopt;
  }
  if (ref.value().metrics.f1 == 0.0) {
    out->Fail(what + ": refused, the reference answer has F1 0", true);
    return std::nullopt;
  }
  return AnswerOf(ref.value());
}

std::shared_ptr<zeus::core::QueryPlan> WithColdFeatures(
    const zeus::core::QueryPlan& plan) {
  auto copy = std::make_shared<zeus::core::QueryPlan>(plan);
  copy->cache = std::make_shared<zeus::apfg::FeatureCache>(copy->apfg.get());
  return copy;
}

bool CheckAnswer(const zeus::engine::QueryResult& got, const Answer& want,
                 const std::string& what, Outcome* out) {
  if (got.consistency != zeus::engine::Consistency::kCertain) {
    out->Fail(what + ": answer not certain (" + got.divergence + ")", true);
    return false;
  }
  if (AnswerOf(got) != want) {
    out->Fail(what + ": answer differs from the reference", true);
    return false;
  }
  out->f1_sum += got.metrics.f1;
  ++out->answers;
  return true;
}

double TimeIt(const std::function<void()>& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return Seconds(t0, Clock::now());
}

bool FreshDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return std::filesystem::create_directories(dir, ec);
}

Counters Counters::Of(const zeus::engine::ServingCounters& c) {
  return Counters{c.cache_hits, c.disk_loads, c.planner_runs, c.feature_hits,
                  c.feature_misses};
}

Counters Counters::operator+(const Counters& o) const {
  return Counters{cache_hits + o.cache_hits, disk_loads + o.disk_loads,
                  planner_runs + o.planner_runs, feature_hits + o.feature_hits,
                  feature_misses + o.feature_misses};
}

void AddCounterMetrics(const Counters& before, const Counters& after,
                       Outcome* out) {
  const long hits = after.cache_hits - before.cache_hits;
  const long loads = after.disk_loads - before.disk_loads;
  const long planned = after.planner_runs - before.planner_runs;
  const long fhits = after.feature_hits - before.feature_hits;
  const long fmisses = after.feature_misses - before.feature_misses;
  const long lookups = hits + loads + planned;
  out->layer.push_back({"engine.plan_hit_ratio",
                        lookups > 0 ? static_cast<double>(hits) / lookups : 0.0,
                        "ratio", lookups});
  out->layer.push_back(
      {"apfg.feature_hit_ratio",
       fhits + fmisses > 0 ? static_cast<double>(fhits) / (fhits + fmisses) : 0.0,
       "ratio", fhits + fmisses});
  out->info.push_back({"engine.planner_runs", static_cast<double>(planned), "count"});
  out->info.push_back({"engine.disk_loads", static_cast<double>(loads), "count"});
}

}  // namespace zeusbench
