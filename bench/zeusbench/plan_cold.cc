// plan_cold: every query arrives with no trained plan. One in-process
// EngineGroup (1 shard, 2 workers); a closed loop with one ticket in
// flight sends the four queries (PoleVault and CleanAndJerk on the
// Thumos-like dataset, IroningClothes and TennisServe on the
// ActivityNet-like one) in a seeded order per cycle, clearing the plan
// cache before each, so every operation pays APFG training, configuration
// profiling, DQN training and calibration. The run covers whole cycles, so
// every run times the same multiset of plans.

#include <algorithm>
#include <map>
#include <random>

#include "engine/engine_group.h"
#include "workload.h"

namespace zeusbench {

using zeus::engine::EngineGroup;

Outcome RunPlanCold(const Args& args, Trace* trace) {
  Outcome out;
  out.latency_what = "cold query (plan + execute), closed loop, 1 in flight";
  const std::vector<const Query*> queries = {&PoleVault(), &CleanAndJerk(),
                                             &IroningClothes(), &TennisServe()};

  std::unique_ptr<EngineGroup> group;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    group.reset();
    out.setup_s.push_back(TimeIt([&] {
      EngineGroup::Options o;
      o.num_shards = 1;
      o.engine.num_workers = 2;
      o.engine.planner = PlannerOptions();
      group = std::make_unique<EngineGroup>(o);
      for (const Query* q : {&PoleVault(), &IroningClothes()}) {
        group->RegisterDataset(q->dataset, zeus::video::SyntheticDataset::Generate(
                                               DatasetProfile(q->family), kDatasetSeed));
      }
    }));
  }

  struct Done {
    const Query* query;
    double latency_s;
    zeus::engine::QueryResult result;
    std::shared_ptr<zeus::core::QueryPlan> plan;
  };
  std::vector<Done> done;
  std::mt19937_64 rng(args.seed);
  SpanLog* log = trace->NewLog();
  const Counters before = Counters::Of(group->Stats(false));
  const Clock::time_point start = Clock::now();
  double cycle_s = 0.0;
  int64_t op = 0;
  // Whole cycles, as many as round to the requested seconds (at least one).
  for (int cycle = 0; cycle == 0 || Seconds(start, Clock::now()) + cycle_s / 2 < args.seconds;
       ++cycle) {
    std::vector<const Query*> order = queries;
    std::shuffle(order.begin(), order.end(), rng);
    const Clock::time_point cycle_start = Clock::now();
    for (const Query* q : order) {
      zeus::engine::QueryEngine& engine = group->engine_for(q->dataset);
      engine.plan_cache().Clear();
      ++out.attempted;
      const Clock::time_point t0 = Clock::now();
      auto ticket = group->Submit(q->dataset, q->Parsed());
      if (!ticket.ok()) {
        out.Fail(q->action + ": submit: " + ticket.status().ToString());
        continue;
      }
      const auto& r = ticket.value().Wait();
      const Clock::time_point t1 = Clock::now();
      if (log != nullptr) log->Add("cold_query", op, 0, t0, t1);
      ++op;
      if (!r.ok()) {
        out.Fail(q->action + ": " + r.status().ToString());
      } else if (r.value().plan_seconds <= 0.0) {
        out.Fail(q->action + ": served from a cached plan, not cold");
      } else {
        out.latency_s.push_back(Seconds(t0, t1));
        done.push_back({q, Seconds(t0, t1), r.value(),
                        engine.CachedPlan(q->dataset, q->Parsed())});
      }
    }
    cycle_s = Seconds(cycle_start, Clock::now());
  }
  out.wall_s = Seconds(start, Clock::now());
  out.peak_heap_mb = args.heap->PeakMb();
  AddCounterMetrics(before, Counters::Of(group->Stats(false)), &out);

  // Each answer must match its own plan's reference, and replanning the
  // same query must reproduce the same answer.
  std::map<const Query*, Answer> first;
  for (const Done& d : done) {
    const auto ref = Reference(d.plan.get(), group->dataset(d.query->dataset),
                               d.query->Parsed(), d.query->action, &out);
    if (!ref) continue;
    CheckAnswer(d.result, *ref, d.query->action, &out);
    const auto [it, fresh] = first.emplace(d.query, *ref);
    if (!fresh && it->second != *ref) {
      out.Fail(d.query->action + ": replanning changed the answer", true);
    }
  }

  if (trace->enabled() && !done.empty()) {
    Ladder ladder;
    ladder.state = PlanState::kTrained;
    ladder.workdir = args.workdir;
    for (const Done& d : done) {
      if (ladder.ops.size() >= kLadderOps) break;
      LadderOp lop;
      lop.engine = &group->engine_for(d.query->dataset);
      lop.dataset = d.query->dataset;
      lop.query = d.query->Parsed();
      lop.plan_key = d.query->PlanKey();
      lop.reference = AnswerOf(d.result);
      lop.client_s = d.latency_s;
      lop.plan_s = d.result.plan_seconds;
      lop.result = d.result;
      lop.plan = d.plan;
      ladder.ops.push_back(lop);
    }
    for (const Done& d : done) ladder.trained.emplace_back(d.plan, d.result.plan_seconds);
    RunLadder(ladder, &out);
  }
  return out;
}

}  // namespace zeusbench
