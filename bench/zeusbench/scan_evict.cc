// scan_evict: the many-tenant case, and the paper's own execution setting
// of one pass over unseen video. One in-process EngineGroup (1 shard, 2
// workers) with a fresh plan catalog and a plan cache that holds one plan;
// the PoleVault and TennisServe plans are trained and persisted in set-up.
// One thread keeps two tickets in flight through Submit/Wait, strictly
// alternating the two queries from a seeded start, so every operation
// reloads its plan with PlanIo and extracts features for footage the
// reloaded plan has never seen.

#include <deque>

#include "engine/engine_group.h"
#include "workload.h"

namespace zeusbench {

using zeus::engine::EngineGroup;

namespace {

constexpr size_t kInFlight = 2;

// The operation sequence: strict alternation keeps the working set at twice
// the cache, so the seed may only pick which query goes first.
const Query* Nth(const std::vector<const Query*>& queries, uint64_t seed,
                 int64_t i) {
  return queries[static_cast<size_t>((static_cast<uint64_t>(i) + seed) % 2)];
}

}  // namespace

Outcome RunScanEvict(const Args& args, Trace* trace) {
  Outcome out;
  out.latency_what = "query with plan reload, 2 in flight from one thread";
  const std::vector<const Query*> queries = {&PoleVault(), &TennisServe()};
  const std::string persist = args.workdir + "/scan_evict-plans";

  std::unique_ptr<EngineGroup> group;
  std::vector<std::pair<std::shared_ptr<zeus::core::QueryPlan>, double>> trained;
  std::vector<zeus::engine::QueryResult> trained_results;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    group.reset();
    trained.clear();
    trained_results.clear();
    std::string error;
    out.setup_s.push_back(TimeIt([&] {
      FreshDir(persist);
      EngineGroup::Options o;
      o.num_shards = 1;
      o.engine.num_workers = 2;
      o.engine.cache.capacity = 1;
      o.engine.cache.persist_dir = persist;
      o.engine.planner = PlannerOptions();
      group = std::make_unique<EngineGroup>(o);
      for (const Query* q : queries) {
        group->RegisterDataset(q->dataset, zeus::video::SyntheticDataset::Generate(
                                               DatasetProfile(q->family), kDatasetSeed));
      }
      for (const Query* q : queries) {
        auto r = group->Execute(q->dataset, q->Parsed());
        if (!r.ok()) {
          error = q->action + ": " + r.status().ToString();
          return;
        }
        trained.emplace_back(group->CachedPlan(q->dataset, q->Parsed()),
                             r.value().plan_seconds);
        trained_results.push_back(r.value());
      }
    }));
    if (!error.empty()) {
      out.Fail("set-up: " + error);
      return out;
    }
  }

  std::vector<Answer> refs;
  long frames_per_query[2] = {0, 0};
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = *queries[i];
    const zeus::video::SyntheticDataset* ds = group->dataset(q.dataset);
    const auto ref = Reference(trained[i].first.get(), ds, q.Parsed(), q.action, &out);
    if (!ref) return out;
    if (!CheckAnswer(trained_results[i], *ref, q.action + " (set-up)", &out)) return out;
    refs.push_back(*ref);
    for (int v : ds->test_indices()) {
      frames_per_query[i] += ds->video(static_cast<size_t>(v)).num_frames();
    }
  }

  struct InFlight {
    size_t query;
    int64_t op;
    zeus::engine::QueryTicket ticket;
    Clock::time_point sent;
  };
  std::deque<InFlight> inflight;
  SpanLog* log = trace->NewLog();
  std::vector<double> modeled_fps;
  long frames = 0;
  const Counters before = Counters::Of(group->Stats(false));
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = After(start, args.seconds);
  int64_t next = 0;
  for (;;) {
    while (inflight.size() < kInFlight && Clock::now() < end) {
      const Query* q = Nth(queries, args.seed, next);
      const size_t qi = q == queries[0] ? 0 : 1;
      ++out.attempted;
      const Clock::time_point sent = Clock::now();
      auto ticket = group->Submit(q->dataset, q->Parsed());
      if (ticket.ok()) {
        inflight.push_back({qi, next, ticket.value(), sent});
      } else {
        out.Fail(q->action + ": submit: " + ticket.status().ToString());
      }
      ++next;
    }
    if (inflight.empty()) break;
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    const auto& r = f.ticket.Wait();
    const Clock::time_point done = Clock::now();
    if (log != nullptr) log->Add("query", f.op, 0, f.sent, done);
    const std::string& what = queries[f.query]->action;
    if (!r.ok()) {
      out.Fail(what + ": " + r.status().ToString());
    } else if (CheckAnswer(r.value(), refs[f.query], what, &out)) {
      out.latency_s.push_back(Seconds(f.sent, done));
      modeled_fps.push_back(r.value().throughput_fps);
      frames += frames_per_query[f.query];
    }
  }
  out.wall_s = Seconds(start, Clock::now());
  out.peak_heap_mb = args.heap->PeakMb();
  AddCounterMetrics(before, Counters::Of(group->Stats(false)), &out);
  out.info.push_back({"scan.measured_fps", frames / out.wall_s, "1/s",
                      static_cast<long>(out.latency_s.size()),
                      "test-split frames localized per wall second"});
  out.info.push_back({"scan.modeled_fps", Percentile(modeled_fps, 0.5), "1/s",
                      static_cast<long>(modeled_fps.size()),
                      "cost-model frames per modeled GPU second (median)"});

  if (!trace->enabled()) return out;
  Ladder ladder;
  ladder.state = PlanState::kEvicted;
  ladder.workdir = args.workdir;
  ladder.trained = trained;
  for (int64_t i = 0; i < static_cast<int64_t>(kLadderOps); ++i) {
    const Query* q = Nth(queries, args.seed, i);
    const size_t qi = q == queries[0] ? 0 : 1;
    LadderOp op;
    op.engine = &group->engine_for(q->dataset);
    op.dataset = q->dataset;
    op.query = q->Parsed();
    op.plan_key = q->PlanKey();
    op.reference = refs[qi];
    op.result = trained_results[qi];
    ladder.ops.push_back(op);
  }
  ladder.client = [&](const LadderOp& op) -> zeus::common::Result<zeus::engine::QueryResult> {
    auto ticket = group->Submit(op.dataset, op.query);
    if (!ticket.ok()) return ticket.status();
    return ticket.value().Wait();
  };
  RunLadder(ladder, &out);
  return out;
}

}  // namespace zeusbench
