// stream_window: writes beside reads. One in-process EngineGroup (1 shard,
// 2 workers) holds a streamable Thumos-like dataset; the PoleVault plan is
// trained in set-up and two subscribers follow a 512-frame window. The loop
// is open, as a camera's is: one 64-frame AppendFrames is due every tick
// whether or not the system kept up. A tick's latency runs from its due
// time until a subscriber holds an update whose frame epoch covers it; the
// limit is one tick, and a generator that falls a full tick behind makes
// the run invalid. The seed only shifts the schedule's start phase: the
// work of a stream is fixed by its schedule.

#include <algorithm>
#include <map>
#include <thread>

#include "engine/engine_group.h"
#include "workload.h"

namespace zeusbench {

using zeus::engine::EngineGroup;
using zeus::engine::QueryResult;

namespace {

constexpr int kSubscribers = 2;
constexpr long kWindowFrames = 512;
constexpr long kAppendFrames = zeus::video::SyntheticDataset::kStreamBlockFrames;
constexpr double kTickSeconds = 0.1;
constexpr int kPollTimeoutMs = 5000;

// The window query a subscriber's run executes over a stream of `length`
// frames.
zeus::core::ActionQuery WindowQuery(long length) {
  zeus::core::ActionQuery q = PoleVault().Parsed();
  q.frame_begin = static_cast<int>(std::max<long>(0, length - kWindowFrames));
  return q;
}

struct Subscriber {
  zeus::engine::SubscriptionTicket ticket;
  uint64_t last_seq = 0;
  std::vector<std::pair<uint64_t, double>> arrivals;  // (epoch, seconds)
  std::vector<QueryResult> updates;
};

}  // namespace

Outcome RunStreamWindow(const Args& args, Trace* trace) {
  Outcome out;
  out.latency_what = "stream update from the tick's due time, 2 subscribers";
  const Query& q = PoleVault();

  std::unique_ptr<EngineGroup> group;
  std::vector<Subscriber> subs;
  std::optional<zeus::video::SyntheticDataset> base;
  std::shared_ptr<zeus::core::QueryPlan> plan;
  double plan_s = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    subs.clear();
    plan.reset();
    group.reset();
    std::string error;
    out.setup_s.push_back(TimeIt([&] {
      EngineGroup::Options o;
      o.num_shards = 1;
      o.engine.num_workers = 2;
      o.engine.planner = PlannerOptions();
      group = std::make_unique<EngineGroup>(o);
      base.emplace(zeus::video::SyntheticDataset::Generate(DatasetProfile(q.family),
                                                           kDatasetSeed));
      group->RegisterDataset(q.dataset, *base);
      auto r = group->Execute(q.dataset, q.Parsed());
      if (!r.ok()) {
        error = "training: " + r.status().ToString();
        return;
      }
      plan_s = r.value().plan_seconds;
      plan = group->CachedPlan(q.dataset, q.Parsed());
      zeus::engine::SubscribeOptions so;
      so.window_frames = kWindowFrames;
      for (int s = 0; s < kSubscribers; ++s) {
        auto ticket = group->Subscribe(q.dataset, q.Parsed(), so);
        if (!ticket.ok()) {
          error = "subscribe: " + ticket.status().ToString();
          return;
        }
        auto first = ticket.value().Next(0, 60'000);
        if (!first.ok()) {
          error = "first window: " + first.status().ToString();
          return;
        }
        subs.push_back({ticket.value(), first.value().seq, {}, {first.value().result}});
      }
    }));
    if (!error.empty()) {
      out.Fail("set-up: " + error);
      return out;
    }
  }

  const long length0 = base->stream_length();
  const uint64_t epoch0 = base->frame_epoch();
  const auto ref = Reference(plan.get(), group->dataset(q.dataset), WindowQuery(length0),
                             q.action, &out);
  if (!ref) return out;
  for (const Subscriber& s : subs) {
    if (!CheckAnswer(s.updates.front(), *ref, "first window", &out)) return out;
  }

  // ---- Timed phase: the generator runs on this thread, one poller each. --
  const size_t ticks =
      static_cast<size_t>(std::max(1L, std::lround(args.seconds / kTickSeconds)));
  std::vector<double> due(ticks), sent(ticks), appended(ticks, -1.0);
  Lateness lateness;
  const Clock::time_point origin = Clock::now();
  const double phase = kTickSeconds * static_cast<double>(args.seed % 10) / 10.0;
  for (size_t k = 0; k < ticks; ++k) due[k] = phase + kTickSeconds * static_cast<double>(k);
  const Counters before = Counters::Of(group->Stats(false));

  std::vector<Outcome> poll_errors(subs.size());
  std::vector<std::thread> pollers;
  for (size_t s = 0; s < subs.size(); ++s) {
    pollers.emplace_back([&, s] {
      Subscriber& sub = subs[s];
      sub.updates.clear();
      while (true) {
        auto u = sub.ticket.Next(sub.last_seq, kPollTimeoutMs);
        if (!u.ok()) {
          poll_errors[s].Fail("subscriber " + std::to_string(s) + ": " +
                              u.status().ToString());
          return;
        }
        sub.arrivals.emplace_back(u.value().result.frame_epoch,
                                  Seconds(origin, Clock::now()));
        sub.last_seq = u.value().seq;
        sub.updates.push_back(u.value().result);
        if (u.value().result.frame_epoch >= epoch0 + ticks) return;
      }
    });
  }
  for (size_t k = 0; k < ticks; ++k) {
    std::this_thread::sleep_until(After(origin, due[k]));
    sent[k] = Seconds(origin, Clock::now());
    lateness.Record(due[k], sent[k]);
    auto r = group->AppendFrames(q.dataset, kAppendFrames);
    appended[k] = Seconds(origin, Clock::now());
    if (!r.ok()) {
      out.Fail("append " + std::to_string(k) + ": " + r.status().ToString());
    } else if (r.value().frame_epoch != epoch0 + k + 1) {
      out.Fail("append " + std::to_string(k) + " committed an unexpected epoch");
    }
  }
  for (auto& p : pollers) p.join();
  out.peak_heap_mb = args.heap->PeakMb();
  AddCounterMetrics(before, Counters::Of(group->Stats(false)), &out);
  long dropped = 0;
  for (Subscriber& s : subs) {
    dropped += s.ticket.dropped();
    s.ticket.Cancel();
  }
  // The checks below share the plan with reference engines; nothing else
  // may run on it.
  group.reset();

  // Per (tick, subscriber) latency from the due time.
  std::vector<std::vector<double>> cover(subs.size());
  double last_cover = 0.0;
  std::vector<double> window_run;
  for (size_t s = 0; s < subs.size(); ++s) {
    for (const std::string& e : poll_errors[s].errors) out.Fail(e);
    cover[s] = CoverLatencies(due, epoch0 + 1, subs[s].arrivals);
    for (size_t k = 0; k < ticks; ++k) {
      ++out.attempted;
      if (cover[s][k] < 0.0) {
        out.Fail("tick " + std::to_string(k) + " never reached subscriber " +
                 std::to_string(s));
        continue;
      }
      out.latency_s.push_back(cover[s][k]);
      last_cover = std::max(last_cover, due[k] + cover[s][k]);
      window_run.push_back(due[k] + cover[s][k] - appended[k]);
    }
  }
  out.wall_s = last_cover - due[0];
  if (lateness.FellBehind(kTickSeconds)) {
    out.Fail("invalid run: the generator fell a full tick behind", true);
  }
  std::vector<double> append_s(ticks);
  for (size_t k = 0; k < ticks; ++k) append_s[k] = appended[k] - sent[k];
  long within = 0;
  for (double l : out.latency_s) within += l <= kTickSeconds ? 1 : 0;
  out.info.push_back({"stream.within_tick_frac",
                      static_cast<double>(within) / static_cast<double>(out.attempted),
                      "ratio", out.attempted, "updates within one tick of due"});
  out.info.push_back({"gen.late_ms_p99", Percentile(lateness.samples(), 0.99) * 1e3, "ms",
                      static_cast<long>(ticks)});
  const double append_p50 = Percentile(append_s, 0.5);
  const double window_p50 = Percentile(window_run, 0.5);
  out.info.push_back({"engine.append_ms_p50", append_p50 * 1e3, "ms",
                      static_cast<long>(ticks)});
  out.info.push_back({"engine.window_run_ms_p50", window_p50 * 1e3, "ms",
                      static_cast<long>(window_run.size()),
                      "append return until the subscriber is covered"});
  out.info.push_back({"stream.parts_frac",
                      (append_p50 + window_p50) / Percentile(out.latency_s, 0.5), "ratio",
                      -1, "(append p50 + window run p50) / update p50"});
  out.info.push_back({"engine.stream_dropped", static_cast<double>(dropped), "count"});

  // ---- Every update against a one-shot run over the same prefix. --------
  std::map<uint64_t, std::vector<const QueryResult*>> by_epoch;
  for (const Subscriber& s : subs) {
    for (const QueryResult& u : s.updates) by_epoch[u.frame_epoch].push_back(&u);
  }
  auto make_ref_engine = [&] {
    zeus::engine::QueryEngine::Options ro;
    ro.planner = PlannerOptions();
    auto engine = std::make_unique<zeus::engine::QueryEngine>(ro);
    engine->RegisterDataset(q.dataset, *base);
    engine->plan_cache().Put(q.PlanKey(), plan);
    return engine;
  };
  auto grow_to = [&](zeus::engine::QueryEngine* engine, uint64_t epoch) {
    return engine->GrowDataset(
        q.dataset, length0 + kAppendFrames * static_cast<long>(epoch - epoch0), epoch);
  };
  std::map<uint64_t, Answer> ref_by_epoch;
  {
    auto ref_engine = make_ref_engine();
    for (const auto& [epoch, updates] : by_epoch) {
      auto grown = grow_to(ref_engine.get(), epoch);
      auto r = grown.ok() ? ref_engine->Execute(q.dataset, WindowQuery(grown.value().stream_length))
                          : zeus::common::Result<QueryResult>(grown.status());
      if (!r.ok()) {
        out.Fail("reference at epoch " + std::to_string(epoch) + ": " +
                     r.status().ToString(),
                 true);
        continue;
      }
      ref_by_epoch[epoch] = AnswerOf(r.value());
      for (const QueryResult* u : updates) {
        CheckAnswer(*u, ref_by_epoch[epoch], "update at epoch " + std::to_string(epoch),
                    &out);
      }
    }
  }

  if (!trace->enabled()) return out;

  // Spans from the timestamps every run takes: a tick is due -> last
  // subscriber covered, with the append and each subscriber's window run as
  // children; what is left is the generator's own delay.
  SpanLog* log = trace->NewLog();
  for (size_t k = 0; k < ticks; ++k) {
    double covered = due[k];
    for (size_t s = 0; s < subs.size(); ++s) covered = std::max(covered, due[k] + cover[s][k]);
    const int64_t op = static_cast<int64_t>(k);
    const int64_t id = log->Add("tick", op, 0, After(origin, due[k]), After(origin, covered));
    log->Add("append", op, id, After(origin, sent[k]), After(origin, appended[k]));
    for (size_t s = 0; s < subs.size(); ++s) {
      if (cover[s][k] < 0.0) continue;
      log->Add("window", op, id, After(origin, appended[k]),
               After(origin, std::max(appended[k], due[k] + cover[s][k])));
    }
  }
  std::vector<double> tick_self;
  const std::vector<Span>& all = log->spans();
  for (const Span& s : all) {
    if (s.name == "tick") tick_self.push_back(SelfSeconds(s, all));
  }
  out.info.push_back({"gen.tick_self_ms_p50", Percentile(tick_self, 0.5) * 1e3, "ms",
                      static_cast<long>(tick_self.size()),
                      "tick span minus its append and window children"});

  auto ladder_engine = make_ref_engine();
  std::vector<double> append_self;
  Ladder ladder;
  ladder.state = PlanState::kHot;
  ladder.workdir = args.workdir;
  ladder.trained.emplace_back(plan, plan_s);
  for (const auto& [epoch, updates] : by_epoch) {
    if (ladder.ops.size() >= kLadderOps) break;
    if (epoch == epoch0 || ref_by_epoch.count(epoch) == 0) continue;
    const size_t k = static_cast<size_t>(epoch - epoch0 - 1);
    LadderOp op;
    op.engine = ladder_engine.get();
    op.dataset = q.dataset;
    op.query = WindowQuery(length0 + kAppendFrames * static_cast<long>(epoch - epoch0));
    op.plan_key = q.PlanKey();
    op.reference = ref_by_epoch[epoch];
    double client = 0.0;
    for (size_t s = 0; s < subs.size(); ++s) client += cover[s][k];
    op.client_s = client / static_cast<double>(subs.size());
    op.result = *updates.front();
    ladder.ops.push_back(op);
  }
  // Grows the ladder's replica to each operation's epoch, timing the copy
  // and the growth the engine's append performs, on the same snapshot.
  ladder.before = [&](const LadderOp& op) {
    const uint64_t epoch = op.result.frame_epoch;
    const zeus::video::SyntheticDataset* ds = ladder_engine->dataset(q.dataset);
    std::optional<zeus::video::SyntheticDataset> replica;
    const double copy_s = TimeIt([&] { replica.emplace(*ds); });
    const long target = length0 + kAppendFrames * static_cast<long>(epoch - epoch0);
    const double grow_s = TimeIt([&] { replica->GrowTo(target, epoch); });
    append_self.push_back(append_s[static_cast<size_t>(epoch - epoch0 - 1)] - copy_s - grow_s);
    grow_to(ladder_engine.get(), epoch);
  };
  RunLadder(ladder, &out);
  out.info.push_back({"engine.append_self_ms_p50", Percentile(append_self, 0.5) * 1e3, "ms",
                      static_cast<long>(append_self.size()),
                      "append minus copy minus grow"});
  return out;
}

}  // namespace zeusbench
