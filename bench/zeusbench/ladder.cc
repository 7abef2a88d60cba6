// The per-layer ladder. After the timed phase a traced run replays its first
// operations one at a time, each through a public entry point one layer
// lower than the last:
//
//   client          the workload's own path (router, admission queue, ...)
//   engine.exec     QueryEngine::Execute inline on the home engine
//   plan lookup     PlanCache::GetOrPlan
//   core.localize   ExecutorFactory::Make(...)->Localize on the looked-up plan
//   core.evaluate   core::EvaluateVideos
//
// and a layer's self time is its rung minus the rungs below it, taken per
// operation before the median. Single calls below the localizer (agent
// action, environment step, APFG invocation, decode, GEMM) are timed on the
// segments the operation's own greedy traversal visits. No clock is added
// inside the library: every number here times a call made from this file.

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>

#include "cluster/protocol.h"
#include "core/metrics.h"
#include "core/plan_io.h"
#include "engine/executor_factory.h"
#include "rl/env.h"
#include "tensor/gemm.h"
#include "video/decoder.h"
#include "workload.h"

namespace zeusbench {
namespace {

using zeus::core::QueryPlan;
using zeus::engine::QueryResult;

constexpr size_t kMaxSteps = 512;      // agent steps timed per run
constexpr size_t kMaxSegments = 128;   // visited segments decoded per run
constexpr size_t kDatasetSamples = 20; // copy / grow samples per run
constexpr int kPlanLoads = 3;          // PlanIo::Load calls per distinct plan

template <typename F>
auto Timed(F&& fn, double* seconds) {
  const Clock::time_point t0 = Clock::now();
  auto r = fn();
  *seconds = Seconds(t0, Clock::now());
  return r;
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

Metric Us(const std::string& name, const std::vector<double>& seconds) {
  return {name, Median(seconds) * 1e6, "us", static_cast<long>(seconds.size())};
}
Metric Ms(const std::string& name, const std::vector<double>& seconds) {
  return {name, Median(seconds) * 1e3, "ms", static_cast<long>(seconds.size())};
}
double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// Puts the operation's plan back into the state the operation found it in.
void Prepare(const Ladder& ladder, const LadderOp& op) {
  if (ladder.state == PlanState::kHot) return;
  zeus::engine::PlanCache& cache = op.engine->plan_cache();
  cache.EraseIf([&](const std::string& key) { return key == op.plan_key; });
  if (ladder.state == PlanState::kTrained) {
    cache.Put(op.plan_key, WithColdFeatures(*op.plan));
  }
}

std::vector<const zeus::video::Video*> TestVideos(
    const zeus::video::SyntheticDataset& ds) {
  std::vector<const zeus::video::Video*> test;
  for (int i : ds.test_indices()) test.push_back(&ds.video(static_cast<size_t>(i)));
  return test;
}

// Single-call timings below the localizer.
struct Probes {
  std::vector<double> greedy, step, process, forward, forward8, decode;
};

// Steps the plan's greedy policy over the test split the way the executor
// does, then times the APFG and the decoder on the segments it visited.
void Probe(const QueryPlan& hot_plan, bool cold,
           const std::vector<const zeus::video::Video*>& test, Probes* p) {
  std::shared_ptr<QueryPlan> cold_plan;
  if (cold) cold_plan = WithColdFeatures(hot_plan);
  const QueryPlan& plan = cold ? *cold_plan : hot_plan;

  struct Visit {
    const zeus::video::Video* video;
    int start;
    zeus::video::DecodeSpec spec;
  };
  std::vector<Visit> visits;
  zeus::rl::VideoEnv env(test, &plan.rl_space, plan.cache.get(), plan.targets,
                         plan.env_opts);
  env.ResetSequential();
  while (!env.done() && p->step.size() < kMaxSteps) {
    double g = 0.0, s = 0.0;
    const int action = Timed([&] { return plan.agent->GreedyAction(env.state()); }, &g);
    const auto r = Timed([&] { return env.Step(action); }, &s);
    p->greedy.push_back(g);
    p->step.push_back(s);
    visits.push_back({&env.video(r.video_index), r.window_start,
                      plan.rl_space.config(action).spec});
  }

  std::map<int, std::vector<zeus::tensor::Tensor>> by_spec;
  for (const Visit& v : visits) {
    if (p->decode.size() >= kMaxSegments) break;
    double d = 0.0, pr = 0.0, f = 0.0;
    zeus::tensor::Tensor seg = Timed(
        [&] { return zeus::video::SegmentDecoder::Decode(*v.video, v.start, v.spec); }, &d);
    Timed([&] { return plan.apfg->Process(*v.video, v.start, v.spec); }, &pr);
    std::vector<int> dims = seg.shape();
    dims.insert(dims.begin(), 1);
    const zeus::tensor::Tensor batch = seg.Reshape(dims);
    Timed([&] { return plan.apfg->ProcessBatch(batch, v.spec); }, &f);
    p->decode.push_back(d);
    p->process.push_back(pr);
    p->forward.push_back(f);
    const int key = v.spec.resolution_px * 10000 + v.spec.segment_length * 100 +
                    v.spec.sampling_rate;
    auto& group = by_spec[key];
    group.push_back(batch);
    if (group.size() == 8) {
      std::vector<int> dims8 = batch.shape();
      dims8[0] = 8;
      zeus::tensor::Tensor batch8 = zeus::tensor::Tensor::Zeros(dims8);
      const size_t n = batch.size();
      for (size_t i = 0; i < 8; ++i) {
        std::copy(group[i].data(), group[i].data() + n, batch8.data() + i * n);
      }
      double f8 = 0.0;
      Timed([&] { return plan.apfg->ProcessBatch(batch8, v.spec); }, &f8);
      p->forward8.push_back(f8 / 8.0);
      group.clear();
    }
  }
}

// The first convolution of the APFG's R3dLite at the slowest configuration,
// lowered to one GEMM (vol2col: output channels x kernel volume times kernel
// volume x output positions), timed through tensor::Sgemm.
void SgemmProbe(const QueryPlan& plan, Outcome* out) {
  const zeus::video::DecodeSpec spec = plan.space.config(plan.space.SlowestId()).spec;
  const int channels = PlannerOptions().apfg.model.base_channels;
  const int m = channels;
  const int k = 1 * 3 * 3 * 3;
  const int side = (spec.resolution_px + 2 - 3) / 2 + 1;
  const int n = spec.segment_length * side * side;
  std::vector<float> a(static_cast<size_t>(m) * k, 0.5f);
  std::vector<float> b(static_cast<size_t>(k) * n, 0.25f);
  std::vector<float> c(static_cast<size_t>(m) * n);
  int reps = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    zeus::tensor::Sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n,
                        0.0f, c.data(), n);
    ++reps;
  } while (reps < 20 || Seconds(t0, Clock::now()) < 0.05);
  const double s = Seconds(t0, Clock::now());
  const double flop = 2.0 * m * n * k;
  const double bytes = 4.0 * (static_cast<double>(m) * k + static_cast<double>(k) * n +
                              static_cast<double>(m) * n);
  out->layer.push_back({"tensor.sgemm_gflops", flop * reps / s / 1e9, "GFLOP/s", reps});
  out->info.push_back({"tensor.sgemm_flop", flop, "count", -1,
                       "m=" + std::to_string(m) + " n=" + std::to_string(n) +
                           " k=" + std::to_string(k)});
  out->info.push_back({"tensor.sgemm_bytes", bytes, "bytes", -1, "computed from shapes"});
}

}  // namespace

void RunLadder(const Ladder& ladder, Outcome* out) {
  std::vector<double> client, front, exec, self, lookup, localize, evaluate,
      plan_s, invocations, modeled_fps, encode, decode, bytes, copy, grow;
  Probes probes;
  std::map<std::string, std::shared_ptr<QueryPlan>> plans;  // by plan key
  // Copied: stream_window's appends replace the dataset object between ops.
  std::optional<zeus::video::DatasetProfile> profile;

  for (const LadderOp& op : ladder.ops) {
    if (ladder.before) ladder.before(op);
    const zeus::video::SyntheticDataset* ds = op.engine->dataset(op.dataset);
    if (ds == nullptr) {
      out->Fail("ladder: dataset " + op.dataset + " is gone");
      return;
    }
    if (!profile) profile = ds->profile();
    const std::string what = "ladder " + op.dataset;

    double client_s = op.client_s;
    if (ladder.client) {
      Prepare(ladder, op);
      auto r = Timed([&] { return ladder.client(op); }, &client_s);
      if (!r.ok()) {
        out->Fail(what + " client: " + r.status().ToString());
        continue;
      }
      if (!CheckAnswer(r.value(), op.reference, what + " client", out)) continue;
    }

    Prepare(ladder, op);
    double exec_s = 0.0;
    auto er = Timed([&] { return op.engine->Execute(op.dataset, op.query); }, &exec_s);
    if (!er.ok()) {
      out->Fail(what + " exec: " + er.status().ToString());
      continue;
    }
    if (!CheckAnswer(er.value(), op.reference, what + " exec", out)) continue;

    Prepare(ladder, op);
    double lookup_s = 0.0;
    auto lk = Timed(
        [&] {
          return op.engine->plan_cache().GetOrPlan(op.plan_key, ds,
                                                   op.query.action_classes,
                                                   op.query.accuracy_target);
        },
        &lookup_s);
    if (!lk.ok() || lk.value().plan_seconds > 0.0) {
      out->Fail(what + ": the ladder's plan lookup missed the operation's plan");
      continue;
    }
    const std::shared_ptr<QueryPlan> plan = lk.value().plan;
    plans.emplace(op.plan_key, plan);

    const auto test = TestVideos(*ds);
    double localize_s = 0.0;
    auto run = Timed(
        [&]() -> std::optional<zeus::core::RunResult> {
          auto localizer = zeus::engine::ExecutorFactory::Make(
              zeus::engine::ExecutionOptions{}, plan.get(), ds, test.size());
          if (!localizer.ok()) return std::nullopt;
          return localizer.value()->Localize(test);
        },
        &localize_s);
    if (!run) {
      out->Fail(what + ": the executor factory refused the plan");
      continue;
    }
    double evaluate_s = 0.0;
    const zeus::core::PrfMetrics prf = Timed(
        [&] {
          return zeus::core::EvaluateVideos(test, plan->targets, run->masks,
                                            zeus::core::EvalOptions{});
        },
        &evaluate_s);
    if (prf.f1 != op.reference.f1) {
      out->Fail(what + ": localize + evaluate disagree with the reference", true);
    }

    double enc_s = 0.0, dec_s = 0.0;
    const std::string wire =
        Timed([&] { return zeus::cluster::EncodeQueryResult(op.result); }, &enc_s);
    QueryResult back;
    const bool decoded =
        Timed([&] { return zeus::cluster::DecodeQueryResult(wire, &back); }, &dec_s);
    if (!decoded || AnswerOf(back) != AnswerOf(op.result)) {
      out->Fail(what + ": the answer did not survive the wire codec", true);
    }

    if (copy.size() < kDatasetSamples) {
      std::optional<zeus::video::SyntheticDataset> replica;
      copy.push_back(TimeIt([&] { replica.emplace(*ds); }));
      grow.push_back(TimeIt([&] {
        replica->GrowTo(replica->stream_length() +
                            zeus::video::SyntheticDataset::kStreamBlockFrames,
                        replica->frame_epoch() + 1);
      }));
    }
    if (probes.step.size() < kMaxSteps || probes.decode.size() < kMaxSegments) {
      Probe(*plan, ladder.state != PlanState::kHot, test, &probes);
    }

    client.push_back(client_s);
    exec.push_back(exec_s);
    lookup.push_back(lookup_s);
    localize.push_back(localize_s);
    evaluate.push_back(evaluate_s);
    plan_s.push_back(op.plan_s);
    front.push_back(client_s - exec_s - op.plan_s);
    self.push_back(exec_s - lookup_s - localize_s - evaluate_s);
    invocations.push_back(static_cast<double>(run->invocations));
    modeled_fps.push_back(run->ThroughputFps());
    encode.push_back(enc_s);
    decode.push_back(dec_s);
    bytes.push_back(static_cast<double>(wire.size()));
  }
  if (client.empty()) {
    out->Fail("ladder: no operation completed");
    return;
  }

  out->layer.push_back(Us("client_us_p50", client));
  out->layer.push_back(Us("front_us_p50", front));
  out->layer.push_back(Us("engine.exec_us_p50", exec));
  out->layer.push_back(Us("engine.self_us_p50", self));
  out->layer.push_back(Us("engine.plan_lookup_us_p50", lookup));
  out->layer.push_back(Us("core.localize_us_p50", localize));
  out->layer.push_back(Us("core.evaluate_us_p50", evaluate));
  out->layer.push_back({"core.invocations_per_query", Median(invocations), "count",
                        static_cast<long>(invocations.size())});
  out->layer.push_back({"core.modeled_fps", Median(modeled_fps), "1/s",
                        static_cast<long>(modeled_fps.size())});
  out->layer.push_back(Us("cluster.result_encode_us_p50", encode));
  out->layer.push_back(Us("cluster.result_decode_us_p50", decode));
  out->layer.push_back({"cluster.result_bytes", Median(bytes), "bytes",
                        static_cast<long>(bytes.size())});
  out->layer.push_back(Us("rl.greedy_us_p50", probes.greedy));
  out->layer.push_back(Us("rl.step_us_p50", probes.step));
  out->layer.push_back(Us("apfg.process_us_p50", probes.process));
  out->layer.push_back(Us("apfg.forward_us_p50", probes.forward));
  out->layer.push_back(Us("apfg.forward8_us_per_seg", probes.forward8));
  out->layer.push_back(Us("video.decode_us_p50", probes.decode));
  out->layer.push_back(Ms("video.copy_ms_p50", copy));
  out->layer.push_back(Ms("video.grow_ms_p50", grow));

  // Every top-rung operation decomposes exactly into the rungs below it;
  // the medians of the parts should add up to the median of the whole.
  const double parts = Median(front) + Median(plan_s) + Median(self) +
                       Median(lookup) + Median(localize) + Median(evaluate);
  out->info.push_back({"ladder.residual_frac",
                       std::abs(Median(client) - parts) / Median(client), "ratio",
                       static_cast<long>(client.size()),
                       "|client - sum of layer self times| / client"});

  out->layer.push_back({"video.generate_s", TimeIt([&] {
                          zeus::video::SyntheticDataset::Generate(*profile, kDatasetSeed);
                        }),
                        "s", 1});

  std::vector<double> loads;
  const std::string dir = ladder.workdir + "/ladder-plans";
  FreshDir(dir);
  int n = 0;
  for (const auto& [key, plan] : plans) {
    const std::string prefix = dir + "/plan" + std::to_string(n++);
    if (!zeus::core::PlanIo::Save(prefix, *plan).ok()) {
      out->Fail("ladder: PlanIo::Save failed for " + key);
      continue;
    }
    for (int i = 0; i < kPlanLoads; ++i) {
      double s = 0.0;
      auto loaded = Timed(
          [&] {
            return zeus::core::PlanIo::Load(prefix, profile->family, PlannerOptions());
          },
          &s);
      if (!loaded.ok()) {
        out->Fail("ladder: PlanIo::Load failed for " + key);
        break;
      }
      loads.push_back(s);
    }
  }
  out->layer.push_back(Ms("core.plan_load_ms_p50", loads));

  std::vector<double> apfg, profile_s, rl, other;
  for (const auto& [plan, seconds] : ladder.trained) {
    apfg.push_back(plan->apfg_train_seconds);
    profile_s.push_back(plan->profile_seconds);
    rl.push_back(plan->rl_train_seconds);
    other.push_back(seconds - plan->apfg_train_seconds - plan->profile_seconds -
                    plan->rl_train_seconds);
  }
  const long trained = static_cast<long>(ladder.trained.size());
  out->layer.push_back({"core.plan_apfg_train_s", Mean(apfg), "s", trained, "mean per plan"});
  out->layer.push_back({"core.plan_profile_s", Mean(profile_s), "s", trained, "mean per plan"});
  out->layer.push_back({"core.plan_rl_train_s", Mean(rl), "s", trained, "mean per plan"});
  out->layer.push_back({"core.plan_other_s", Mean(other), "s", trained,
                        "planner wall minus the three phases"});

  SgemmProbe(*plans.begin()->second, out);
}

}  // namespace zeusbench
