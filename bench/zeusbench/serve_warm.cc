// serve_warm: the interactive analyst's deployed path. Two in-process
// ShardServers and a Router with replication 2 on 127.0.0.1; the datasets
// are registered by DatasetSpec through the router and the PoleVault and
// TennisServe plans are trained in set-up, so plans and features are hot.
// Four client threads, each with its own RemoteShard to the router port,
// run a closed loop; every pair of operations a thread sends holds both
// queries, in an order drawn from the seed. One second of untimed warm-up
// precedes the timed phase.

#include <random>
#include <thread>

#include "cluster/remote_shard.h"
#include "cluster/router.h"
#include "cluster/shard_server.h"
#include "workload.h"

namespace zeusbench {

using zeus::cluster::ExecRequest;
using zeus::cluster::RemoteShard;
using zeus::cluster::Router;
using zeus::cluster::ShardServer;

namespace {

constexpr int kShards = 2;
constexpr int kClients = 4;
constexpr double kWarmupSeconds = 1.0;

struct Cluster {
  std::vector<std::unique_ptr<ShardServer>> shards;
  std::unique_ptr<Router> router;
  ~Cluster() {
    if (router != nullptr) router->Stop();
    for (auto& s : shards) s->Stop();
  }
};

RemoteShard::Options ClientTo(int port, const std::string& name) {
  RemoteShard::Options o;
  o.host = "127.0.0.1";
  o.port = port;
  o.name = name;
  return o;
}

// Builds the cluster, registers both datasets through the router and trains
// the two warm plans there. Returns the training answers, or an error.
zeus::common::Status SetUp(const std::string& persist,
                           const std::vector<const Query*>& queries, Cluster* c,
                           std::vector<zeus::engine::QueryResult>* trained) {
  FreshDir(persist);
  std::vector<Router::Endpoint> endpoints;
  for (int i = 0; i < kShards; ++i) {
    ShardServer::Options so;
    so.name = "shard" + std::to_string(i);
    so.engine.num_workers = 2;
    so.engine.planner = PlannerOptions();
    so.engine.cache.persist_dir = persist;
    c->shards.push_back(std::make_unique<ShardServer>(so));
    ZEUS_RETURN_IF_ERROR(c->shards.back()->Start());
    endpoints.push_back({"127.0.0.1", c->shards.back()->port()});
  }
  Router::Options ro;
  ro.shards = endpoints;
  ro.replication = 2;
  c->router = std::make_unique<Router>(ro);
  ZEUS_RETURN_IF_ERROR(c->router->Start());
  for (const Query* q : queries) {
    zeus::cluster::DatasetSpec spec;
    spec.name = q->dataset;
    spec.family = q->family;
    spec.seed = kDatasetSeed;
    spec.num_videos = kVideos;
    spec.frames_per_video = kFramesPerVideo;
    auto reg = c->router->RegisterDataset(spec);
    if (!reg.ok()) return reg.status();
  }
  trained->clear();
  for (const Query* q : queries) {
    auto r = c->router->Execute(q->dataset, q->Sql());
    if (!r.ok()) return r.status();
    trained->push_back(r.value());
  }
  return zeus::common::Status::Ok();
}

// The query a client sends as its i-th operation: each pair holds both
// queries, the order within a pair drawn from the client's seed.
class Sequence {
 public:
  explicit Sequence(uint64_t seed) : rng_(seed) {}
  int Next() {
    if (pos_ == 0) first_ = static_cast<int>(rng_() & 1);
    const int q = pos_ == 0 ? first_ : 1 - first_;
    pos_ ^= 1;
    return q;
  }

 private:
  std::mt19937_64 rng_;
  int pos_ = 0;
  int first_ = 0;
};

uint64_t ClientSeed(uint64_t seed, int client) { return seed * 1000 + client; }

}  // namespace

Outcome RunServeWarm(const Args& args, Trace* trace) {
  Outcome out;
  out.latency_what = "routed query, 4 closed-loop clients";
  const std::vector<const Query*> queries = {&PoleVault(), &TennisServe()};
  const std::string persist = args.workdir + "/serve_warm-plans";

  std::unique_ptr<Cluster> cluster;
  std::vector<zeus::engine::QueryResult> trained;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cluster.reset();
    zeus::common::Status st;
    out.setup_s.push_back(TimeIt([&] {
      cluster = std::make_unique<Cluster>();
      st = SetUp(persist, queries, cluster.get(), &trained);
    }));
    if (!st.ok()) {
      out.Fail("set-up: " + st.ToString());
      return out;
    }
  }

  std::vector<Answer> refs;
  std::vector<zeus::engine::QueryEngine*> homes;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = *queries[i];
    const int home = cluster->router->HomeOf(q.dataset);
    if (home < 0) {
      out.Fail(q.action + ": no live home shard");
      return out;
    }
    zeus::engine::QueryEngine& engine = cluster->shards[static_cast<size_t>(home)]->engine();
    const auto ref = Reference(engine.CachedPlan(q.dataset, q.Parsed()).get(),
                               engine.dataset(q.dataset), q.Parsed(), q.action, &out);
    if (!ref) return out;
    if (!CheckAnswer(trained[i], *ref, q.action + " (set-up)", &out)) return out;
    refs.push_back(*ref);
    homes.push_back(&engine);
  }
  std::vector<ExecRequest> requests;
  for (const Query* q : queries) {
    ExecRequest req;
    req.dataset = q->dataset;
    req.sql = q->Sql();
    requests.push_back(req);
  }

  auto counters = [&] {
    Counters c;
    for (auto& s : cluster->shards) c = c + Counters::Of(s->engine().Stats(false));
    return c;
  };
  const Counters before = counters();
  const int64_t failovers_before = cluster->router->Stats().read_failovers;
  const int port = cluster->router->port();
  std::vector<Outcome> tallies(kClients);
  std::vector<SpanLog*> logs;
  for (int t = 0; t < kClients; ++t) logs.push_back(trace->NewLog());
  const Clock::time_point warm_end = After(Clock::now(), kWarmupSeconds);
  const Clock::time_point end = After(warm_end, args.seconds);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Outcome& tally = tallies[static_cast<size_t>(t)];
      RemoteShard client(ClientTo(port, "client" + std::to_string(t)));
      Sequence seq(ClientSeed(args.seed, t));
      for (int64_t op = 0;; ++op) {
        const int qi = seq.Next();
        const Clock::time_point t0 = Clock::now();
        if (t0 >= end) break;
        auto r = client.Execute(requests[static_cast<size_t>(qi)]);
        const Clock::time_point t1 = Clock::now();
        if (t0 < warm_end) continue;
        ++tally.attempted;
        if (logs[static_cast<size_t>(t)] != nullptr) {
          logs[static_cast<size_t>(t)]->Add("query", op, 0, t0, t1);
        }
        const std::string& what = queries[static_cast<size_t>(qi)]->action;
        if (!r.ok()) {
          tally.Fail(what + ": " + r.status().ToString());
        } else if (CheckAnswer(r.value(), refs[static_cast<size_t>(qi)], what, &tally)) {
          tally.latency_s.push_back(Seconds(t0, t1));
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  out.wall_s = Seconds(warm_end, Clock::now());
  out.peak_heap_mb = args.heap->PeakMb();
  for (const Outcome& t : tallies) {
    out.attempted += t.attempted;
    out.failed += t.failed;
    out.wrong_answer = out.wrong_answer || t.wrong_answer;
    out.f1_sum += t.f1_sum;
    out.answers += t.answers;
    out.latency_s.insert(out.latency_s.end(), t.latency_s.begin(), t.latency_s.end());
    for (const std::string& e : t.errors) {
      if (out.errors.size() < 8) out.errors.push_back(e);
    }
  }
  AddCounterMetrics(before, counters(), &out);
  out.info.push_back({"cluster.read_failovers",
                      static_cast<double>(cluster->router->Stats().read_failovers -
                                          failovers_before),
                      "count"});

  if (!trace->enabled()) return out;

  // The ladder replays client 0's sequence from its first operation.
  Sequence seq(ClientSeed(args.seed, 0));
  Ladder ladder;
  ladder.state = PlanState::kHot;
  ladder.workdir = args.workdir;
  for (size_t i = 0; i < kLadderOps; ++i) {
    const size_t qi = static_cast<size_t>(seq.Next());
    LadderOp op;
    op.engine = homes[qi];
    op.dataset = queries[qi]->dataset;
    op.query = queries[qi]->Parsed();
    op.plan_key = queries[qi]->PlanKey();
    op.reference = refs[qi];
    op.result = trained[qi];
    ladder.ops.push_back(op);
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    ladder.trained.emplace_back(homes[i]->CachedPlan(queries[i]->dataset,
                                                     queries[i]->Parsed()),
                                trained[i].plan_seconds);
  }

  // The cluster's own rungs: client -> router (wire), the router in
  // process, router -> home shard (wire), the home shard's engine inline.
  RemoteShard to_router(ClientTo(port, "ladder"));
  std::vector<std::unique_ptr<RemoteShard>> to_shard;
  for (auto& s : cluster->shards) {
    to_shard.push_back(std::make_unique<RemoteShard>(ClientTo(s->port(), "ladder")));
  }
  std::vector<double> front_door, router_hop, shard_wire;
  for (const LadderOp& op : ladder.ops) {
    const size_t qi = op.dataset == queries[0]->dataset ? 0 : 1;
    const int home = cluster->router->HomeOf(op.dataset);
    double client_s = 0.0, router_s = 0.0, shard_s = 0.0, engine_s = 0.0;
    bool ok = true;
    client_s = TimeIt([&] { ok = ok && to_router.Execute(requests[qi]).ok(); });
    router_s = TimeIt([&] { ok = ok && cluster->router->Execute(op.dataset, requests[qi].sql).ok(); });
    shard_s = TimeIt([&] {
      ok = ok && to_shard[static_cast<size_t>(home)]->Execute(requests[qi]).ok();
    });
    engine_s = TimeIt([&] { ok = ok && op.engine->Execute(op.dataset, op.query).ok(); });
    if (!ok) {
      out.Fail("ladder: a cluster rung failed");
      continue;
    }
    front_door.push_back(client_s - router_s);
    router_hop.push_back(router_s - shard_s);
    shard_wire.push_back(shard_s - engine_s);
  }
  auto us = [](const std::string& name, const std::vector<double>& v) {
    return Metric{name, Percentile(v, 0.5) * 1e6, "us", static_cast<long>(v.size())};
  };
  out.info.push_back(us("cluster.front_door_us_p50", front_door));
  out.info.push_back(us("cluster.router_hop_us_p50", router_hop));
  out.info.push_back(us("cluster.shard_wire_us_p50", shard_wire));

  ladder.client = [&](const LadderOp& op) {
    return to_router.Execute(requests[op.dataset == queries[0]->dataset ? 0 : 1]);
  };
  RunLadder(ladder, &out);
  return out;
}

}  // namespace zeusbench
