#include "cluster/router.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/stringutil.h"

namespace zeus::cluster {

namespace {

// Merge per-dataset rows from many shard snapshots by name (counters add,
// histograms merge, queue depth sums — a dataset only ever lives on one
// shard at a time, but across a failover its history spans two).
void MergeDatasetRows(std::vector<engine::DatasetStats>* into,
                      const std::vector<engine::DatasetStats>& rows) {
  for (const auto& row : rows) {
    auto it = std::find_if(
        into->begin(), into->end(),
        [&](const engine::DatasetStats& d) { return d.dataset == row.dataset; });
    if (it == into->end()) {
      into->push_back(row);
      continue;
    }
    it->queue_depth += row.queue_depth;
    it->weight = std::max(it->weight, row.weight);
    it->submitted += row.submitted;
    it->completed += row.completed;
    it->failed += row.failed;
    it->cancelled += row.cancelled;
    it->rejected += row.rejected;
    it->queue_wait.Merge(row.queue_wait);
    it->exec.Merge(row.exec);
  }
}

}  // namespace

Router::Router(Options options)
    : opts_(std::move(options)),
      server_({opts_.host, opts_.port, opts_.write_deadline_ms, opts_.name},
              [this](const net::Frame& req) { return Dispatch(req); },
              [this](const std::string& path) -> std::optional<std::string> {
                if (path != "/metrics") return std::nullopt;
                return PrometheusText(GroupStatsNow(), Health());
              }) {}

Router::~Router() { Stop(); }

common::Status Router::Start() {
  if (opts_.shards.empty()) {
    return common::Status::InvalidArgument("router needs at least one shard");
  }
  if (running_.load()) return common::Status::FailedPrecondition("running");

  shards_.clear();
  shards_.reserve(opts_.shards.size());
  for (size_t i = 0; i < opts_.shards.size(); ++i) {
    ShardState state;
    state.endpoint = opts_.shards[i];

    RemoteShard::Options c;
    c.host = state.endpoint.host;
    c.port = state.endpoint.port;
    c.call_deadline_ms = opts_.call_deadline_ms;
    c.name = opts_.name + "->s" + std::to_string(i);
    state.client = std::make_unique<RemoteShard>(c);

    // The health probe never retries: a miss must be a miss, not three
    // stacked attempts that stretch the detection window.
    RemoteShard::Options p = c;
    p.max_attempts = 1;
    p.call_deadline_ms = opts_.health_deadline_ms;
    p.connect_timeout_ms = opts_.health_deadline_ms;
    p.name = c.name + ":probe";
    state.probe = std::make_unique<RemoteShard>(p);

    shards_.push_back(std::move(state));
  }
  alive_count_ = static_cast<int>(shards_.size());
  opts_.replication = std::max(
      1, std::min(opts_.replication, static_cast<int>(shards_.size())));
  RebuildRingLocked();  // no threads yet; the "Locked" contract is vacuous

  ZEUS_RETURN_IF_ERROR(server_.Start());
  running_.store(true);
  if (opts_.health_interval_ms > 0) {
    health_thread_ = std::thread([this] { HealthLoop(); });
  }
  ZEUS_LOG(Info) << opts_.name << " routes over " << shards_.size()
                 << " shard(s)";
  return common::Status::Ok();
}

void Router::Stop() {
  if (!running_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    health_cv_.notify_all();
  }
  if (health_thread_.joinable()) health_thread_.join();
  server_.Stop();
}

// ---- Routing ---------------------------------------------------------------

void Router::RebuildRingLocked() {
  std::vector<int> alive_ids;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].alive) alive_ids.push_back(static_cast<int>(i));
  }
  ring_ = alive_ids.empty()
              ? nullptr
              : std::make_unique<engine::ShardRing>(alive_ids);
}

std::vector<int> Router::CandidatesLocked(const std::string& dataset) const {
  std::vector<int> out;
  if (alive_count_ == 0 || ring_ == nullptr) return out;
  auto it = datasets_.find(dataset);
  if (it == datasets_.end()) {
    out.push_back(ring_->ShardFor(dataset));
    return out;
  }
  const auto& holders = it->second.replica_epochs;
  // Ring order: primary first, then successors — the stable preference
  // that keeps each dataset's plan cache hot on one shard.
  for (int id : ring_->ShardsFor(dataset, opts_.replication)) {
    if (holders.count(id) > 0 && shards_[id].alive) out.push_back(id);
  }
  // Holders outside the current target set (placement drifted after a
  // membership change, repair not landed yet) still serve correct reads.
  for (const auto& [id, epoch] : holders) {
    (void)epoch;
    if (shards_[id].alive &&
        std::find(out.begin(), out.end(), id) == out.end()) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<int> Router::LiveHoldersLocked(const std::string& dataset) const {
  std::vector<int> out;
  auto it = datasets_.find(dataset);
  if (it == datasets_.end()) return out;
  for (const auto& [id, epoch] : it->second.replica_epochs) {
    (void)epoch;
    if (shards_[id].alive) out.push_back(id);
  }
  return out;
}

std::vector<Router::Target> Router::TargetsLocked(
    const std::vector<int>& ids) const {
  std::vector<Target> targets;
  for (int id : ids) targets.push_back({id, shards_[id].client.get()});
  return targets;
}

RemoteShard* Router::LiveClient(int id) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (id < 0 || id >= static_cast<int>(shards_.size())) return nullptr;
  return shards_[id].alive ? shards_[id].client.get() : nullptr;
}

std::vector<Router::Target> Router::LiveProbes() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  std::vector<Target> probes;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].alive) {
      probes.push_back({static_cast<int>(i), shards_[i].probe.get()});
    }
  }
  return probes;
}

template <typename T>
common::Result<std::pair<int, T>> Router::ReadFromReplicas(
    const std::string& dataset,
    const std::function<common::Result<T>(RemoteShard&)>& call) {
  std::vector<int> candidates;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    candidates = CandidatesLocked(dataset);
  }
  if (candidates.empty()) {
    return common::Status::Unavailable("no live replica of '" + dataset +
                                       "'; re-homing, retry");
  }

  // Primary-first with in-call failover: a retryable failure (dead shard,
  // lost response) moves to the next replica inside this call — no
  // health-check round-trip, no client-visible error window. Re-running a
  // read on another replica is safe: a replica's answer is a pure function
  // of its spec, applied frames and plans, and the epoch annotation marks
  // a replica that is behind.
  common::Status last = common::Status::Unavailable("no candidate tried");
  for (size_t i = 0; i < candidates.size(); ++i) {
    RemoteShard* client = LiveClient(candidates[i]);
    if (client == nullptr) continue;  // died since the snapshot
    auto result = call(*client);
    if (result.ok()) {
      if (i > 0) {
        std::lock_guard<std::mutex> lock(state_mu_);
        ++read_failovers_;
      }
      return std::make_pair(candidates[i], std::move(result).value());
    }
    if (!common::IsRetryable(result.status().code())) return result.status();
    last = result.status();
  }
  return last;
}

template <typename T>
common::Result<T> Router::WriteToReplicas(
    const std::vector<Target>& targets, const std::string& what,
    std::vector<int>* applied,
    const std::function<common::Result<T>(RemoteShard&)>& call) {
  // Primary first. The primary must land (otherwise the write failed); a
  // secondary that misses is left behind and the repair pass catches it up.
  T primary{};
  for (size_t i = 0; i < targets.size(); ++i) {
    auto result = call(*targets[i].client);
    if (result.ok()) {
      if (i == 0) primary = std::move(result).value();
      applied->push_back(targets[i].id);
    } else if (i == 0) {
      return result.status();
    } else {
      ZEUS_LOG(Warning) << opts_.name << " " << what << " on replica shard "
                        << targets[i].id << " failed (repair will retry): "
                        << result.status().ToString();
    }
  }
  return primary;
}

std::vector<std::pair<int, bool>> Router::BehindLocked(
    const std::string& name, const DatasetState& state) const {
  std::vector<std::pair<int, bool>> behind;
  if (alive_count_ == 0 || ring_ == nullptr) return behind;
  for (int id : ring_->ShardsFor(name, opts_.replication)) {
    if (!shards_[id].alive) continue;
    auto it = state.replica_epochs.find(id);
    if (it == state.replica_epochs.end()) {
      behind.emplace_back(id, true);
    } else if (it->second < state.committed_epoch) {
      behind.emplace_back(id, false);
    }
  }
  return behind;
}

bool Router::ForgetIfLost(const std::string& name, int id,
                          const common::Status& st) {
  if (st.code() != common::StatusCode::kNotFound) return false;
  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = datasets_.find(name);
  if (it != datasets_.end()) it->second.replica_epochs.erase(id);
  return true;
}

common::Result<uint64_t> Router::RegisterDataset(const DatasetSpec& spec) {
  std::vector<Target> targets;
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (alive_count_ == 0 || ring_ == nullptr) {
      return common::Status::Unavailable("no alive shards");
    }
    auto it = datasets_.find(spec.name);
    epoch = (it != datasets_.end() ? it->second.committed_epoch : 0) + 1;
    targets = TargetsLocked(ring_->ShardsFor(spec.name, opts_.replication));
  }

  // Fan the write to the whole replica set.
  DatasetSpec stamped = spec;
  stamped.epoch = epoch;
  std::vector<int> applied;
  auto warmed = WriteToReplicas<uint64_t>(
      targets, "registration of '" + spec.name + "'", &applied,
      [&](RemoteShard& shard) { return shard.RegisterDataset(stamped); });
  if (!warmed.ok()) return warmed.status();

  std::lock_guard<std::mutex> lock(state_mu_);
  DatasetState& state = datasets_[spec.name];
  state.spec = stamped;
  state.committed_epoch = std::max(state.committed_epoch, epoch);
  if (state.committed_frames == 0) {
    // Base stream length from the spec's profile; only appends move it.
    state.committed_frames =
        static_cast<uint64_t>(ProfileFor(stamped).frames_per_video);
  }
  for (int id : applied) {
    uint64_t& e = state.replica_epochs[id];
    e = std::max(e, epoch);
  }
  return warmed;
}

common::Result<engine::QueryResult> Router::Execute(const std::string& dataset,
                                                    const std::string& sql,
                                                    int priority) {
  ExecRequest req;
  req.dataset = dataset;
  req.sql = sql;
  req.priority = priority;
  return Execute(req);
}

common::Result<engine::QueryResult> Router::Execute(const ExecRequest& req) {
  auto served = ReadFromReplicas<engine::QueryResult>(
      req.dataset, [&](RemoteShard& shard) { return shard.Execute(req); });
  if (!served.ok()) return served.status();
  engine::QueryResult r = AnnotateResult(
      req.dataset, served.value().first, std::move(served.value().second));
  if (r.plan_seconds > 0) PropagatePlans(req.dataset);
  return r;
}

common::Status Router::RemoveDataset(const std::string& name) {
  std::vector<Target> targets;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (alive_count_ == 0 || ring_ == nullptr) {
      return common::Status::Unavailable("no alive shards");
    }
    // Unknown to the catalog: forward to the ring owner, whose remove of a
    // dataset it never held is a no-op.
    targets = TargetsLocked(datasets_.count(name) > 0
                                ? LiveHoldersLocked(name)
                                : std::vector<int>{ring_->ShardFor(name)});
  }
  // Remove from every live replica; kRemoveDataset is idempotent, so a
  // partial failure is safe to retry wholesale.
  common::Status result = common::Status::Ok();
  for (const Target& t : targets) {
    common::Status st = t.client->RemoveDataset(name);
    if (!st.ok()) result = st;
  }
  if (result.ok()) {
    std::lock_guard<std::mutex> lock(state_mu_);
    datasets_.erase(name);
  }
  return result;
}

// ---- Live streams ----------------------------------------------------------

common::Result<AppendReply> Router::AppendFrames(const std::string& name,
                                                 uint64_t frames) {
  if (frames == 0) {
    return common::Status::InvalidArgument("append needs frames > 0");
  }
  // One append fan-out at a time: the (target, epoch) pair must be stamped
  // against the state the previous append committed.
  std::lock_guard<std::mutex> append_lock(append_mu_);

  std::vector<Target> targets;
  AppendFramesRequest wire;
  wire.name = name;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (alive_count_ == 0 || ring_ == nullptr) {
      return common::Status::Unavailable("no alive shards");
    }
    auto it = datasets_.find(name);
    if (it == datasets_.end()) {
      return common::Status::NotFound("dataset '" + name +
                                      "' is not registered with the router");
    }
    wire.target_frames = it->second.committed_frames + frames;
    wire.epoch = it->second.committed_epoch + 1;
    targets = TargetsLocked(CandidatesLocked(name));
  }
  if (targets.empty()) {
    return common::Status::Unavailable("no live replica of '" + name +
                                       "'; re-homing, retry");
  }

  // Fan the absolute form to every live replica. A secondary that misses
  // stays at its old length and the repair pass replays the SAME absolute
  // (target, epoch) — convergent by construction.
  std::vector<int> applied;
  auto primary = WriteToReplicas<AppendReply>(
      targets, "append to '" + name + "'", &applied,
      [&](RemoteShard& shard) { return shard.AppendFrames(wire); });
  if (!primary.ok()) return primary.status();

  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = datasets_.find(name);
  if (it != datasets_.end()) {
    DatasetState& state = it->second;
    state.committed_frames =
        std::max(state.committed_frames, wire.target_frames);
    state.committed_epoch = std::max(state.committed_epoch, wire.epoch);
    for (int id : applied) {
      uint64_t& e = state.replica_epochs[id];
      e = std::max(e, wire.epoch);
    }
  }
  return primary;
}

common::Result<SubscribeReply> Router::Subscribe(SubscribeRequest req) {
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    if (req.sub_id == 0) {
      req.sub_id = next_sub_id_++;
    } else {
      next_sub_id_ = std::max(next_sub_id_, req.sub_id + 1);
      auto it = subs_.find(req.sub_id);
      if (it != subs_.end()) {
        // Replay of a subscribe that already landed: the routed
        // subscription exists; report the attach without touching its
        // cursor state (the poll path re-attaches the shard side lazily).
        SubscribeReply reply;
        reply.sub_id = req.sub_id;
        reply.attached_existing = true;
        return reply;
      }
    }
  }
  // Attach on the first live replica, primary first.
  auto attach = ReadFromReplicas<SubscribeReply>(
      req.dataset, [&](RemoteShard& shard) { return shard.Subscribe(req); });
  if (!attach.ok()) return attach.status();
  std::lock_guard<std::mutex> lock(subs_mu_);
  RoutedSub& sub = subs_[req.sub_id];
  sub.req = req;
  sub.shard = attach.value().first;
  SubscribeReply reply = attach.value().second;
  reply.sub_id = req.sub_id;
  return reply;
}

common::Result<StreamResultMsg> Router::StreamPoll(uint64_t sub_id,
                                                   uint64_t after_seq,
                                                   uint32_t timeout_ms) {
  {
    // Lost-response replay: the client polls with the cursor of the last
    // update it SAW; if that lags what we already delivered, hand the
    // stored copy back instead of advancing past it.
    std::lock_guard<std::mutex> lock(subs_mu_);
    auto it = subs_.find(sub_id);
    if (it == subs_.end()) {
      return common::Status::NotFound("unknown subscription");
    }
    const RoutedSub& sub = it->second;
    if (sub.delivered_any && after_seq + 1 < sub.next_out_seq) {
      return sub.last_out;
    }
  }

  // Bounded passes: each one either delivers, re-attaches after a failover
  // (and retries), or swallows a window the consumer already has (and
  // retries).
  for (int attempt = 0; attempt < 8; ++attempt) {
    SubscribeRequest req;
    int shard = -1;
    uint64_t remote_after = 0;
    {
      std::lock_guard<std::mutex> lock(subs_mu_);
      auto it = subs_.find(sub_id);
      if (it == subs_.end()) {
        return common::Status::NotFound("unknown subscription");
      }
      req = it->second.req;
      shard = it->second.shard;
      remote_after = it->second.remote_last_seq;
    }

    RemoteShard* client = LiveClient(shard);
    if (client == nullptr) {
      // Host gone: re-attach to the current primary. Same id = same
      // kSubscribe frame; the new host replays its current window, which
      // the epoch dedupe below swallows if it was already delivered.
      auto attach = ReadFromReplicas<SubscribeReply>(
          req.dataset,
          [&](RemoteShard& shard) { return shard.Subscribe(req); });
      if (!attach.ok()) return attach.status();
      std::lock_guard<std::mutex> lock(subs_mu_);
      auto it = subs_.find(sub_id);
      if (it == subs_.end()) {
        return common::Status::NotFound("unknown subscription");
      }
      it->second.shard = attach.value().first;
      it->second.remote_last_seq = 0;
      continue;
    }

    StreamPollRequest poll;
    poll.sub_id = sub_id;
    poll.after_seq = remote_after;
    poll.timeout_ms = timeout_ms;
    auto msg = client->StreamPoll(poll);
    if (!msg.ok()) {
      const common::StatusCode code = msg.status().code();
      if (code == common::StatusCode::kNotFound) {
        // Amnesiac host (restarted under the same endpoint): force a
        // re-attach on the next pass.
        std::lock_guard<std::mutex> lock(subs_mu_);
        auto it = subs_.find(sub_id);
        if (it != subs_.end()) {
          it->second.shard = -1;
          it->second.remote_last_seq = 0;
        }
        continue;
      }
      if (code == common::StatusCode::kUnavailable) {
        // Still alive = a plain long-poll timeout (nothing new in the
        // window) — surface it, the client re-polls. Dead = the host
        // failed mid-poll; the next pass re-attaches.
        if (ShardAlive(shard)) return msg.status();
        continue;
      }
      return msg.status();
    }

    StreamResultMsg out = std::move(msg).value();
    bool duplicate = false;
    {
      std::lock_guard<std::mutex> lock(subs_mu_);
      auto it = subs_.find(sub_id);
      if (it == subs_.end()) {
        return common::Status::NotFound("unknown subscription");
      }
      RoutedSub& sub = it->second;
      sub.shard = shard;
      sub.remote_last_seq = std::max(sub.remote_last_seq, out.seq);
      if (sub.delivered_any &&
          out.result.frame_epoch <= sub.last_epoch_delivered) {
        // Replay of a window the consumer already has (the re-attached
        // host's initial window): swallow it and poll again.
        duplicate = true;
      } else {
        sub.delivered_any = true;
        sub.last_epoch_delivered = out.result.frame_epoch;
        sub.dropped += out.dropped;
        out.dropped = sub.dropped;  // cumulative across failovers
        out.seq = sub.next_out_seq++;
      }
    }
    if (duplicate) continue;
    out.result = AnnotateResult(req.dataset, shard, std::move(out.result));
    {
      std::lock_guard<std::mutex> lock(subs_mu_);
      auto it = subs_.find(sub_id);
      if (it != subs_.end()) it->second.last_out = out;
    }
    return out;
  }
  return common::Status::Unavailable(
      "subscription catch-up still converging; retry");
}

common::Status Router::Unsubscribe(uint64_t sub_id) {
  int shard = -1;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    auto it = subs_.find(sub_id);
    if (it == subs_.end()) return common::Status::Ok();  // idempotent
    shard = it->second.shard;
    subs_.erase(it);
  }
  // Routed state is gone either way; a host we cannot reach reaps the
  // orphan when it stops (and an unsubscribe replay there is kOk).
  RemoteShard* client = LiveClient(shard);
  if (client != nullptr) return client->Unsubscribe(sub_id);
  return common::Status::Ok();
}

engine::QueryResult Router::AnnotateResult(const std::string& dataset,
                                           int served_by,
                                           engine::QueryResult r) {
  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = datasets_.find(dataset);
  const uint64_t committed =
      it != datasets_.end() ? it->second.committed_epoch : 0;
  if (r.epoch == committed) {
    r.consistency = engine::Consistency::kCertain;
    r.divergence.clear();
    ++certain_answers_;
  } else {
    r.consistency = engine::Consistency::kDegraded;
    r.divergence = common::Format(
        "shard %d served epoch %llu, committed epoch is %llu "
        "(replica catch-up in flight)",
        served_by, static_cast<unsigned long long>(r.epoch),
        static_cast<unsigned long long>(committed));
    ++degraded_answers_;
  }
  return r;
}

void Router::PropagatePlans(const std::string& dataset) {
  std::vector<Target> targets;
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    auto it = datasets_.find(dataset);
    if (it == datasets_.end()) return;
    epoch = it->second.committed_epoch + 1;
    targets = TargetsLocked(LiveHoldersLocked(dataset));
  }
  if (targets.empty()) return;

  std::vector<std::pair<int, uint64_t>> applied;
  for (const Target& t : targets) {
    auto sync = t.client->SyncPlans(dataset, epoch);
    if (sync.ok()) {
      applied.emplace_back(t.id, sync.value().epoch);
    } else {
      ZEUS_LOG(Warning) << opts_.name << " plan sync of '" << dataset
                        << "' to shard " << t.id
                        << " failed (repair will retry): "
                        << sync.status().ToString();
    }
  }

  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = datasets_.find(dataset);
  if (it == datasets_.end()) return;  // removed while we were syncing
  it->second.committed_epoch = std::max(it->second.committed_epoch, epoch);
  for (const auto& [id, e] : applied) {
    uint64_t& cur = it->second.replica_epochs[id];
    cur = std::max(cur, e);
    ++resyncs_;
  }
}

void Router::RepairReplicas() {
  struct Fix {
    std::string name;
    DatasetSpec spec;
    uint64_t committed = 0;
    uint64_t frames = 0;  // committed stream length to replay
    int id = -1;
    RemoteShard* client = nullptr;
    bool full_register = false;  // missing replica vs. lagging epoch
  };
  std::vector<Fix> fixes;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (const auto& [name, state] : datasets_) {
      for (const auto& [id, missing] : BehindLocked(name, state)) {
        fixes.push_back({name, state.spec, state.committed_epoch,
                         state.committed_frames, id,
                         shards_[id].client.get(), missing});
      }
    }
  }

  for (const Fix& fix : fixes) {
    // Frame catch-up (kAppendFrames, absolute form = idempotent no-op on a
    // replica that already has them) runs BEFORE the replica may claim the
    // committed epoch: a plan sync also advances epochs, so an epoch that
    // runs ahead of the replica's stream length would hide a missed append
    // forever (the silent-stale hole the certain-answer contract closes).
    const uint64_t base =
        static_cast<uint64_t>(ProfileFor(fix.spec).frames_per_video);
    const bool replay_frames = fix.frames > base;
    if (fix.full_register) {
      // New replica: full registration with the catalog handoff. Epoch =
      // committed (it is catching up to existing state, not creating new
      // state), so its first answer is already kCertain — unless frames
      // must be replayed too, in which case the APPEND carries the epoch
      // and the registration claims none.
      DatasetSpec spec = fix.spec;
      spec.warm_plans = true;
      spec.epoch = replay_frames ? 0 : fix.committed;
      auto reg = fix.client->RegisterDataset(spec);
      if (!reg.ok()) {
        ZEUS_LOG(Warning) << opts_.name << " repair: registering '"
                          << fix.name << "' on shard " << fix.id
                          << " failed: " << reg.status().ToString();
        continue;
      }
      if (replay_frames) {
        AppendFramesRequest grow;
        grow.name = fix.name;
        grow.target_frames = fix.frames;
        grow.epoch = fix.committed;
        auto grown = fix.client->AppendFrames(grow);
        if (!grown.ok()) {
          // Registered but behind: no epoch recorded, so the next pass
          // comes back through this branch and retries the replay.
          ZEUS_LOG(Warning) << opts_.name << " repair: frame replay of '"
                            << fix.name << "' (" << fix.frames
                            << " frames) to shard " << fix.id
                            << " failed: " << grown.status().ToString();
          continue;
        }
      }
      ZEUS_LOG(Info) << opts_.name << " repair: dataset '" << fix.name
                     << "' replicated to shard " << fix.id << " ("
                     << reg.value() << " plan(s) warmed"
                     << (replay_frames ? ", frames replayed" : "") << ")";
      std::lock_guard<std::mutex> lock(state_mu_);
      auto it = datasets_.find(fix.name);
      if (it == datasets_.end()) continue;
      uint64_t& e = it->second.replica_epochs[fix.id];
      e = std::max(e, fix.committed);
      ++rehomed_;
    } else {
      if (replay_frames) {
        // Epoch 0 on purpose: grow the frames without advancing the
        // applied epoch — the SyncPlans below advances it only once the
        // plans are current too.
        AppendFramesRequest grow;
        grow.name = fix.name;
        grow.target_frames = fix.frames;
        grow.epoch = 0;
        auto grown = fix.client->AppendFrames(grow);
        if (ForgetIfLost(fix.name, fix.id, grown.status())) continue;
        if (!grown.ok()) {
          ZEUS_LOG(Warning) << opts_.name << " repair: frame replay of '"
                            << fix.name << "' to shard " << fix.id
                            << " failed: " << grown.status().ToString();
          continue;  // do NOT sync plans — the epoch would outrun the frames
        }
      }
      auto sync = fix.client->SyncPlans(fix.name, fix.committed);
      if (ForgetIfLost(fix.name, fix.id, sync.status())) continue;
      if (!sync.ok()) {
        ZEUS_LOG(Warning) << opts_.name << " repair: plan sync of '"
                          << fix.name << "' to shard " << fix.id
                          << " failed: " << sync.status().ToString();
        continue;
      }
      std::lock_guard<std::mutex> lock(state_mu_);
      auto it = datasets_.find(fix.name);
      if (it == datasets_.end()) continue;
      uint64_t& e = it->second.replica_epochs[fix.id];
      e = std::max(e, sync.value().epoch);
      ++resyncs_;
    }
  }
}

// ---- Stats -----------------------------------------------------------------

engine::GroupStats Router::GroupStatsNow() {
  // Collect outside the lock (each probe is one bounded attempt; a slow
  // shard delays the scrape, never routing).
  std::vector<std::pair<int, StatsReply>> fresh;
  for (const Target& t : LiveProbes()) {
    auto reply = t.client->Stats();
    if (reply.ok()) fresh.emplace_back(t.id, std::move(reply).value());
  }

  engine::GroupStats group;
  std::lock_guard<std::mutex> lock(state_mu_);
  for (auto& [id, reply] : fresh) {
    shards_[id].last_stats = reply.stats;
    shards_[id].last_stats.shard = id;
    shards_[id].have_stats = true;
  }
  group.num_shards = alive_count_;
  for (size_t i = 0; i < shards_.size(); ++i) {
    // Alive shards contribute their latest snapshot (the just-fetched one
    // when the probe answered, the previous one when it was slow).
    if (shards_[i].alive && shards_[i].have_stats) {
      group.Absorb(shards_[i].last_stats);
    }
  }
  if (have_carry_) group.AbsorbTotals(carry_);
  return group;
}

ClusterHealth Router::Health() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  ClusterHealth health;
  health.failovers = failovers_;
  health.rehomed_datasets = rehomed_;
  health.dead_shards =
      static_cast<int64_t>(shards_.size()) - alive_count_;
  health.replication = opts_.replication;
  health.read_failovers = read_failovers_;
  health.certain_answers = certain_answers_;
  health.degraded_answers = degraded_answers_;
  health.plan_resyncs = resyncs_;
  for (const auto& [name, state] : datasets_) {
    ClusterHealth::DatasetPlacement placement;
    placement.dataset = name;
    placement.primary =
        (alive_count_ > 0 && ring_ != nullptr) ? ring_->ShardFor(name) : -1;
    placement.committed_epoch = state.committed_epoch;
    placement.replicas = static_cast<int>(LiveHoldersLocked(name).size());
    health.replicas_behind +=
        static_cast<int64_t>(BehindLocked(name, state).size());
    health.placements.push_back(std::move(placement));
  }
  return health;
}

StatsReply Router::Stats() {
  engine::GroupStats group = GroupStatsNow();
  ClusterHealth health = Health();
  StatsReply reply;
  // Exact aggregate (alive shards + dead-shard carry), plus the merged
  // per-dataset rows so `.stats`-style clients keep their breakdown.
  static_cast<engine::ServingCounters&>(reply.stats) =
      static_cast<const engine::ServingCounters&>(group);
  for (const auto& shard : group.shards) {
    MergeDatasetRows(&reply.stats.datasets, shard.datasets);
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (have_carry_) MergeDatasetRows(&reply.stats.datasets, carry_.datasets);
  }
  reply.num_shards = group.num_shards;
  reply.failovers = health.failovers;
  reply.rehomed_datasets = health.rehomed_datasets;
  reply.dead_shards = health.dead_shards;
  reply.replication = health.replication;
  reply.replicas_behind = health.replicas_behind;
  reply.read_failovers = health.read_failovers;
  reply.certain_answers = health.certain_answers;
  reply.degraded_answers = health.degraded_answers;
  reply.plan_resyncs = health.plan_resyncs;
  return reply;
}

// ---- Health checking / failover --------------------------------------------

int Router::CheckNow() {
  std::lock_guard<std::mutex> pass(check_mu_);
  int newly_dead = 0;
  for (const Target& t : LiveProbes()) {
    auto reply = t.client->Stats();
    std::unique_lock<std::mutex> lock(state_mu_);
    ShardState& s = shards_[t.id];
    if (!s.alive) continue;
    if (reply.ok()) {
      s.misses = 0;
      s.last_stats = reply.value().stats;
      s.last_stats.shard = t.id;
      s.have_stats = true;
    } else {
      ++s.misses;
      ZEUS_LOG(Warning) << opts_.name << " shard " << t.id << " missed probe "
                        << s.misses << "/" << opts_.misses_to_dead << ": "
                        << reply.status().ToString();
      if (s.misses >= opts_.misses_to_dead) {
        FailOverLocked(lock, t.id);
        ++newly_dead;
      }
    }
  }
  // Converge placement every pass: replicas that missed a registration or
  // plan sync earlier catch up here. No-op when nothing is behind.
  RepairReplicas();
  return newly_dead;
}

void Router::FailOverLocked(std::unique_lock<std::mutex>& lock, int id) {
  ShardState& s = shards_[id];
  if (!s.alive) return;

  // Declare dead. Only this shard's vnodes leave the ring, so only the
  // datasets it owned change primary — and with replication >= 2 the new
  // primary is a successor that ALREADY holds a replica, so their queries
  // never stop flowing. Dropping the dead shard from every replica set is
  // what makes the repair pass see the deficit.
  s.alive = false;
  s.misses = 0;
  --alive_count_;
  ++failovers_;
  if (s.have_stats) {
    carry_.Merge(s.last_stats);
    have_carry_ = true;
  }
  RebuildRingLocked();
  int lost = 0;
  for (auto& [name, state] : datasets_) {
    (void)name;
    lost += state.replica_epochs.erase(id) > 0 ? 1 : 0;
  }
  s.client->CloseConnections();
  s.probe->CloseConnections();
  ZEUS_LOG(Warning) << opts_.name << " declared shard " << id << " ("
                    << s.endpoint.host << ":" << s.endpoint.port
                    << ") dead; lost " << lost
                    << " replica(s), repairing placement";

  // Restore the replication factor without the lock (dataset regeneration
  // and plan warm-up take real time). A dataset that kept a live replica
  // keeps answering during the whole repair; one that lost its only
  // replica fails retryably (CandidatesLocked returns empty) until its
  // re-registration lands — exactly the replication-1 window.
  lock.unlock();
  RepairReplicas();
  lock.lock();
}

void Router::HealthLoop() {
  std::unique_lock<std::mutex> lk(health_mu_);
  while (running_.load()) {
    health_cv_.wait_for(lk, std::chrono::milliseconds(opts_.health_interval_ms),
                        [&] { return !running_.load(); });
    if (!running_.load()) return;
    lk.unlock();
    CheckNow();
    lk.lock();
  }
}

bool Router::ShardAlive(int id) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (id < 0 || id >= static_cast<int>(shards_.size())) return false;
  return shards_[id].alive;
}

int Router::num_alive() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return alive_count_;
}

int Router::HomeOf(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (alive_count_ == 0 || ring_ == nullptr) return -1;
  return ring_->ShardFor(dataset);
}

std::vector<int> Router::ReplicasOf(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return LiveHoldersLocked(dataset);
}

// ---- Client-facing server --------------------------------------------------

net::Frame Router::Dispatch(const net::Frame& req) {
  using net::FrameType;
  switch (req.type) {
    case FrameType::kPing:
      return MakeReplyFrame(req.request_id, FrameType::kPong);
    case FrameType::kExecute:
      return AnswerFrame(
          req, DecodeExecRequest,
          [this](const ExecRequest& exec) { return Execute(exec); },
          FrameType::kResult, EncodeQueryResult);
    case FrameType::kSubmit:
      return HandleSubmit(req);
    case FrameType::kCancel:
    case FrameType::kTicketState:
    case FrameType::kTicketWait:
      return HandleTicketOp(req);
    case FrameType::kStats:
      return MakeReplyFrame(req.request_id, FrameType::kStatsReply,
                            EncodeStatsReply(Stats()));
    case FrameType::kRegisterDataset:
      return AnswerFrame(
          req, DecodeDatasetSpec,
          [this](const DatasetSpec& spec) { return RegisterDataset(spec); },
          FrameType::kRegisterReply, EncodeRegisterReply);
    case FrameType::kRemoveDataset:
      return AnswerFrame(req, DecodeName, [this](const std::string& name) {
        return RemoveDataset(name);
      });
    case FrameType::kAppendFrames:
      return AnswerFrame(
          req, DecodeAppendFrames,
          [this](const AppendFramesRequest& append)
              -> common::Result<AppendReply> {
            if (append.relative_frames == 0) {
              return common::Status::InvalidArgument(
                  "the router takes the relative append form "
                  "(relative_frames > 0); the absolute form is the "
                  "router->shard direction");
            }
            return AppendFrames(append.name, append.relative_frames);
          },
          FrameType::kAppendReply, EncodeAppendReply);
    case FrameType::kSubscribe:
      return AnswerFrame(
          req, DecodeSubscribeRequest,
          [this](const SubscribeRequest& sub) { return Subscribe(sub); },
          FrameType::kSubscribeReply, EncodeSubscribeReply);
    case FrameType::kStreamPoll:
      return AnswerFrame(
          req, DecodeStreamPoll,
          [this](const StreamPollRequest& poll) {
            return StreamPoll(poll.sub_id, poll.after_seq, poll.timeout_ms);
          },
          FrameType::kStreamResult, EncodeStreamResult);
    case FrameType::kUnsubscribe:
      return AnswerFrame(req, DecodeTicketId, [this](uint64_t id) {
        return Unsubscribe(id);
      });
    default:
      return MakeUnexpectedFrame(req);
  }
}

net::Frame Router::HandleSubmit(const net::Frame& req) {
  ExecRequest exec;
  if (!DecodeExecRequest(req.payload, &exec)) return MakeBadPayloadFrame(req);
  // Same replica order as Execute. The ticket pins the shard the query
  // actually landed on; a submission the primary never saw (retryable
  // transport failure) moves to the next replica.
  auto served = ReadFromReplicas<RemoteTicket>(
      exec.dataset, [&](RemoteShard& shard) { return shard.Submit(exec); });
  if (!served.ok()) return MakeErrorFrame(req.request_id, served.status());
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(tickets_mu_);
    id = next_ticket_id_++;
    tickets_[id] = {served.value().first, served.value().second.id(),
                    exec.dataset};
  }
  return MakeReplyFrame(req.request_id, net::FrameType::kSubmitReply,
                        EncodeTicketId(id));
}

net::Frame Router::HandleTicketOp(const net::Frame& req) {
  uint64_t id = 0;
  if (!DecodeTicketId(req.payload, &id)) return MakeBadPayloadFrame(req);
  RoutedTicket ticket;
  {
    std::lock_guard<std::mutex> lock(tickets_mu_);
    auto it = tickets_.find(id);
    if (it == tickets_.end()) {
      return MakeErrorFrame(req.request_id,
                            common::Status::NotFound("unknown ticket"));
    }
    ticket = it->second;
  }
  RemoteShard* client = LiveClient(ticket.shard);
  if (client == nullptr) {
    // The query died with its shard; the submission must be replayed by
    // the client (the router cannot know how far it got).
    return MakeErrorFrame(
        req.request_id,
        common::Status::Unavailable("home shard failed over; resubmit"));
  }
  switch (req.type) {
    case net::FrameType::kCancel: {
      common::Status st = client->Cancel(ticket.remote_id);
      if (!st.ok()) return MakeErrorFrame(req.request_id, st);
      return MakeReplyFrame(req.request_id, net::FrameType::kOk);
    }
    case net::FrameType::kTicketState: {
      auto state = client->TicketState(ticket.remote_id);
      if (!state.ok()) return MakeErrorFrame(req.request_id, state.status());
      return MakeReplyFrame(req.request_id, net::FrameType::kTicketStateReply,
                            EncodeTicketState(state.value()));
    }
    default: {  // kTicketWait
      auto result = client->TicketWait(ticket.remote_id);
      // The shard reaps its ticket once a wait resolves (success or a
      // terminal query error); only a transport loss leaves it live.
      if (result.ok() || !common::IsRetryable(result.status().code())) {
        std::lock_guard<std::mutex> lock(tickets_mu_);
        tickets_.erase(id);
      }
      if (!result.ok()) return MakeErrorFrame(req.request_id, result.status());
      engine::QueryResult r = AnnotateResult(ticket.dataset, ticket.shard,
                                             std::move(result).value());
      if (r.plan_seconds > 0) PropagatePlans(ticket.dataset);
      return MakeReplyFrame(req.request_id, net::FrameType::kResult,
                            EncodeQueryResult(r));
    }
  }
}

}  // namespace zeus::cluster
