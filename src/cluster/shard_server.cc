#include "cluster/shard_server.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "core/query.h"

namespace zeus::cluster {

ShardServer::ShardServer(Options options)
    : opts_(std::move(options)),
      engine_(opts_.engine),
      server_({opts_.host, opts_.port, opts_.write_deadline_ms, opts_.name},
              [this](const net::Frame& req) { return Dispatch(req); }) {}

ShardServer::~ShardServer() { Stop(); }

void ShardServer::Stop() {
  if (!server_.StopAccepting()) return;
  // Cancel standing queries first: a connection thread parked in a
  // long-poll Next() wakes as kCancelled instead of riding out its
  // timeout against a closing server.
  CancelSubscriptions();
  // Drain before kicking connections: requests already inside the engine
  // finish and their responses still go out. New frames racing in will
  // fail when their connection is shut below — the cluster contract is
  // explicit kUnavailable, not silent loss, and the client side maps a
  // dead connection to exactly that.
  engine_.DrainAll();
  server_.Stop();
}

void ShardServer::Kill() {
  if (!server_.StopAccepting()) return;
  // Even the kill -9 stand-in must unpark long-poll threads — they are
  // this process's threads, not the dead server's.
  CancelSubscriptions();
  server_.Stop();
}

void ShardServer::CancelSubscriptions() {
  std::lock_guard<std::mutex> lock(subs_mu_);
  for (auto& [id, sub] : subs_) sub.ticket.Cancel();
}

net::Frame ShardServer::Dispatch(const net::Frame& req) {
  using net::FrameType;
  // Handlers take the decoded payload; AnswerFrame does the wire half.
  const auto to = [this](auto handler) {
    return [this, handler](const auto& decoded) {
      return (this->*handler)(decoded);
    };
  };
  switch (req.type) {
    case FrameType::kPing:
      return MakeReplyFrame(req.request_id, FrameType::kPong);
    case FrameType::kExecute:
      return AnswerFrame(req, DecodeExecRequest, to(&ShardServer::Execute),
                         FrameType::kResult, EncodeQueryResult);
    case FrameType::kSubmit:
      return AnswerFrame(req, DecodeExecRequest, to(&ShardServer::Submit),
                         FrameType::kSubmitReply, EncodeTicketId);
    case FrameType::kCancel:
      return AnswerFrame(req, DecodeTicketId, to(&ShardServer::Cancel));
    case FrameType::kTicketState:
      return AnswerFrame(req, DecodeTicketId, to(&ShardServer::TicketState),
                         FrameType::kTicketStateReply, EncodeTicketState);
    case FrameType::kTicketWait:
      return AnswerFrame(req, DecodeTicketId, to(&ShardServer::TicketWait),
                         FrameType::kResult, EncodeQueryResult);
    case FrameType::kStats: {
      StatsReply reply;
      reply.stats = engine_.Stats();
      reply.num_shards = 1;
      return MakeReplyFrame(req.request_id, FrameType::kStatsReply,
                            EncodeStatsReply(reply));
    }
    case FrameType::kRegisterDataset:
      return AnswerFrame(req, DecodeDatasetSpec,
                         to(&ShardServer::RegisterDataset),
                         FrameType::kRegisterReply, EncodeRegisterReply);
    case FrameType::kRemoveDataset:
      return AnswerFrame(req, DecodeName, to(&ShardServer::RemoveDataset));
    case FrameType::kSyncPlans:
      return AnswerFrame(req, DecodeSyncPlans, to(&ShardServer::SyncPlans),
                         FrameType::kSyncReply, EncodeSyncReply);
    case FrameType::kEpochQuery:
      return AnswerFrame(req, DecodeName, to(&ShardServer::EpochOf),
                         FrameType::kEpochReply, EncodeEpochReply);
    case FrameType::kAppendFrames:
      return AnswerFrame(req, DecodeAppendFrames,
                         to(&ShardServer::AppendFrames),
                         FrameType::kAppendReply, EncodeAppendReply);
    case FrameType::kSubscribe:
      return AnswerFrame(req, DecodeSubscribeRequest,
                         to(&ShardServer::Subscribe),
                         FrameType::kSubscribeReply, EncodeSubscribeReply);
    case FrameType::kStreamPoll:
      return AnswerFrame(req, DecodeStreamPoll, to(&ShardServer::StreamPoll),
                         FrameType::kStreamResult, EncodeStreamResult);
    case FrameType::kUnsubscribe:
      return AnswerFrame(req, DecodeTicketId, to(&ShardServer::Unsubscribe));
    default:
      return MakeUnexpectedFrame(req);
  }
}

common::Result<engine::QueryResult> ShardServer::Execute(
    const ExecRequest& exec) {
  auto parsed = core::QueryParser::Parse(exec.sql);
  if (!parsed.ok()) return parsed.status();
  auto result =
      engine_.Execute(exec.dataset, parsed.value(), ExecOptions(exec));
  if (!result.ok()) return result.status();
  engine::QueryResult stamped = std::move(result).value();
  stamped.epoch = AppliedEpoch(exec.dataset);
  return stamped;
}

common::Result<uint64_t> ShardServer::Submit(const ExecRequest& exec) {
  auto parsed = core::QueryParser::Parse(exec.sql);
  if (!parsed.ok()) return parsed.status();
  auto ticket =
      engine_.Submit(exec.dataset, parsed.value(), ExecOptions(exec));
  if (!ticket.ok()) return ticket.status();
  std::lock_guard<std::mutex> lock(tickets_mu_);
  const uint64_t id = next_ticket_id_++;
  tickets_.emplace(id, PendingTicket{std::move(ticket).value(), exec.dataset});
  return id;
}

common::Status ShardServer::Cancel(uint64_t id) {
  std::lock_guard<std::mutex> lock(tickets_mu_);
  auto it = tickets_.find(id);
  // Cancel of an unknown (already reaped / never existed) ticket is a
  // no-op, which is what makes kCancel idempotent and retry-safe.
  if (it != tickets_.end()) it->second.ticket.Cancel();
  return common::Status::Ok();
}

common::Result<TicketStateReply> ShardServer::TicketState(uint64_t id) {
  std::lock_guard<std::mutex> lock(tickets_mu_);
  auto it = tickets_.find(id);
  if (it == tickets_.end()) return common::Status::NotFound("unknown ticket");
  TicketStateReply reply;
  reply.state = it->second.ticket.state();
  reply.progress = it->second.ticket.progress();
  return reply;
}

common::Result<engine::QueryResult> ShardServer::TicketWait(uint64_t id) {
  std::optional<engine::QueryTicket> ticket;
  std::string dataset;
  {
    std::lock_guard<std::mutex> lock(tickets_mu_);
    auto it = tickets_.find(id);
    if (it != tickets_.end()) {
      ticket = it->second.ticket;  // copy: shared state
      dataset = it->second.dataset;
    }
  }
  if (!ticket.has_value()) return common::Status::NotFound("unknown ticket");
  // Wait outside the lock — other ticket operations proceed meanwhile.
  const auto& result = ticket->Wait();
  {
    // Terminal: the ticket has served its purpose.
    std::lock_guard<std::mutex> lock(tickets_mu_);
    tickets_.erase(id);
  }
  if (!result.ok()) return result.status();
  engine::QueryResult stamped = result.value();
  stamped.epoch = AppliedEpoch(dataset);
  return stamped;
}

common::Result<uint64_t> ShardServer::RegisterDataset(const DatasetSpec& spec) {
  if (!engine_.HasDataset(spec.name)) {
    auto dataset =
        video::SyntheticDataset::Generate(ProfileFor(spec), spec.seed);
    common::Status st = engine_.RegisterDataset(spec.name, std::move(dataset));
    // A racing duplicate registration is fine — the spec is deterministic,
    // so both writers produced the same dataset.
    if (!st.ok() && st.code() != common::StatusCode::kAlreadyExists) {
      return st;
    }
    ZEUS_LOG(Info) << opts_.name << " registered dataset '" << spec.name
                   << "'";
  }
  uint64_t warmed = 0;
  if (spec.warm_plans) {
    warmed = engine_.WarmUpDataset(spec.name);
    if (warmed > 0) {
      ZEUS_LOG(Info) << opts_.name << " warmed " << warmed << " plan(s) for '"
                     << spec.name << "'";
    }
  }
  RaiseEpoch(spec.name, spec.epoch);
  return warmed;
}

common::Status ShardServer::RemoveDataset(const std::string& name) {
  if (engine_.HasDataset(name)) {
    engine_.DrainDataset(name);
    engine_.RemoveDataset(name);
  }
  std::lock_guard<std::mutex> lock(epochs_mu_);
  epochs_.erase(name);
  return common::Status::Ok();
}

common::Result<SyncReply> ShardServer::SyncPlans(
    const SyncPlansRequest& sync) {
  if (!engine_.HasDataset(sync.name)) {
    // No replica here — the router falls back to a full RegisterDataset.
    return common::Status::NotFound("no replica of '" + sync.name + "'");
  }
  SyncReply reply;
  // Re-read the dataset's persisted plans from the shared catalog; plans
  // trained elsewhere since the last sync become memory-resident here, so
  // a later promotion answers with planner_runs == 0.
  reply.plans_warmed = engine_.WarmUpDataset(sync.name);
  reply.epoch = RaiseEpoch(sync.name, sync.epoch);
  return reply;
}

common::Result<EpochReply> ShardServer::EpochOf(const std::string& name) {
  EpochReply reply;
  reply.has_dataset = engine_.HasDataset(name);
  reply.epoch = AppliedEpoch(name);
  if (const video::SyntheticDataset* ds = engine_.dataset(name)) {
    reply.stream_length = static_cast<uint64_t>(ds->stream_length());
  }
  return reply;
}

common::Result<AppendReply> ShardServer::AppendFrames(
    const AppendFramesRequest& append) {
  // Shards take only the absolute form: by the time an append reaches a
  // replica it must be replayable as-is (protocol.h). The relative
  // convenience form is the router's to resolve.
  if (append.target_frames == 0) {
    return common::Status::InvalidArgument(
        "shard requires the absolute append form (target_frames > 0)");
  }
  auto outcome = engine_.GrowDataset(
      append.name, static_cast<long>(append.target_frames), append.epoch);
  if (!outcome.ok()) return outcome.status();
  // The append commits a group epoch like a registration does.
  RaiseEpoch(append.name, append.epoch);
  AppendReply reply;
  reply.frame_epoch = outcome.value().frame_epoch;
  reply.stream_length = static_cast<uint64_t>(outcome.value().stream_length);
  reply.appended = static_cast<uint64_t>(outcome.value().appended);
  return reply;
}

common::Result<SubscribeReply> ShardServer::Subscribe(
    const SubscribeRequest& sub) {
  if (sub.sub_id == 0) {
    // Ids are always the caller's here (the router's routed id, or a direct
    // client's own): a server-assigned id could not survive a re-attach.
    return common::Status::InvalidArgument(
        "shard subscribe needs a caller-chosen sub_id (> 0)");
  }
  SubscribeReply reply;
  reply.sub_id = sub.sub_id;
  {
    // Replay / failover re-attach: the id already names a live
    // subscription here — join it instead of stacking a second one.
    std::lock_guard<std::mutex> lock(subs_mu_);
    auto it = subs_.find(sub.sub_id);
    if (it != subs_.end() && !it->second.ticket.cancelled()) {
      const video::SyntheticDataset* ds = engine_.dataset(it->second.dataset);
      reply.frame_epoch = ds != nullptr ? ds->frame_epoch() : 0;
      reply.attached_existing = true;
      return reply;
    }
  }
  engine::SubscribeOptions opts;
  opts.exec = engine_.options().exec;
  opts.exec.tier = sub.tier;
  opts.exec.min_accuracy = sub.min_accuracy;
  opts.exec.max_latency_budget = sub.max_latency_budget;
  opts.window_frames = sub.window_frames;
  if (sub.max_buffered > 0) opts.max_buffered = sub.max_buffered;
  auto ticket = engine_.Subscribe(sub.dataset, sub.sql, opts);
  if (!ticket.ok()) return ticket.status();
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    // A cancelled husk under this id (the replay check above skipped it)
    // is replaced — same id, fresh subscription, deterministic results.
    subs_.erase(sub.sub_id);
    subs_.emplace(sub.sub_id,
                  PendingSub{std::move(ticket).value(), sub.dataset});
  }
  const video::SyntheticDataset* ds = engine_.dataset(sub.dataset);
  reply.frame_epoch = ds != nullptr ? ds->frame_epoch() : 0;
  return reply;
}

common::Result<StreamResultMsg> ShardServer::StreamPoll(
    const StreamPollRequest& poll) {
  std::optional<engine::SubscriptionTicket> ticket;
  std::string dataset;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    auto it = subs_.find(poll.sub_id);
    if (it != subs_.end()) {
      ticket = it->second.ticket;  // copy: shared state
      dataset = it->second.dataset;
    }
  }
  if (!ticket.has_value()) {
    // This shard does not know the subscription — restarted, or never its
    // home. NotFound is the router's cue to re-attach (re-subscribe) on
    // the current primary and retry.
    return common::Status::NotFound("unknown subscription");
  }
  // Long-poll outside the lock; timeouts surface as kUnavailable
  // (retryable, nothing consumed — the cursor is the client's).
  auto update =
      ticket->Next(poll.after_seq, static_cast<int>(poll.timeout_ms));
  if (!update.ok()) return update.status();
  StreamResultMsg msg;
  msg.seq = update.value().seq;
  msg.dropped = static_cast<uint64_t>(ticket->dropped());
  msg.result = std::move(update).value().result;
  msg.result.epoch = AppliedEpoch(dataset);
  return msg;
}

common::Status ShardServer::Unsubscribe(uint64_t id) {
  std::lock_guard<std::mutex> lock(subs_mu_);
  auto it = subs_.find(id);
  // Unknown id (already unsubscribed, or a shard that restarted) is a
  // clean no-op — kUnsubscribe is idempotent and retry-safe.
  if (it != subs_.end()) {
    it->second.ticket.Cancel();
    subs_.erase(it);
  }
  return common::Status::Ok();
}

engine::QueryOptions ShardServer::ExecOptions(const ExecRequest& exec) const {
  engine::QueryOptions opts = engine_.options().exec;
  opts.priority = exec.priority;
  opts.tier = exec.tier;
  opts.min_accuracy = exec.min_accuracy;
  opts.max_latency_budget = exec.max_latency_budget;
  return opts;
}

uint64_t ShardServer::RaiseEpoch(const std::string& name, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(epochs_mu_);
  uint64_t& applied = epochs_[name];
  applied = std::max(applied, epoch);
  return applied;
}

uint64_t ShardServer::AppliedEpoch(const std::string& name) {
  std::lock_guard<std::mutex> lock(epochs_mu_);
  auto it = epochs_.find(name);
  return it != epochs_.end() ? it->second : 0;
}

}  // namespace zeus::cluster
