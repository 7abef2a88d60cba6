#ifndef ZEUS_CLUSTER_SHARD_SERVER_H_
#define ZEUS_CLUSTER_SHARD_SERVER_H_

#include <map>
#include <mutex>
#include <string>

#include "cluster/protocol.h"
#include "engine/query_engine.h"
#include "net/frame_server.h"

namespace zeus::cluster {

// One shard of the multi-process cluster: a TCP server wrapping exactly one
// QueryEngine. This is the library form of the `shardd` binary
// (tools/shardd.cc) — tests run it in-process against RemoteShard clients
// so every fault-injection scenario is single-process and deterministic.
//
// Connection model: net::FrameServer's — one thread per connection, one
// request in flight per connection (concurrency comes from clients opening
// more connections, see RemoteShard's pool). A connection thread blocked in
// a long Execute keeps only its own connection busy. The shard serves no
// HTTP: a GET on its port is answered 404.
//
// The engine's plan cache should point at the cluster's shared persist
// dir: RegisterDataset frames with `warm_plans` then pull the dataset's
// persisted plans via QueryEngine::WarmUpDataset — the plan-catalog
// handoff that lets a re-homed dataset answer with planner_runs == 0.
class ShardServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  // 0 = pick an ephemeral port (readable via port())
    // Response-write deadline; a client that stops reading cannot wedge a
    // connection thread forever.
    int write_deadline_ms = 30'000;
    engine::QueryEngine::Options engine;
    // Tag baked into the transport's fault-injection matching ("server"
    // plus this name).
    std::string name = "shardd";
  };

  explicit ShardServer(Options options);
  // Stops (gracefully) if still running.
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  common::Status Start() { return server_.Start(); }

  // Graceful stop: close the listener, kick live connections, drain the
  // engine's queued + running work (QueryEngine::DrainAll), join threads.
  void Stop();

  // Abrupt stop: everything closes NOW, nothing drains — the in-process
  // stand-in for kill -9 that the failover tests use. The engine object
  // survives (it is this object's member) but no response in flight is
  // completed.
  void Kill();

  int port() const { return server_.port(); }
  bool running() const { return server_.running(); }
  engine::QueryEngine& engine() { return engine_; }

 private:
  // Builds the response for one request frame. Never throws; malformed
  // payloads come back as kError(kInvalidArgument).
  net::Frame Dispatch(const net::Frame& req);

  // One handler per request type, on the decoded payload.
  common::Result<engine::QueryResult> Execute(const ExecRequest& exec);
  common::Result<uint64_t> Submit(const ExecRequest& exec);
  common::Status Cancel(uint64_t ticket_id);
  common::Result<TicketStateReply> TicketState(uint64_t ticket_id);
  common::Result<engine::QueryResult> TicketWait(uint64_t ticket_id);
  common::Result<uint64_t> RegisterDataset(const DatasetSpec& spec);
  common::Status RemoveDataset(const std::string& name);
  common::Result<SyncReply> SyncPlans(const SyncPlansRequest& sync);
  common::Result<EpochReply> EpochOf(const std::string& name);
  common::Result<AppendReply> AppendFrames(const AppendFramesRequest& append);
  common::Result<SubscribeReply> Subscribe(const SubscribeRequest& sub);
  common::Result<StreamResultMsg> StreamPoll(const StreamPollRequest& poll);
  common::Status Unsubscribe(uint64_t sub_id);

  // The engine's query options with the request's priority and accuracy
  // budget applied.
  engine::QueryOptions ExecOptions(const ExecRequest& exec) const;
  // The shard's applied epoch for `name` (0 if never registered), and its
  // monotone advance to at least `epoch`: a re-delivered (retried, stale or
  // out-of-order) write can only hold it, never roll it back.
  uint64_t AppliedEpoch(const std::string& name);
  uint64_t RaiseEpoch(const std::string& name, uint64_t epoch);
  // Wakes every connection thread parked in a long-poll Next().
  void CancelSubscriptions();

  Options opts_;
  engine::QueryEngine engine_;

  // Async surface: tickets live here between kSubmit and the terminal
  // kTicketWait (which erases them). Tickets a client abandons stay until
  // the server stops — acceptable for the cluster's internal use where
  // the router always waits or cancels. The dataset name rides along so
  // the eventual kResult can be stamped with the replica's applied epoch.
  struct PendingTicket {
    engine::QueryTicket ticket;
    std::string dataset;
  };
  std::mutex tickets_mu_;
  std::map<uint64_t, PendingTicket> tickets_;
  uint64_t next_ticket_id_ = 1;

  // Applied plan/dataset epoch per dataset — the shard's half of the
  // certain-answer contract. Advanced (monotonically) by kRegisterDataset,
  // kSyncPlans and kAppendFrames, stamped into every kResult and
  // kStreamResult this shard serves; the router compares it against the
  // group's committed epoch.
  std::mutex epochs_mu_;
  std::map<std::string, uint64_t> epochs_;

  // Standing queries, keyed by the CLIENT-chosen subscription id
  // (protocol.h kSubscribe): a replayed subscribe re-attaches here instead
  // of stacking a second subscription, and a poll for an unknown id is
  // NotFound — the router's re-attach trigger after this shard restarts.
  struct PendingSub {
    engine::SubscriptionTicket ticket;
    std::string dataset;
  };
  std::mutex subs_mu_;
  std::map<uint64_t, PendingSub> subs_;

  // Last: its connection threads dispatch into everything above.
  net::FrameServer server_;
};

}  // namespace zeus::cluster

#endif  // ZEUS_CLUSTER_SHARD_SERVER_H_
