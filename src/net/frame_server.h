#ifndef ZEUS_NET_FRAME_SERVER_H_
#define ZEUS_NET_FRAME_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/frame_conn.h"
#include "net/socket.h"

namespace zeus::net {

// The TCP server behind both cluster daemons (ShardServer, Router): a
// listener, an accept loop, and one thread per connection running strict
// request/response — read a frame, hand it to `dispatch`, write the reply.
// Concurrency comes from clients opening more connections; a thread blocked
// in a long dispatch keeps only its own connection busy. A finished
// connection's thread is joined before the next accept, so the server holds
// one thread stack per LIVE connection.
//
// A connection whose first four bytes are "GET " speaks HTTP (a /metrics
// scrape): `http` maps the path to the 200 body, or nullopt for 404 (every
// GET is a 404 without a handler), and the connection closes. "GET " read
// as a little-endian length is ~542M, past kMaxFrameBytes, so no real frame
// can alias it.
class FrameServer {
 public:
  using Dispatch = std::function<Frame(const Frame& request)>;
  using HttpHandler =
      std::function<std::optional<std::string>(const std::string& path)>;

  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  // 0 = ephemeral (readable via port())
    int write_deadline_ms = 30'000;  // per response
    std::string name = "server";  // logs; fault-injection tag "server:<name>"
  };

  FrameServer(Options options, Dispatch dispatch, HttpHandler http = nullptr);
  // Stops if still running.
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  common::Status Start();
  // Closes the listener; live connections keep being served. Returns
  // false when the server was not running (nothing to stop).
  bool StopAccepting();
  // Stops accepting, shuts every live connection down (a thread blocked
  // reading wakes with an error) and joins every thread.
  void Stop();

  int port() const { return port_; }
  bool running() const { return running_.load(); }

 private:
  void AcceptLoop();
  void ConnLoop(uint64_t id, std::shared_ptr<FrameConn> conn);
  void ServeHttp(FrameConn& conn);

  Options opts_;
  Dispatch dispatch_;
  HttpHandler http_;

  TcpListener listener_;
  int port_ = 0;
  std::atomic<bool> running_{false};

  struct Conn {
    std::weak_ptr<FrameConn> conn;
    std::thread thread;
  };
  std::mutex conns_mu_;
  uint64_t next_conn_id_ = 0;
  std::map<uint64_t, Conn> conns_;      // live connections
  std::vector<std::thread> finished_;   // exited, not yet joined

  std::thread accept_thread_;
};

}  // namespace zeus::net

#endif  // ZEUS_NET_FRAME_SERVER_H_
