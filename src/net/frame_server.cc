#include "net/frame_server.h"

#include <cstring>

#include "common/logging.h"
#include "common/stringutil.h"

namespace zeus::net {

FrameServer::FrameServer(Options options, Dispatch dispatch, HttpHandler http)
    : opts_(std::move(options)),
      dispatch_(std::move(dispatch)),
      http_(std::move(http)) {}

FrameServer::~FrameServer() { Stop(); }

common::Status FrameServer::Start() {
  if (running_.load()) return common::Status::FailedPrecondition("running");
  ZEUS_RETURN_IF_ERROR(listener_.Listen(opts_.host, opts_.port));
  port_ = listener_.port();
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  ZEUS_LOG(Info) << opts_.name << " listening on " << opts_.host << ":"
                 << port_;
  return common::Status::Ok();
}

bool FrameServer::StopAccepting() {
  if (!running_.exchange(false)) return false;
  listener_.Close();
  return true;
}

void FrameServer::Stop() {
  StopAccepting();
  if (!accept_thread_.joinable()) return;  // never started, or stopped
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, c] : conns_) {
      if (auto conn = c.conn.lock()) conn->Shutdown();
    }
  }
  accept_thread_.join();
  std::vector<std::thread> threads;
  {
    // No new connection can register now; every live one is shut down.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, c] : conns_) threads.push_back(std::move(c.thread));
    for (std::thread& t : finished_) threads.push_back(std::move(t));
    finished_.clear();
  }
  for (std::thread& t : threads) t.join();
  std::lock_guard<std::mutex> lock(conns_mu_);
  finished_.clear();  // emptied handles of threads that exited meanwhile
}

void FrameServer::AcceptLoop() {
  while (running_.load()) {
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      finished.swap(finished_);
    }
    for (std::thread& t : finished) t.join();
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (!running_.load()) return;
      ZEUS_LOG(Warning) << opts_.name
                        << " accept failed: " << accepted.status().ToString();
      return;
    }
    auto conn = std::make_shared<FrameConn>(std::move(accepted).value(),
                                            "server:" + opts_.name);
    // The thread is created under the lock so that it cannot reach its
    // own exit bookkeeping before its handle is stored.
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (!running_.load()) return;
    const uint64_t id = next_conn_id_++;
    Conn& slot = conns_[id];
    slot.conn = conn;
    slot.thread = std::thread([this, id, conn] { ConnLoop(id, conn); });
  }
}

void FrameServer::ConnLoop(uint64_t id, std::shared_ptr<FrameConn> conn) {
  uint8_t head[4];
  common::Status st = conn->socket().ReadAll(head, 4, /*deadline_ms=*/-1);
  if (st.ok() && std::memcmp(head, "GET ", 4) == 0) {
    ServeHttp(*conn);
  } else if (st.ok()) {
    uint32_t body_len = 0;
    for (int i = 0; i < 4; ++i) {
      body_len |= static_cast<uint32_t>(head[i]) << (8 * i);
    }
    Frame req;
    // Block until a frame arrives; Stop() shuts the socket down, which
    // surfaces here as an error (as do a clean close and a corrupt frame).
    st = conn->ReadFrameBody(body_len, &req, /*deadline_ms=*/-1);
    while (st.ok()) {
      st = conn->WriteFrame(dispatch_(req), opts_.write_deadline_ms);
      if (!st.ok() || !running_.load()) break;
      st = conn->ReadFrame(&req, /*deadline_ms=*/-1);
    }
  }
  std::lock_guard<std::mutex> lock(conns_mu_);
  auto it = conns_.find(id);
  finished_.push_back(std::move(it->second.thread));
  conns_.erase(it);
}

void FrameServer::ServeHttp(FrameConn& conn) {
  // "GET " is already consumed; read the rest of the request (capped, with
  // a deadline — scrapers are line-speed, anything else is garbage).
  std::string request;
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos) {
    char c = 0;
    if (!conn.socket().ReadAll(&c, 1, /*deadline_ms=*/5'000).ok()) break;
    request.push_back(c);
  }
  const std::string path = request.substr(0, request.find(' '));

  const std::optional<std::string> found =
      http_ ? http_(path) : std::nullopt;
  const std::string body = found.value_or("not found\n");
  const std::string response =
      common::Format(
          "HTTP/1.1 %s\r\n"
          "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
          "Content-Length: %zu\r\n"
          "Connection: close\r\n\r\n",
          found ? "200 OK" : "404 Not Found", body.size()) +
      body;
  conn.socket().WriteAll(response.data(), response.size(),
                         opts_.write_deadline_ms);
  // The socket closes when the connection's last owner lets go; closing it
  // here would race a concurrent Stop() shutting it down.
  conn.Shutdown();
}

}  // namespace zeus::net
