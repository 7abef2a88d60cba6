#ifndef ZEUS_NET_FRAME_CONN_H_
#define ZEUS_NET_FRAME_CONN_H_

#include <string>
#include <utility>

#include "net/fault.h"
#include "net/socket.h"
#include "net/wire.h"

namespace zeus::net {

// One framed connection: a TcpSocket plus the encode/decode + integrity
// discipline of wire.h, plus the fault-injection seam. All transport
// errors — timeout, reset, crc mismatch, oversized frame — come back as
// kUnavailable so callers have exactly one "transient, retry or surface"
// code to handle; a clean peer close between frames is kNotFound.
class FrameConn {
 public:
  FrameConn() = default;
  explicit FrameConn(TcpSocket socket, std::string tag = "")
      : socket_(std::move(socket)), tag_(std::move(tag)) {}

  common::Status WriteFrame(const Frame& frame, int deadline_ms);
  common::Status ReadFrame(Frame* out, int deadline_ms);
  // Continuation of ReadFrame for callers that already consumed the 4-byte
  // length prefix themselves (FrameServer sniffs "GET " before deciding the
  // connection speaks HTTP or frames).
  common::Status ReadFrameBody(uint32_t body_len, Frame* out, int deadline_ms);

  bool valid() const { return socket_.valid(); }
  TcpSocket& socket() { return socket_; }
  void Close() { socket_.Close(); }
  void Shutdown() { socket_.Shutdown(); }

 private:
  // Applies an armed fault rule for (direction, type). Returns the action
  // to take: proceed normally, pretend-success (drop on send), or an error
  // status (close / corrupt handled by the caller via `mutate`).
  bool Inject(FaultDirection direction, FrameType type, FaultRule* fired);

  TcpSocket socket_;
  std::string tag_;
};

}  // namespace zeus::net

#endif  // ZEUS_NET_FRAME_CONN_H_
