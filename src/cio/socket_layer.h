// SocketLayer: the one byte-stream socket interface every stack profile
// implements. Each profile provides it over its own machinery: host
// syscalls (syscall-l5), the guest's own stack (passthrough, hardened
// virtio, tunnel, direct device), or the L5 channel into the I/O
// compartment (dual-boundary: L5Channel is the SocketLayer).
// ConfidentialNode drives exactly one socket through it; the multi-tenant
// ConfidentialServer (src/serve/) multiplexes many. It is the only send
// path, on every profile: SendBytes queues, Flush pushes the queue, and
// Poll pushes it after the stack has ingested. So a caller may queue a
// round's egress before the round's Poll and have it leave in that Poll,
// behind the ACKs it ingests (on dual-boundary: in its one doorbell).

#ifndef SRC_CIO_SOCKET_LAYER_H_
#define SRC_CIO_SOCKET_LAYER_H_

#include "src/base/bytes.h"
#include "src/base/status.h"
#include "src/net/stack.h"

namespace cio {

// A connection taken off a listener, with the remote address the server
// keys reattach on.
struct Accepted {
  cionet::SocketId socket;
  cionet::Ipv4Address peer;
};

class SocketLayer {
 public:
  virtual ~SocketLayer() = default;

  // The socket takes sends at once; a connect that dies before
  // establishment (RST, SYN retries exhausted) surfaces as ReceiveBytes'
  // kLinkReset, so no caller polls for the handshake's outcome.
  virtual ciobase::Result<cionet::SocketId> Connect(cionet::Ipv4Address ip,
                                                    uint16_t port) = 0;
  virtual ciobase::Result<cionet::SocketId> Listen(uint16_t port) = 0;
  // Takes the next pending connection off `listener`, peer address
  // included; kUnavailable when nothing is pending. On dual-boundary it
  // crosses nothing: it drains the accept completions Poll harvested.
  virtual ciobase::Result<Accepted> Accept(cionet::SocketId listener) = 0;
  // Orderly close (FIN after buffered data); the server's draining state
  // uses it. Close and Abort both release whatever queue state the socket
  // still pins.
  virtual ciobase::Status Close(cionet::SocketId id) = 0;
  // Abortive close (RST now); the recovery path uses it to kill a dead
  // connection before re-establishing.
  virtual ciobase::Status Abort(cionet::SocketId id) = 0;
  // Queues `data` and returns bytes accepted (possibly 0 under
  // backpressure) for the next Flush() or Poll(): on dual-boundary in the
  // submission queue; on the syscall and guest-stack profiles in a queue
  // bounded by the socket's free send-buffer space.
  virtual ciobase::Result<size_t> SendBytes(cionet::SocketId id,
                                            ciobase::ByteSpan data) = 0;
  // Pushes everything SendBytes queued: one doorbell on dual-boundary,
  // direct stack sends elsewhere.
  virtual ciobase::Status Flush() = 0;
  // True while bytes SendBytes accepted for `id` have not yet left the
  // queue; an orderly close waits for them (Close pushes them first).
  virtual bool SendsInFlight(cionet::SocketId id) const = 0;
  // Drops everything queued, for every socket: link recovery, and the
  // answer to a Poll or Flush that returned kTampered (which keeps being
  // returned until this runs). The sessions' resend windows replay what was
  // dropped.
  virtual void AbandonInFlight() = 0;
  // Fills `out` with the next chunk (capacity reused across calls); returns
  // the byte count — 0 when nothing is pending — kFailedPrecondition at
  // orderly EOF, kLinkReset when the connection died underneath us. Finding
  // nothing costs nothing on the modeled clock, so a server may ask every
  // connection every round; on dual-boundary it only drains what Poll's
  // and Flush's doorbells already harvested.
  virtual ciobase::Result<size_t> ReceiveBytes(cionet::SocketId id, size_t max,
                                               ciobase::Buffer& out) = 0;
  // Drives the stack, then pushes what SendBytes queued; surfaces the link
  // status (kTimedOut = transport watchdog exhausted its reset budget,
  // kLinkReset = ring reset this round). The simulated host devices around
  // it are the node's to poll (ConfidentialNode::PollStack).
  virtual ciobase::Status Poll() = 0;
};

// Accept over a NetStack the caller already reached (host, guest or I/O
// compartment): the stack's accept plus the peer lookup.
inline ciobase::Result<Accepted> AcceptFrom(cionet::NetStack& stack,
                                            cionet::SocketId listener) {
  auto socket = stack.TcpAccept(listener);
  if (!socket.ok()) {
    return socket.status();
  }
  auto peer = stack.GetTcpPeer(*socket);
  if (!peer.ok()) {
    (void)stack.TcpAbort(*socket);
    return peer.status();
  }
  return Accepted{*socket, *peer};
}

// ReceiveBytes over a NetStack the caller already reached: `out` holds
// exactly the bytes received (none on error).
inline ciobase::Result<size_t> ReceiveFrom(cionet::NetStack& stack,
                                           cionet::SocketId id, size_t max,
                                           ciobase::Buffer& out) {
  out.resize(max);
  auto got = stack.TcpReceive(id, out);
  out.resize(got.ok() ? *got : 0);
  return got;
}

}  // namespace cio

#endif  // SRC_CIO_SOCKET_LAYER_H_
