// Connection: one secure channel (a cio::Session) plus at most one socket of
// a SocketLayer, and the steps every owner of a connection shares. The
// single-socket ConfidentialNode holds one; the multi-tenant
// ConfidentialServer (src/serve/) holds one per table entry. What each
// owner decides for itself is *when* to take a step: the node reconnects
// with backoff, the server parks and reattaches.
//
//   Attach   a socket arrives (connect, accept, reconnect): start TLS.
//   Receive  drain the socket into the session; one typed event.
//   Push     hand outbound bytes to the socket within a byte budget.
//   Drop     a fault: abort the socket but keep the session (sequence
//            numbers, resend window) for the next Attach.
//   ReplayIfReestablished
//            the first time the channel is up after a Drop, replay the
//            resend window; the peer's sequence numbers drop duplicates.
//   Close    orderly FIN; the session stays.

#ifndef SRC_CIO_CONNECTION_H_
#define SRC_CIO_CONNECTION_H_

#include <cstddef>
#include <memory>

#include "src/base/bytes.h"
#include "src/cio/session.h"
#include "src/cio/socket_layer.h"

namespace cio {

class Connection {
 public:
  // What one Receive found.
  enum class Event {
    kIdle,      // drained what was there (possibly nothing)
    kEof,       // the peer closed on purpose: not a fault
    kFault,     // transport died or the TLS stream is corrupt: recoverable
    kTampered,  // hostile framing inside the protected stream: terminal
  };

  // What one Push did.
  struct Pushed {
    size_t bytes = 0;      // accepted by the socket layer
    bool flushed = false;  // `flush_each` rang at least one Flush
    bool failed = false;   // the socket refused: a transport fault
  };

  explicit Connection(std::unique_ptr<Session> session)
      : session_(std::move(session)) {}

  // Takes `socket` (of `sockets`) and starts the session's TLS in `role`.
  // A connecting socket (client role) takes the ClientHello at once; a
  // connect that dies before establishment surfaces as a Receive kFault.
  void Attach(SocketLayer* sockets, cionet::SocketId socket,
              ciotls::TlsRole role, uint64_t seed);
  bool has_socket() const { return attached_; }

  // Drains up to `max_chunks` 16 KiB chunks through `scratch` (capacity
  // reused across calls) into the session.
  Event Receive(size_t max_chunks, ciobase::Buffer& scratch);

  // True while bytes Push handed over have not yet left the socket layer's
  // queue; an orderly close waits for them.
  bool SendsInFlight() const {
    return attached_ && sockets_->SendsInFlight(socket_);
  }

  // Hands up to `budget` outbound bytes to the socket. With `flush_each`,
  // each accepted chunk is pushed at once, even when the layer accepted
  // nothing: the doorbell is what hands SQ and pool space back.
  Pushed Push(size_t budget, bool flush_each);

  // Aborts the socket (if any) and resets the session's channel; the next
  // establishment replays the resend window.
  void Drop();
  // Replays the resend window if the session is established for the first
  // time since a Drop. Returns whether it replayed.
  bool ReplayIfReestablished();
  // Orderly close of the socket (if any); nothing is left to replay.
  void Close();

  Session& session() { return *session_; }
  const Session& session() const { return *session_; }

 private:
  std::unique_ptr<Session> session_;
  SocketLayer* sockets_ = nullptr;
  cionet::SocketId socket_{};
  bool attached_ = false;
  bool replay_due_ = false;
};

}  // namespace cio

#endif  // SRC_CIO_CONNECTION_H_
