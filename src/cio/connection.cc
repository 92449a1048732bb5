#include "src/cio/connection.h"

#include <algorithm>

namespace cio {

namespace {

constexpr size_t kRxChunkBytes = 16384;

}  // namespace

void Connection::Attach(SocketLayer* sockets, cionet::SocketId socket,
                        ciotls::TlsRole role, uint64_t seed) {
  sockets_ = sockets;
  socket_ = socket;
  attached_ = true;
  session_->Start(role, seed);
}

Connection::Event Connection::Receive(size_t max_chunks,
                                      ciobase::Buffer& scratch) {
  for (size_t chunk = 0; chunk < max_chunks; ++chunk) {
    auto got = sockets_->ReceiveBytes(socket_, kRxChunkBytes, scratch);
    if (!got.ok()) {
      return got.status().code() == ciobase::StatusCode::kFailedPrecondition
                 ? Event::kEof
                 : Event::kFault;
    }
    if (*got == 0) {
      break;
    }
    ciobase::Status ingested = session_->Ingest(scratch);
    if (!ingested.ok()) {
      return ingested.code() == ciobase::StatusCode::kTampered
                 ? Event::kTampered
                 : Event::kFault;
    }
  }
  return Event::kIdle;
}

Connection::Pushed Connection::Push(size_t budget, bool flush_each) {
  Pushed pushed;
  while (attached_ && session_->HasOutbound() && budget > 0) {
    const ciobase::Buffer& pending = session_->outbound();
    auto sent = sockets_->SendBytes(
        socket_, ciobase::ByteSpan(pending.data(),
                                   std::min(pending.size(), budget)));
    if (!sent.ok()) {
      pushed.failed = true;
      break;
    }
    session_->ConsumeOutbound(*sent);
    pushed.bytes += *sent;
    budget -= *sent;
    if (flush_each) {
      (void)sockets_->Flush();
      pushed.flushed = true;
    }
    if (*sent == 0) {
      break;  // backpressure: the rest waits for the next push
    }
  }
  return pushed;
}

void Connection::Drop() {
  if (attached_) {
    (void)sockets_->Abort(socket_);
  }
  attached_ = false;
  session_->ResetChannel();
  replay_due_ = true;
}

bool Connection::ReplayIfReestablished() {
  if (!replay_due_ || !session_->Established()) {
    return false;
  }
  replay_due_ = false;
  (void)session_->Replay();
  return true;
}

void Connection::Close() {
  if (attached_) {
    // Close releases whatever queue state the socket still pins.
    (void)sockets_->Close(socket_);
  }
  attached_ = false;
  replay_due_ = false;
}

}  // namespace cio
