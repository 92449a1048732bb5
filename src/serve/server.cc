#include "src/serve/server.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/prof/profiler.h"

namespace cioserve {

namespace {

// Deficit round-robin: bytes of transport credit each backlogged connection
// accrues per Poll() round, and the most it may hoard.
constexpr size_t kDrrQuantumBytes = 4096;
constexpr size_t kDrrDeficitCap = kDrrQuantumBytes * 8;

// Inbound chunking per connection per round (bounds one client's share of
// a round even when its pipe is full).
constexpr size_t kRxChunkBytes = 16384;
constexpr size_t kMaxRxChunksPerRound = 4;

// A connection stuck in kHandshaking (or kAttesting) longer than this is
// aborted: a slow handshake holds a table slot, and this bounds the squat.
constexpr uint64_t kHandshakeTimeoutNs = 2'000'000'000;

}  // namespace

ConfidentialServer::ConfidentialServer(cio::ConfidentialNode* node,
                                       ciobase::SimClock* clock,
                                       ServerConfig config)
    : node_(node),
      sockets_(node->sockets()),
      clock_(clock),
      config_(std::move(config)),
      rng_(node->config().seed ^ 0xa77e57u) {
  if (config_.require_attestation) {
    authority_ = std::make_unique<ciotee::AttestationAuthority>(
        config_.attestation_key);
    expected_measurement_ = ciotee::Measure(config_.expected_identity, {});
  }
}

ciobase::Status ConfidentialServer::Start() {
  if (sockets_ == nullptr) {
    return ciobase::FailedPrecondition("node failed to initialize");
  }
  auto listener = sockets_->Listen(config_.port);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = *listener;
  listening_ = true;
  return ciobase::OkStatus();
}

ConfidentialServer::Entry& ConfidentialServer::AddEntry(
    cionet::Ipv4Address peer, std::unique_ptr<cio::Session> session) {
  const ConnId id = next_conn_id_++;
  Entry& entry = connections_.try_emplace(id, std::move(session)).first->second;
  entry.id = id;
  entry.peer = peer;
  return entry;
}

ConfidentialServer::Entry* ConfidentialServer::FindPeer(
    cionet::Ipv4Address peer, bool parked) {
  for (auto& [id, entry] : connections_) {
    if (entry.peer == peer && entry.state != ConnState::kClosed &&
        (entry.state == ConnState::kParked) == parked) {
      return &entry;
    }
  }
  return nullptr;
}

void ConfidentialServer::DiscardParked(cionet::Ipv4Address peer) {
  if (Entry* older = FindPeer(peer, /*parked=*/true)) {
    connections_.erase(older->id);
  }
}

void ConfidentialServer::AcceptConnections() {
  // Accept until nothing is pending. On dual-boundary this crosses nothing:
  // the round's doorbell already harvested one accept completion per new
  // connection.
  for (;;) {
    auto accepted = sockets_->Accept(listener_);
    if (!accepted.ok()) {
      break;
    }
    const cionet::Ipv4Address peer = accepted->peer;

    // A fresh connection from an address we already serve is the client's
    // recovery path reconnecting: the server may not have noticed the fault
    // (nothing in flight means nothing failed server-side), so the accept
    // itself is the fault signal. Park the live entry; the reattach below
    // picks it up in place.
    if (Entry* live = FindPeer(peer, /*parked=*/false)) {
      ParkConnection(*live);
    }

    // Reattach in place: the parked session keeps the sequence numbers and
    // the resend window, so after the TLS restart both sides replay and the
    // receiver's dedup makes delivery exactly-once across the fault. The
    // entry keeps its id — the application's handle survives.
    Entry* entry = FindPeer(peer, /*parked=*/true);

    // Admission control: beyond the table cap, a new peer is refused. Once
    // its TLS is up the client gets a typed kCtrlDenied and stops
    // reconnecting. The refusals in progress are bounded by the cap too;
    // beyond that the socket is aborted (RST: kLinkReset in the client's
    // receive path). A parked peer was admitted before and is never
    // refused: refusing it would end its recovery and lose its window.
    const bool refuse =
        entry == nullptr && active_connections() >= config_.max_connections;
    if (refuse) {
      ++stats_.rejected_admission;
      if (refusing_connections() >= config_.max_connections) {
        (void)sockets_->Abort(accepted->socket);
        continue;
      }
    } else {
      ++stats_.accepted;
    }
    if (entry != nullptr) {
      ++stats_.recovered;
    } else {
      entry = &AddEntry(peer, node_->NewSession());
      entry->refusing = refuse;
    }
    entry->admitted = false;  // every new socket passes admission again
    entry->state = ConnState::kHandshaking;
    entry->since_ns = clock_->now_ns();
    entry->drr_deficit = 0;
    entry->link.Attach(sockets_, accepted->socket, ciotls::TlsRole::kServer,
                       node_->config().seed + 1 + entry->id);
  }
}

void ConfidentialServer::ParkConnection(Entry& entry) {
  entry.link.Drop();
  // A refusal or a draining connection has nothing worth recovering. A
  // kMigrating session is never parked either: its authoritative copy
  // already left for the other instance — parking the stale local copy
  // would hand the client two diverging continuations.
  if (!node_->config().recovery.enabled || entry.refusing ||
      entry.state == ConnState::kDraining ||
      entry.state == ConnState::kMigrating) {
    entry.state = ConnState::kClosed;
    return;
  }
  DiscardParked(entry.peer);  // at most one parked entry per peer
  entry.state = ConnState::kParked;
  entry.since_ns = clock_->now_ns();
  ++stats_.closed;
}

void ConfidentialServer::PumpConnection(Entry& entry) {
  switch (entry.link.Receive(kMaxRxChunksPerRound, rx_scratch_)) {
    case cio::Connection::Event::kIdle:
      break;
    case cio::Connection::Event::kEof:
      // The client closed on purpose. Finish our side too: FIN, then
      // release every L5 resource the socket still pins.
      entry.link.Close();
      entry.state = ConnState::kClosed;
      return;
    case cio::Connection::Event::kFault:
      ParkConnection(entry);  // for the client's reconnect
      return;
    case cio::Connection::Event::kTampered:
      // Hostile framing inside the protected stream: terminal for this
      // connection, and nothing worth parking.
      ++stats_.tampered;
      entry.link.Drop();
      entry.state = ConnState::kClosed;
      return;
  }
  cio::Session& session = entry.link.session();
  if (session.TlsFailed()) {
    ParkConnection(entry);
    return;
  }
  if (entry.state == ConnState::kHandshaking && session.Established()) {
    if (entry.refusing) {
      Deny(entry, "server at capacity");
    } else if (config_.require_attestation) {
      // Channel up, admission pending: challenge with a fresh nonce. Every
      // transport (re)establishment re-attests — a reattach is a new
      // transcript, so yesterday's report cannot cover it.
      entry.state = ConnState::kAttesting;
      entry.challenge = rng_.Bytes(16);
      (void)session.SendControl(cio::CtrlType::kAttestChallenge,
                                entry.challenge);
    } else {
      Admit(entry);
    }
  }
  if (entry.state == ConnState::kAttesting) {
    PumpAdmission(entry);
  }
  if (entry.state == ConnState::kEstablished) {
    // Stray control frames on an admitted connection (duplicate reports)
    // are drained and ignored — never growth, never a fault.
    while (session.PollControl().has_value()) {
    }
  }
  // Application delivery is held until admission: frames a client replays
  // ahead of its report sit in the session inbox (dedup already counted
  // them) and surface the moment the connection is admitted. A denied
  // client's frames — refused at the cap or failing attestation — never
  // surface.
  while (entry.admitted &&
         (entry.state == ConnState::kEstablished ||
          entry.state == ConnState::kDraining) &&
         session.HasInbound()) {
    auto message = session.Receive();
    if (!message.ok()) {
      break;
    }
    inbox_.push_back(Incoming{entry.id, std::move(*message)});
  }
}

void ConfidentialServer::Admit(Entry& entry) {
  entry.state = ConnState::kEstablished;
  entry.admitted = true;
  entry.challenge.clear();
  // A reattached channel replays its resend window; the client's sequence
  // dedup drops whatever it already had.
  (void)entry.link.ReplayIfReestablished();
}

void ConfidentialServer::Deny(Entry& entry, std::string_view reason) {
  // Flushed to the client (so it stops retrying), then the socket drains
  // shut. Nothing is parked — an unadmitted session has no state worth
  // recovering.
  (void)entry.link.session().SendControl(cio::CtrlType::kDenied,
                                         ciobase::BufferFromString(reason));
  entry.state = ConnState::kDraining;
}

ciobase::Status ConfidentialServer::VerifyReport(
    const Entry& entry, ciobase::ByteSpan report_bytes) const {
  if (report_bytes.empty()) {
    return ciobase::Unauthenticated("missing attestation report");
  }
  auto report = ciotee::AttestationReport::Parse(report_bytes);
  if (!report.ok()) {
    return ciobase::Unauthenticated("malformed attestation report");
  }
  // The report must be bound to THIS connection: nonce = H(challenge ||
  // transcript). Forged key -> MAC invalid; replayed/stale report -> nonce
  // mismatch; wrong build -> measurement mismatch. All one typed outcome.
  ciocrypto::Sha256Digest transcript{};
  if (const ciotls::TlsSession* tls = entry.link.session().tls();
      tls != nullptr) {
    transcript = tls->transcript_hash();
  }
  ciobase::Status verdict = authority_->Verify(
      *report, expected_measurement_,
      ciotee::BindNonce(entry.challenge, transcript));
  if (!verdict.ok()) {
    return ciobase::Unauthenticated(verdict.message());
  }
  return ciobase::OkStatus();
}

void ConfidentialServer::PumpAdmission(Entry& entry) {
  while (auto ctrl = entry.link.session().PollControl()) {
    if (static_cast<cio::CtrlType>(ctrl->type) !=
        cio::CtrlType::kAttestReport) {
      continue;
    }
    ciobase::Status verdict = VerifyReport(entry, ctrl->body);
    if (verdict.ok()) {
      ++stats_.admitted;
      (void)entry.link.session().SendControl(cio::CtrlType::kAdmitted, {});
      Admit(entry);
    } else {
      // Typed rejection, counted OUTSIDE the leakage score.
      ++stats_.rejected_unauthenticated;
      Deny(entry, verdict.message());
    }
    return;
  }
}

void ConfidentialServer::QueueEgress() {
  CIO_PROF_SCOPE(node_->costs().profiler(), "server.egress");
  // Deficit round-robin over everyone with queued output: each backlogged
  // connection accrues one quantum per round and sends only while its
  // deficit lasts, so a hot client cannot monopolize the transport's batch
  // slots. Draining connections flush here too, then FIN.
  // Each connection's slice is only queued (on dual-boundary: copied into
  // the submission queue, no boundary crossing); the round's PollStack
  // pushes the whole batch after the stack has ingested.
  for (auto& [id, entry] : connections_) {
    if (!entry.live()) {
      continue;
    }
    if (entry.link.session().HasOutbound()) {
      entry.drr_deficit =
          std::min(entry.drr_deficit + kDrrQuantumBytes, kDrrDeficitCap);
      cio::Connection::Pushed pushed =
          entry.link.Push(entry.drr_deficit, /*flush_each=*/false);
      // Backpressure keeps the rest of the deficit for the next round.
      entry.drr_deficit -= pushed.bytes;
      if (pushed.failed) {
        ParkConnection(entry);
        continue;
      }
    } else {
      entry.drr_deficit = 0;  // not backlogged: no credit hoarding
    }
    // "No session backlog" is not "flushed" — wait until the queue has
    // nothing left for this socket before the FIN. (kMigrating rides the
    // same machinery: once the redirect is out, nothing local remains
    // authoritative and the socket closes.)
    if ((entry.state == ConnState::kDraining ||
         entry.state == ConnState::kMigrating) &&
        !entry.link.session().HasOutbound() && !entry.link.SendsInFlight()) {
      entry.link.Close();
      entry.state = ConnState::kClosed;
    }
  }
}

void ConfidentialServer::Reap() {
  CIO_PROF_SCOPE(node_->costs().profiler(), "server.reap");
  const uint64_t now = clock_->now_ns();
  for (auto it = connections_.begin(); it != connections_.end();) {
    const Entry& entry = it->second;
    if (entry.state == ConnState::kClosed) {
      ++stats_.closed;
      it = connections_.erase(it);
    } else if (entry.state == ConnState::kParked &&
               now - entry.since_ns > config_.reattach_timeout_ns) {
      // The client never came back: its unacknowledged messages are gone
      // for good (they would have been counted lost by the peer anyway).
      ++stats_.expired_parked;
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void ConfidentialServer::Poll() {
  if (!listening_ || sockets_ == nullptr) {
    return;
  }
  CIO_PROF_SCOPE(node_->costs().profiler(), "server.round");
  // Egress first: the replies queued since the last round (by Send, and by
  // the last round's pumps) ride this round's one doorbell, and its
  // trailing device poll puts them on the fabric in this same round.
  QueueEgress();
  ciobase::Status link = node_->PollStack();
  if (link.code() == ciobase::StatusCode::kTampered) {
    // A forged completion, found by this doorbell or reported again from
    // an earlier one. The entry it stands in for may have carried any
    // connection's bytes, receive credit or accept, so reset the rings and
    // park every connection below: each client reattaches and replays its
    // resend window.
    sockets_->AbandonInFlight();
  }
  if (link.code() == ciobase::StatusCode::kTimedOut ||
      link.code() == ciobase::StatusCode::kTampered) {
    // kTimedOut: the transport watchdog exhausted its reset budget, so the
    // link under EVERY connection is dead for good. Park them all; if the
    // host never relents the parked entries expire on their own.
    for (auto& [id, entry] : connections_) {
      if (entry.live()) {
        ParkConnection(entry);
      }
    }
  }
  // (kLinkReset: the transport already reattached its ring; TCP
  // retransmission replays the frames that died with it. Nothing to do.)

  AcceptConnections();

  {
    CIO_PROF_SCOPE(node_->costs().profiler(), "server.pump");
    uint64_t now = clock_->now_ns();
    for (auto& [id, entry] : connections_) {
      if (!entry.live()) {
        continue;
      }
      if ((entry.state == ConnState::kHandshaking ||
           entry.state == ConnState::kAttesting) &&
          now - entry.since_ns > kHandshakeTimeoutNs) {
        // A slow handshake squats a table slot; bound the squat. A
        // reattached session goes back to parked for a genuine retry.
        ParkConnection(entry);
        continue;
      }
      // Every live connection: a receive that finds nothing costs nothing
      // (on dual-boundary it drains what this round's doorbell harvested).
      PumpConnection(entry);
    }
  }
  // What the pumps produced (handshake flights, admission verdicts) is
  // queued by the next round's egress pass and rides its doorbell.
  Reap();
}

ciobase::Result<Incoming> ConfidentialServer::Receive() {
  if (inbox_.empty()) {
    return ciobase::Unavailable("no message");
  }
  Incoming incoming = std::move(inbox_.front());
  inbox_.pop_front();
  return incoming;
}

ConfidentialServer::Entry* ConfidentialServer::Live(ConnId id) {
  auto it = connections_.find(id);
  return it != connections_.end() && it->second.live() ? &it->second
                                                       : nullptr;
}

ciobase::Status ConfidentialServer::Send(ConnId id,
                                         ciobase::ByteSpan message) {
  Entry* entry = Live(id);
  if (entry == nullptr) {
    return ciobase::NotFound("no such connection");
  }
  if (entry->state != ConnState::kEstablished) {
    return ciobase::FailedPrecondition("connection not established");
  }
  cio::Session& session = entry->link.session();
  // Backpressure: the per-connection output queue is a hard byte budget.
  // Refusing here (typed, recoverable by the app) beats growing without
  // bound while a slow client drains.
  if (session.outbound().size() + message.size() >
      config_.max_send_queue_bytes) {
    ++stats_.send_queue_rejections;
    return ciobase::ResourceExhausted("send queue over budget");
  }
  return session.Send(message);
}

ciobase::Status ConfidentialServer::Drain(ConnId id) {
  Entry* entry = Live(id);
  if (entry == nullptr) {
    return ciobase::NotFound("no such connection");
  }
  if (entry->state != ConnState::kEstablished &&
      entry->state != ConnState::kHandshaking) {
    return ciobase::OkStatus();  // already draining
  }
  entry->state = ConnState::kDraining;  // flush, then FIN (QueueEgress)
  return ciobase::OkStatus();
}

ciobase::Result<ConnState> ConfidentialServer::StateOf(ConnId id) const {
  auto it = connections_.find(id);
  if (it == connections_.end()) {
    return ciobase::NotFound("no such connection");
  }
  return it->second.state;
}

std::vector<ConnId> ConfidentialServer::EstablishedConnections() const {
  std::vector<ConnId> ids;
  for (const auto& [id, entry] : connections_) {
    if (entry.state == ConnState::kEstablished) {
      ids.push_back(id);
    }
  }
  return ids;
}

const cio::Session* ConfidentialServer::SessionOf(ConnId id) const {
  auto it = connections_.find(id);
  return it != connections_.end() && it->second.live()
             ? &it->second.link.session()
             : nullptr;
}

ciobase::Result<ciobase::Buffer> ConfidentialServer::MigrateSession(
    ConnId id, SessionVault& vault, cionet::Ipv4Address target_ip,
    uint16_t target_port) {
  Entry* entry = Live(id);
  if (entry == nullptr) {
    return ciobase::NotFound("no such connection");
  }
  if (entry->state != ConnState::kEstablished) {
    return ciobase::FailedPrecondition("connection not established");
  }
  cio::Session& session = entry->link.session();
  // Serialize FIRST: the exported state must not include the redirect we
  // queue below (the importing instance would otherwise believe the client
  // already has it and skip the replay that covers it).
  ciobase::Buffer state = session.SerializeState();
  // Envelope: [peer_ip u32 LE][session state] — the importer parks the
  // session under the peer's address so the redirected reconnect reattaches.
  ciobase::Buffer envelope(4 + state.size());
  ciobase::StoreLe32(envelope.data(), entry->peer.value);
  std::copy(state.begin(), state.end(), envelope.begin() + 4);
  ciobase::Buffer sealed = vault.Seal(envelope);

  ciobase::Buffer redirect(6);
  ciobase::StoreLe32(redirect.data(), target_ip.value);
  ciobase::StoreLe16(redirect.data() + 4, target_port);
  (void)session.SendControl(cio::CtrlType::kRedirect, redirect);
  // From here this instance is no longer authoritative for the session: no
  // new application sends, no inbox delivery, just the redirect flushing
  // and the socket closing (QueueEgress). The session is never parked —
  // the sealed export is the only continuation.
  entry->state = ConnState::kMigrating;
  ++stats_.migrated_out;
  return sealed;
}

ciobase::Status ConfidentialServer::ImportSession(ciobase::ByteSpan sealed,
                                                  SessionVault& vault) {
  auto envelope = vault.Open(sealed);
  if (!envelope.ok()) {
    return envelope.status();  // typed kTampered from the vault
  }
  if (envelope->size() < 4) {
    return ciobase::Tampered("migrated session envelope truncated");
  }
  const cionet::Ipv4Address peer{ciobase::LoadLe32(envelope->data())};
  const cio::StackConfig& node_config = node_->config();
  auto session = cio::Session::Restore(
      ciobase::ByteSpan(envelope->data() + 4, envelope->size() - 4),
      cio::RekeyPolicy{node_config.rekey_after_records,
                       node_config.rekey_after_bytes});
  if (!session.ok()) {
    return session.status();
  }
  (*session)->set_profiler(node_->costs().profiler());
  // A parked entry under the embedded peer address (replacing an older
  // one): the client's redirected reconnect is an ordinary reattach from
  // here — fresh TLS from the shared PSK, re-attestation when gated, both
  // sides replay, sequence dedup keeps delivery exactly-once across the
  // instance move. The restored session has no socket yet: it starts
  // dropped, so its first establishment replays the window.
  DiscardParked(peer);
  Entry& entry = AddEntry(peer, std::move(*session));
  entry.link.Drop();
  entry.state = ConnState::kParked;
  entry.since_ns = clock_->now_ns();
  ++stats_.migrated_in;
  return ciobase::OkStatus();
}

}  // namespace cioserve
