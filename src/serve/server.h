// ConfidentialServer: a multi-tenant confidential server on one guest stack.
//
// The single-socket ConfidentialNode (src/cio/engine.*) demonstrates the
// paper's datapath for a point-to-point link. A real confidential service
// terminates MANY clients at once, all multiplexed over the same hardened
// L2 transport and the same single-distrust L5 boundary — which raises
// exactly the problems this subsystem owns:
//
//  * Connection table. Every client gets its own cio::Connection (a
//    cio::Session — TLS, framing, resend window — plus its socket) keyed by
//    a connection id, with an explicit lifecycle: handshaking ->
//    established -> draining -> closed, and parked while a faulted client
//    is away. The receive drain, the egress push, the drop on a fault and
//    the replay after re-establishment are cio::Connection's steps, the
//    same ones the single-socket engine takes — one implementation, two
//    owners.
//
//  * One poll loop. One Poll() queues the round's egress, drives the
//    transport once, then accepts and pumps every live connection. There is
//    no readiness query: a receive or an accept that finds nothing costs
//    nothing. On dual-boundary the round's one doorbell submits the queued
//    replies, and receives and accepts only drain what it harvested into
//    the L5 completion queue: a steady round crosses into the I/O
//    compartment exactly once.
//
//  * Fair scheduling. Outbound transport capacity is shared by deficit
//    round-robin: each established connection accrues a byte quantum per
//    round and may only flush while its deficit lasts. A hot client cannot
//    monopolize the L2 batch slots and starve the others.
//
//  * Admission control and backpressure. A new peer beyond
//    max_connections is refused and counted: it becomes a refusing entry
//    that, once its TLS is up, gets a typed kCtrlDenied ("server at
//    capacity") and drains shut, so the client stops reconnecting. At most
//    max_connections refusals are in progress at once; beyond that the
//    socket is aborted (RST). Established connections have a send-queue
//    byte cap; Send() beyond it returns kResourceExhausted to the
//    application instead of growing memory.
//
//  * Fault recovery. When a client's transport dies mid-conversation its
//    table entry is parked: the socket is dropped, the Session (sequence
//    numbers + resend window) stays. The client's engine reconnects (with
//    backoff); the fresh accept from the same address reattaches the
//    parked entry in place, so the connection id survives; TLS
//    re-establishes, both sides replay their windows, and the sequence
//    numbers dedup — exactly-once delivery across the fault, per
//    connection. A forged L5 completion is handled the same way for every
//    connection at once: the queue rings are reset and all are parked.
//
// Single-threaded and poll-driven like everything else in the simulation:
// call Poll() every simulation round.

#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/rng.h"
#include "src/cio/connection.h"
#include "src/cio/engine.h"
#include "src/cio/session.h"
#include "src/serve/session_vault.h"
#include "src/tee/attestation.h"

namespace cioserve {

// Connection lifecycle. kHandshaking covers TCP establishment + the TLS
// flight; kAttesting means the channel is up but the client still owes a
// transcript-bound attestation report (attestation-gated admission);
// kDraining means Close was requested and queued output is still flushing
// (no new Sends accepted); kMigrating means the session was exported to
// another instance and only the redirect still needs to flush; kParked
// means the transport died and the session waits, without a socket, for
// the client to reconnect (Send/Drain answer kNotFound until it does);
// kClosed connections are reaped.
enum class ConnState {
  kHandshaking,
  kAttesting,
  kEstablished,
  kDraining,
  kMigrating,
  kParked,
  kClosed,
};

using ConnId = uint64_t;

struct ServerConfig {
  uint16_t port = 443;

  // Admission control: new peers at the cap are refused with a typed
  // kCtrlDenied and counted (stats().rejected_admission). Parked entries
  // do not count against it, and a parked peer's reconnect is always
  // admitted: it was admitted before.
  size_t max_connections = 64;

  // Backpressure: per-connection queued-output byte cap. Send() returns
  // kResourceExhausted beyond it.
  size_t max_send_queue_bytes = 256 << 10;

  // How long a faulted connection stays parked awaiting the client's
  // reconnect before its session (and resend window) is dropped.
  uint64_t reattach_timeout_ns = 500'000'000;

  // Attestation-gated admission. When enabled, every established channel
  // (including reattaches after a fault) is challenged with a fresh nonce
  // and must answer with a ciotee::AttestationReport over
  // {Measure(expected_identity), H(challenge || TLS transcript)} issued
  // under `attestation_key`. Missing/forged/stale reports are typed
  // kUnauthenticated rejections (stats().rejected_unauthenticated), sent to
  // the client as a kCtrlDenied before the close — never counted against
  // the leakage score, never parked.
  bool require_attestation = false;
  ciobase::Buffer attestation_key;
  std::string expected_identity = "cio-node";
};

// One inbound application message, tagged with the connection it came from.
struct Incoming {
  ConnId conn = 0;
  ciobase::Buffer message;
};

class ConfidentialServer {
 public:
  // The server multiplexes over `node`'s SocketLayer; the node supplies the
  // whole stack assembly (profile machinery, costs, observability) but its
  // own single-socket Connect/Listen API stays unused.
  ConfidentialServer(cio::ConfidentialNode* node, ciobase::SimClock* clock,
                     ServerConfig config);

  ConfidentialServer(const ConfidentialServer&) = delete;
  ConfidentialServer& operator=(const ConfidentialServer&) = delete;

  // Starts listening. The accept backlog is the node's stack-level knob
  // (StackConfig::accept_backlog); admission control here is the layer
  // above it.
  ciobase::Status Start();

  // One scheduling round: drive the transport, accept (or refuse) pending
  // connections, pump every live connection, flush outbound by deficit
  // round-robin, reap the dead, expire parked entries.
  void Poll();

  // Next inbound message from any connection, kUnavailable when none.
  ciobase::Result<Incoming> Receive();

  // Queues one message to a connection. kNotFound for unknown ids,
  // kFailedPrecondition unless established, kResourceExhausted when the
  // connection's send queue is over budget.
  ciobase::Status Send(ConnId conn, ciobase::ByteSpan message);

  // Orderly shutdown: flush what is queued, then FIN. The connection
  // refuses new Sends immediately (kDraining).
  ciobase::Status Drain(ConnId conn);

  // --- Live migration --------------------------------------------------------

  // Exports an established connection's session for resumption on another
  // instance: serializes the durable session state (sequence numbers,
  // resend window, undelivered inbox), seals it through `vault`, queues a
  // kCtrlRedirect({target_ip, target_port}) to the client, and puts the
  // connection in kMigrating (the redirect flushes, then the socket
  // closes; the session is never parked here again). Anything still in
  // flight rides the serialized resend window and the client's replay.
  // Returns the sealed blob to transfer via the confidential storage path.
  ciobase::Result<ciobase::Buffer> MigrateSession(ConnId conn,
                                                  SessionVault& vault,
                                                  cionet::Ipv4Address target_ip,
                                                  uint16_t target_port);

  // Imports a sealed session exported by another instance: unseals through
  // `vault` (kTampered on any integrity/rollback/replay violation),
  // restores the cio::Session, and inserts it as a parked entry for the
  // embedded peer address — the client's redirected reconnect reattaches
  // it, TLS
  // re-establishes from the attestation-bound PSK, both sides replay, and
  // the sequence numbers keep delivery exactly-once across instances.
  ciobase::Status ImportSession(ciobase::ByteSpan sealed, SessionVault& vault);

  struct Stats {
    uint64_t accepted = 0;            // connections admitted
    uint64_t rejected_admission = 0;  // refused at the max_connections cap
    uint64_t recovered = 0;           // parked entries reattached
    uint64_t closed = 0;              // connections reaped or parked
    uint64_t expired_parked = 0;      // parked entries dropped (timeout)
    uint64_t send_queue_rejections = 0;  // Sends over the queue cap
    uint64_t tampered = 0;            // connections killed: hostile framing
    // Admission outcomes (typed, outside the leakage score).
    uint64_t admitted = 0;                   // attestation verified
    uint64_t rejected_unauthenticated = 0;   // missing/forged/stale report
    // Live migration.
    uint64_t migrated_out = 0;  // sessions exported to another instance
    uint64_t migrated_in = 0;   // sealed sessions imported and parked
  };
  const Stats& stats() const { return stats_; }
  const ServerConfig& config() const { return config_; }

  // Live entries that are not refusals.
  size_t active_connections() const {
    return CountEntries([](const Entry& e) { return e.live() && !e.refusing; });
  }
  size_t parked_sessions() const {
    return CountEntries(
        [](const Entry& e) { return e.state == ConnState::kParked; });
  }
  // Capacity refusals in progress (never more than max_connections).
  size_t refusing_connections() const {
    return CountEntries([](const Entry& e) { return e.live() && e.refusing; });
  }
  // True while the server still holds state for `peer` — a live or parked
  // table entry. Churn drivers wait for this to clear between an orderly
  // close and the next connect from the same address, so a fresh
  // connection can never reattach a half-torn-down session.
  bool ServesPeer(cionet::Ipv4Address peer) const {
    return CountEntries([&](const Entry& e) {
             return e.peer == peer && e.state != ConnState::kClosed &&
                    !e.refusing;
           }) > 0;
  }
  ciobase::Result<ConnState> StateOf(ConnId conn) const;
  // Established connection ids, for tests/benchmarks.
  std::vector<ConnId> EstablishedConnections() const;
  // The connection's live session (null when unknown, parked or closed) —
  // introspection for tests/benchmarks (ratchet generations, stats).
  const cio::Session* SessionOf(ConnId conn) const;

 private:
  // One table entry: a connection, live or parked.
  struct Entry {
    explicit Entry(std::unique_ptr<cio::Session> session)
        : link(std::move(session)) {}
    cio::Connection link;
    ConnId id = 0;
    cionet::Ipv4Address peer{};
    ConnState state = ConnState::kHandshaking;
    bool refusing = false;      // over the cap: denied once TLS is up
    bool admitted = false;      // passed admission on the current socket
    size_t drr_deficit = 0;     // unused transport credit (DRR)
    uint64_t since_ns = 0;      // when it was opened, or parked
    ciobase::Buffer challenge;  // admission nonce (kAttesting only)
    // Has a socket: neither parked nor closed.
    bool live() const {
      return state != ConnState::kParked && state != ConnState::kClosed;
    }
  };

  template <typename Pred>
  size_t CountEntries(Pred pred) const {
    return std::count_if(connections_.begin(), connections_.end(),
                         [&](const auto& item) { return pred(item.second); });
  }

  Entry& AddEntry(cionet::Ipv4Address peer,
                  std::unique_ptr<cio::Session> session);
  // The non-closed entry for `peer` that is (or is not) parked, if any.
  Entry* FindPeer(cionet::Ipv4Address peer, bool parked);
  // Keeps at most one parked entry per peer: drops the older one.
  void DiscardParked(cionet::Ipv4Address peer);
  // Accepts (or refuses at the cap) every pending connection; on
  // dual-boundary it drains the accept completions the doorbell harvested.
  void AcceptConnections();
  // The transport under `entry` died: drop its socket and park it for the
  // client's reattach, or close it when nothing is worth recovering.
  void ParkConnection(Entry& entry);
  // Moves inbound bytes into the session within this round's budget and
  // advances admission; delivers what the application may see.
  void PumpConnection(Entry& entry);
  // Channel up (and, when gated, attested): established + reattach replay.
  void Admit(Entry& entry);
  // Typed rejection: kCtrlDenied with `reason`, then drain shut.
  void Deny(Entry& entry, std::string_view reason);
  // Checks a client's attestation report against the expected measurement
  // and this connection's {challenge, transcript}-bound nonce.
  ciobase::Status VerifyReport(const Entry& entry,
                               ciobase::ByteSpan report_bytes) const;
  // kAttesting: consume the client's report and admit or deny.
  void PumpAdmission(Entry& entry);
  // DRR pass over connections with queued output: queues each one's slice
  // for the round's doorbell, and closes drained connections.
  void QueueEgress();
  void Reap();           // drop closed entries, expire parked ones
  // The live (not parked, not closed) entry `id`, or null.
  Entry* Live(ConnId id);

  cio::ConfidentialNode* node_;
  cio::SocketLayer* sockets_;
  ciobase::SimClock* clock_;
  ServerConfig config_;

  bool listening_ = false;
  cionet::SocketId listener_{};
  ConnId next_conn_id_ = 1;
  // Poll/flush iterate in id order, which doubles as round-robin order;
  // DRR deficits make the shares fair regardless of iteration order. A
  // parked entry keeps its id and its place; at most one per peer address
  // (the engine reconnects from the same simulated IP). The table is sized
  // for tens to a few hundred entries (default cap 64): an accept or a
  // park finds a peer's entries and counts the table by linear scan.
  std::map<ConnId, Entry> connections_;
  std::deque<Incoming> inbox_;
  ciobase::Buffer rx_scratch_;  // reusable inbound staging chunk
  Stats stats_;

  // Attestation-gated admission (config_.require_attestation).
  ciobase::Rng rng_;  // challenge nonces
  std::unique_ptr<ciotee::AttestationAuthority> authority_;
  ciotee::Measurement expected_measurement_{};
};

}  // namespace cioserve

#endif  // SRC_SERVE_SERVER_H_
