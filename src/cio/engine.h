// Engine: assembles complete confidential-I/O stacks and exposes the public
// application API (ConfidentialNode).
//
// A ConfidentialNode is one confidential unit (enclave or CVM) attached to
// the simulated world. Its application-level API is message-oriented and
// always TLS-protected; what varies is everything below, selected by
// StackProfile — the four corners of the paper's design space (Figure 5):
//
//   kSyscallL5     Graphene/SCONE-style: I/O via host syscalls. Tiny guest
//                  TCB, but every call, argument, and message boundary is
//                  host-visible, and each operation pays a host exit.
//   kPassthroughL2 rkt-io/ShieldBox-style: the guest runs its own TCP/IP
//                  stack over an *unhardened* raw transport in a single
//                  trust domain. Fast, network-level observability only,
//                  but the whole stack (and its attack surface) sits in
//                  the app's TCB.
//   kHardenedVirtio Lift-and-shift CVM: guest stack over virtio with the
//                  full retrofit hardening (checks + SWIOTLB bounces).
//   kDualBoundary  This work (§3): guest stack in an isolated I/O
//                  compartment behind the hardened L2 transport, with the
//                  single-distrust L5 channel and mandatory TLS above.
//
// All profiles speak the same wire format end-to-end (Ethernet/IPv4/TCP +
// TLS records), so any two profiles can interoperate across the fabric.
//
// The node runs one cio::Connection (session + socket). Its client mode
// re-attaches it after a fault (reconnect with backoff) or a migration
// redirect; its listen mode re-attaches it to the next accepted socket.
// The multi-tenant ConfidentialServer (src/serve/) runs the same
// Connection steps once per table entry.

#ifndef SRC_CIO_ENGINE_H_
#define SRC_CIO_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "src/base/clock.h"
#include "src/cio/connection.h"
#include "src/cio/dda.h"
#include "src/cio/l2_host_device.h"
#include "src/cio/l2_transport.h"
#include "src/cio/l5_channel.h"
#include "src/cio/session.h"
#include "src/cio/socket_layer.h"
#include "src/cio/tunnel_port.h"
#include "src/hostsim/adversary.h"
#include "src/hostsim/observability.h"
#include "src/net/fabric.h"
#include "src/net/stack.h"
#include "src/cio/stack_config.h"
#include "src/tee/compartment.h"
#include "src/tee/memory.h"
#include "src/tee/trust.h"
#include "src/virtio/net_driver.h"

namespace cio {

class ConfidentialNode {
 public:
  ConfidentialNode(cionet::Fabric* fabric, ciobase::SimClock* clock,
                   StackConfig config);
  ~ConfidentialNode();

  ConfidentialNode(const ConfidentialNode&) = delete;
  ConfidentialNode& operator=(const ConfidentialNode&) = delete;

  // --- Connection lifecycle ---------------------------------------------------

  ciobase::Status Listen(uint16_t port);
  ciobase::Status Connect(cionet::Ipv4Address peer, uint16_t port);
  // Orderly teardown of the current connection and a full session reset:
  // the node can Connect() again as a brand-new peer relationship (churn).
  // The session's lifetime counters survive (Session::Forget keeps them).
  ciobase::Status Disconnect();
  // Drives everything: host devices, guest stack, TLS pumping. Call in the
  // simulation loop.
  void Poll();
  // One pass over the stack: the simulated host devices, the socket
  // layer's Poll (the doorbell on dual-boundary), then the devices again —
  // the host backend runs concurrently with the guest in reality, so frames
  // the stack emits this round must not be stranded in the ring until the
  // next one. Returns the link status. Poll() calls it; so does the
  // multi-tenant server, which drives sockets() itself.
  ciobase::Status PollStack();
  // True once a socket is attached and the session is established: with
  // TLS, once its handshake completes over the connected socket; without
  // TLS (an ablation), at once, and sends wait in the socket until the
  // connect completes.
  bool Ready() const;
  bool Failed() const;

  // --- Admission / migration (client side) ------------------------------------

  // Attestation-gated servers challenge after the handshake; Poll() answers
  // with a report bound to {challenge, TLS transcript} using
  // config.attestation_key. These expose the outcome.
  bool admitted() const { return admitted_; }
  // The server rejected admission (kUnauthenticated there): terminal here —
  // reconnect loops cannot fix a bad credential.
  bool denied() const { return denied_; }
  // Times this node followed a kCtrlRedirect to a new instance.
  uint64_t migrations() const { return migrations_; }
  // Sessions retired by Disconnect() over this node's lifetime.
  uint64_t sessions_retired() const { return sessions_retired_; }

  // --- Application data ---------------------------------------------------------

  // Messages are sequence-numbered on the wire ([len u32][seq u64][payload])
  // so that after a link reset + TLS re-establishment the resend window can
  // replay unacknowledged messages and the receiver can drop duplicates:
  // every message is delivered exactly once, or counted in
  // recovery_stats().messages_lost. (See cio::Session for the machinery.)
  // On dual-boundary the sealed message is queued for this round's doorbell
  // in Poll() (at once with l5_latency_mode); other profiles send it now.
  ciobase::Status SendMessage(ciobase::ByteSpan message);
  ciobase::Result<ciobase::Buffer> ReceiveMessage();

  // --- Introspection (benchmarks, campaign) -----------------------------------

  cionet::Ipv4Address ip() const { return ip_; }
  StackProfile profile() const { return config_.profile; }
  const StackConfig& config() const { return config_; }
  ciobase::CostModel& costs() { return costs_; }
  ciohost::ObservabilityLog& observability() { return observability_; }
  ciohost::Adversary& adversary() { return adversary_; }
  ciotee::TeeMemory& memory() { return memory_; }
  ciotee::CompartmentManager* compartments() { return compartments_.get(); }
  // The dual-boundary L5 channel (null on other profiles), for stats and
  // hostile-host tests; data moves through sockets().
  L5Channel* l5() { return l5_; }
  L2Transport* l2_transport() { return l2_transport_.get(); }
  ciovirtio::VirtioNetDriver* virtio_driver() { return virtio_driver_.get(); }
  DdaTransport* dda_transport() { return dda_transport_.get(); }
  TunnelPort* tunnel_port() { return tunnel_port_.get(); }
  ciotee::SharedRegion* shared_region() { return shared_.get(); }
  const ciotls::TlsSession* tls() const { return session().tls(); }
  // The profile's socket plumbing (the L5 channel itself on dual-boundary):
  // the multi-tenant server drives its own connection table through this
  // instead of the node's single socket.
  SocketLayer* sockets() { return ops_.get(); }
  // A fresh session under this node's config (TLS, PSK, resend window,
  // rekey policy, profiler): the node's own, and each server entry's.
  std::unique_ptr<Session> NewSession() const;
  // Application-level operations completed (messages in + out): the
  // denominator of the observability score.
  uint64_t app_ops() const { return messages_sent() + messages_received(); }
  uint64_t messages_sent() const { return session().stats().messages_sent; }
  uint64_t messages_received() const {
    return session().stats().messages_received;
  }
  // Send-direction key updates initiated over the node's lifetime.
  uint64_t rekeys() const { return session().stats().rekeys; }
  const Session& session() const { return conn_.session(); }

  // Link-recovery bookkeeping (PR 2): what the node survived and what it
  // cost. `messages_lost` counts receive-side sequence gaps — messages a
  // peer sent that fell out of its resend window across a reconnect.
  struct RecoveryStats {
    uint64_t link_errors = 0;       // transport/TCP faults seen by the engine
    uint64_t reconnects = 0;        // TCP re-establishments attempted
    uint64_t tls_restarts = 0;      // fresh TLS sessions after a fault
    uint64_t messages_resent = 0;   // replayed from the resend window
    uint64_t messages_duplicate_dropped = 0;  // dedup'd by sequence number
    uint64_t messages_lost = 0;     // receive-side sequence gaps
    uint64_t last_fault_ns = 0;     // when the engine last saw a fault
  };
  // Composed from the node's link-level counters and the session's message
  // accounting (returned by value since the session owns half the fields).
  RecoveryStats recovery_stats() const;

 private:
  struct SyscallOps;       // profile-specific byte-stream plumbing
  struct GuestStackOps;

  void PumpBytes();
  // Kills the live transport and its queue state (the session keeps its
  // sequence numbers and resend window for the replay) and schedules the
  // re-establishment: after the current backoff, or at once for a directed
  // move.
  void DropTransport(bool at_once);
  // Tears down the failed secure channel and schedules re-establishment
  // (client re-connects with backoff; server re-arms its accept loop).
  void BeginRecovery(const char* reason);
  // Drives reconnect attempts and resend-window replay from Poll().
  void PollRecovery();
  // Drains the session's control inbox: attestation challenges, admission
  // verdicts, migration redirects.
  void PollControlPlane();

  StackConfig config_;
  cionet::Ipv4Address ip_;
  ciobase::SimClock* clock_;
  ciobase::CostModel costs_;
  ciohost::ObservabilityLog observability_;
  ciohost::Adversary adversary_;
  ciotee::TeeMemory memory_;

  // Profile-dependent machinery (subset populated per profile).
  std::unique_ptr<ciotee::SharedRegion> shared_;
  std::unique_ptr<ciotee::CompartmentManager> compartments_;
  ciotee::CompartmentId app_compartment_{};
  ciotee::CompartmentId io_compartment_{};
  std::unique_ptr<ciovirtio::VirtioNetDevice> virtio_device_;
  std::unique_ptr<ciovirtio::VirtioNetDriver> virtio_driver_;
  std::unique_ptr<L2HostDevice> l2_device_;
  std::unique_ptr<L2Transport> l2_transport_;
  std::unique_ptr<TunnelPort> tunnel_port_;
  std::unique_ptr<ciotee::AttestationAuthority> device_authority_;
  std::unique_ptr<DdaDevice> dda_device_;
  std::unique_ptr<DdaTransport> dda_transport_;
  std::unique_ptr<cionet::NetStack> guest_stack_;
  std::unique_ptr<cionet::FramePort> host_port_;
  std::unique_ptr<cionet::NetStack> host_stack_;  // syscall profile
  std::unique_ptr<SocketLayer> ops_;
  L5Channel* l5_ = nullptr;  // ops_ itself on dual-boundary

  // The single connection this node runs (TLS + framing + resend window +
  // at most one socket); src/serve/ holds one per table entry instead.
  Connection conn_;
  std::optional<cionet::SocketId> listener_;  // listen mode
  // Listen mode: the peer closed the last connection on purpose, so the
  // next one adopted starts a fresh session.
  bool retired_by_peer_ = false;
  ciobase::Buffer rx_scratch_;  // reusable inbound chunk staging (PumpBytes)
  bool failed_ = false;

  // Client mode: where Connect (or the last migration redirect) points.
  struct Target {
    cionet::Ipv4Address ip;
    uint16_t port = 0;
  };
  std::optional<Target> target_;
  // Recovery state machine (active only with config_.recovery.enabled).
  struct Reconnect {
    bool pending = false;  // channel down, re-establishment due
    uint32_t attempts = 0;
    uint64_t next_ns = 0;
    uint64_t backoff_ns = 0;
  };
  Reconnect reconnect_;
  RecoveryStats recovery_stats_;  // link-level half; session owns the rest

  // Admission / migration state (client side).
  bool admitted_ = false;
  bool denied_ = false;
  uint64_t migrations_ = 0;
  uint64_t sessions_retired_ = 0;
};

// Convenience for tests/benchmarks: two nodes on one fabric, pumped until
// ready or a round budget expires.
struct LinkedPair {
  ciobase::SimClock clock;
  std::unique_ptr<cionet::Fabric> fabric;
  std::unique_ptr<ConfidentialNode> client;
  std::unique_ptr<ConfidentialNode> server;

  LinkedPair(StackConfig client_config, StackConfig server_config,
             cionet::Fabric::Options fabric_options = {});

  // Establishes server listen + client connect + TLS. Returns success.
  bool Establish(uint16_t port = 443, int max_rounds = 20000);
  // One pump round for both sides, advancing simulated time.
  void Pump(uint64_t step_ns = 10'000);
  bool PumpUntil(const std::function<bool()>& done, int max_rounds = 20000,
                 uint64_t step_ns = 10'000);
};

}  // namespace cio

#endif  // SRC_CIO_ENGINE_H_
