#include "src/cio/engine.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "src/base/log.h"
#include "src/prof/profiler.h"
#include "src/tee/attestation.h"

namespace cio {

namespace {

// Wraps the syscall profile's host-side port: the host kernel runs this TCP
// stack itself, so on top of the syscall metadata it also sees every frame
// (a syscall-level design leaks a superset of what a network observer gets).
class ObservedPort final : public cionet::FramePort {
 public:
  ObservedPort(std::unique_ptr<cionet::DirectFabricPort> inner,
               ciohost::ObservabilityLog* observability,
               ciobase::SimClock* clock)
      : inner_(std::move(inner)),
        observability_(observability),
        clock_(clock) {}

  ciobase::Result<size_t> SendFrames(
      std::span<const ciobase::ByteSpan> frames) override {
    auto sent = inner_->SendFrames(frames);
    if (sent.ok()) {
      for (size_t i = 0; i < *sent; ++i) {
        observability_->Record(ciohost::ObsCategory::kPacketLength,
                               frames[i].size(), "host-stack tx");
        observability_->Record(ciohost::ObsCategory::kPacketTiming,
                               clock_->now_ns(), "host-stack tx");
      }
    }
    return sent;
  }
  ciobase::Result<size_t> ReceiveFrames(cionet::FrameBatch& batch,
                                        size_t max_frames) override {
    auto got = inner_->ReceiveFrames(batch, max_frames);
    if (got.ok()) {
      for (size_t i = 0; i < *got; ++i) {
        observability_->Record(ciohost::ObsCategory::kPacketLength,
                               batch[i].size(), "host-stack rx");
        observability_->Record(ciohost::ObsCategory::kPacketTiming,
                               clock_->now_ns(), "host-stack rx");
      }
    }
    return got;
  }
  cionet::MacAddress mac() const override { return inner_->mac(); }
  uint16_t mtu() const override { return inner_->mtu(); }

 private:
  std::unique_ptr<cionet::DirectFabricPort> inner_;
  ciohost::ObservabilityLog* observability_;
  ciobase::SimClock* clock_;
};

// The send queue of the direct-call profiles: SendBytes queues what fits in
// the socket's free send-buffer space (so backpressure is what a direct
// TcpSend would apply), and Push hands the queue to the stack. Pushing only
// after the stack's own Poll is what lets a server queue its egress before
// the round's poll, as on dual-boundary, without sending ahead of the ACKs
// that poll ingests. On syscall-l5 the free-space read is part of the
// send() call SendBytes already charges as a host exit: it models that
// call's return value, not a second call.
class DirectSends {
 public:
  explicit DirectSends(cionet::NetStack* stack) : stack_(stack) {}

  ciobase::Result<size_t> Queue(cionet::SocketId id, ciobase::ByteSpan data) {
    auto space = stack_->TcpSendSpace(id);
    if (!space.ok()) {
      return space.status();
    }
    ciobase::Buffer& queued = queued_[id.value];
    const size_t n =
        std::min(data.size(), *space - std::min(*space, queued.size()));
    queued.insert(queued.end(), data.begin(), data.begin() + n);
    if (queued.empty()) {
      queued_.erase(id.value);
    }
    return n;
  }
  // A socket that died meanwhile refuses its bytes; the session's resend
  // window owns delivery, and the receive path reports the fault.
  void Push() {
    for (const auto& [socket, bytes] : queued_) {
      (void)stack_->TcpSend(cionet::SocketId{socket}, bytes);
    }
    queued_.clear();
  }
  void Push(cionet::SocketId id) {
    auto it = queued_.find(id.value);
    if (it != queued_.end()) {
      (void)stack_->TcpSend(id, it->second);
      queued_.erase(it);
    }
  }
  bool Pending(cionet::SocketId id) const {
    return queued_.count(id.value) != 0;
  }
  void Cancel(cionet::SocketId id) { queued_.erase(id.value); }
  void Clear() { queued_.clear(); }

 private:
  cionet::NetStack* stack_;
  std::map<uint32_t, ciobase::Buffer> queued_;
};

}  // namespace

// --- Byte-stream plumbing ------------------------------------------------------

// Syscall-level I/O (Graphene/SCONE style): the socket lives in the HOST
// network stack; every data-carrying operation is a host exit with a
// boundary copy, and its type, arguments, and exact size are host-visible.
// A send is charged and seen when it is issued (SendBytes); the host stack
// runs the queued sends on Flush, or on Poll after it has ingested.
struct ConfidentialNode::SyscallOps final : SocketLayer {
  ConfidentialNode* node;
  DirectSends sends;
  explicit SyscallOps(ConfidentialNode* n)
      : node(n), sends(n->host_stack_.get()) {}

  void RecordCall(const char* name, uint64_t arg) {
    node->observability_.Record(ciohost::ObsCategory::kCallType, 0, name);
    node->observability_.Record(ciohost::ObsCategory::kCallArgs, arg, name);
  }

  ciobase::Result<cionet::SocketId> Connect(cionet::Ipv4Address ip,
                                            uint16_t port) override {
    node->costs_.ChargeHostExit();
    RecordCall("connect", (static_cast<uint64_t>(ip.value) << 16) | port);
    return node->host_stack_->TcpConnect(ip, port);
  }
  ciobase::Result<cionet::SocketId> Listen(uint16_t port) override {
    node->costs_.ChargeHostExit();
    RecordCall("listen", port);
    return node->host_stack_->TcpListen(port);
  }
  ciobase::Result<Accepted> Accept(cionet::SocketId id) override {
    auto result = AcceptFrom(*node->host_stack_, id);
    if (result.ok()) {
      // The accept timing itself is a host-visible event [3].
      node->costs_.ChargeHostExit();
      RecordCall("accept", node->clock_->now_ns());
    }
    return result;
  }
  ciobase::Status Close(cionet::SocketId id) override {
    node->costs_.ChargeHostExit();
    RecordCall("close", id.value);
    sends.Push(id);  // the FIN must not outrun them
    return node->host_stack_->TcpClose(id);
  }
  ciobase::Status Abort(cionet::SocketId id) override {
    node->costs_.ChargeHostExit();
    RecordCall("abort", id.value);
    sends.Cancel(id);
    return node->host_stack_->TcpAbort(id);
  }
  ciobase::Result<size_t> SendBytes(cionet::SocketId id,
                                    ciobase::ByteSpan data) override {
    node->costs_.ChargeHostExit();
    node->costs_.ChargeCopy(data.size());  // guest -> host buffer
    node->observability_.Record(ciohost::ObsCategory::kCallType, 1, "send");
    node->observability_.Record(ciohost::ObsCategory::kMessageBoundary,
                                data.size(), "send size");
    if (!node->config_.use_tls && !data.empty()) {
      node->observability_.Record(ciohost::ObsCategory::kPayload,
                                  data.size(), "plaintext visible to host");
    }
    return sends.Queue(id, data);
  }
  ciobase::Status Flush() override {
    sends.Push();
    return ciobase::OkStatus();
  }
  bool SendsInFlight(cionet::SocketId id) const override {
    return sends.Pending(id);
  }
  void AbandonInFlight() override { sends.Clear(); }
  ciobase::Result<size_t> ReceiveBytes(cionet::SocketId id, size_t max,
                                       ciobase::Buffer& out) override {
    auto got = ReceiveFrom(*node->host_stack_, id, max, out);
    if (got.ok() && *got > 0) {
      node->costs_.ChargeHostExit();
      node->costs_.ChargeCopy(*got);  // host buffer -> guest
      node->observability_.Record(ciohost::ObsCategory::kCallType, 2, "recv");
      node->observability_.Record(ciohost::ObsCategory::kMessageBoundary,
                                  *got, "recv size");
      if (!node->config_.use_tls) {
        node->observability_.Record(ciohost::ObsCategory::kPayload, *got,
                                    "plaintext visible to host");
      }
    }
    return got;
  }
  ciobase::Status Poll() override {
    ciobase::Status link = node->host_stack_->Poll();
    sends.Push();
    return link;
  }
};

// Guest-owned stack over some FramePort (passthrough / hardened virtio):
// a single trust domain containing app + TLS + stack + driver.
struct ConfidentialNode::GuestStackOps final : SocketLayer {
  ConfidentialNode* node;
  DirectSends sends;
  explicit GuestStackOps(ConfidentialNode* n)
      : node(n), sends(n->guest_stack_.get()) {}

  ciobase::Result<cionet::SocketId> Connect(cionet::Ipv4Address ip,
                                            uint16_t port) override {
    return node->guest_stack_->TcpConnect(ip, port);
  }
  ciobase::Result<cionet::SocketId> Listen(uint16_t port) override {
    return node->guest_stack_->TcpListen(port);
  }
  ciobase::Result<Accepted> Accept(cionet::SocketId id) override {
    return AcceptFrom(*node->guest_stack_, id);
  }
  ciobase::Status Close(cionet::SocketId id) override {
    sends.Push(id);  // the FIN must not outrun them
    return node->guest_stack_->TcpClose(id);
  }
  ciobase::Status Abort(cionet::SocketId id) override {
    sends.Cancel(id);
    return node->guest_stack_->TcpAbort(id);
  }
  ciobase::Result<size_t> SendBytes(cionet::SocketId id,
                                    ciobase::ByteSpan data) override {
    return sends.Queue(id, data);
  }
  ciobase::Status Flush() override {
    sends.Push();
    return ciobase::OkStatus();
  }
  bool SendsInFlight(cionet::SocketId id) const override {
    return sends.Pending(id);
  }
  void AbandonInFlight() override { sends.Clear(); }
  ciobase::Result<size_t> ReceiveBytes(cionet::SocketId id, size_t max,
                                       ciobase::Buffer& out) override {
    return ReceiveFrom(*node->guest_stack_, id, max, out);
  }
  ciobase::Status Poll() override {
    ciobase::Status link = node->guest_stack_->Poll();
    sends.Push();
    return link;
  }
};

// --- ConfidentialNode ------------------------------------------------------------

ConfidentialNode::ConfidentialNode(cionet::Fabric* fabric,
                                   ciobase::SimClock* clock,
                                   StackConfig config)
    : config_(std::move(config)),
      ip_(cionet::Ipv4Address::FromOctets(
          10, 0, 0, static_cast<uint8_t>(config_.node_id))),
      clock_(clock),
      costs_(clock),
      adversary_(config_.seed ^ 0xadu),
      conn_(NewSession()) {
  if (!config_.Valid()) {
    failed_ = true;
    return;
  }
  if (config_.profiler != nullptr) {
    // One registry profiles one node: bind it to this node's clock + cost
    // model so probes below (session, stacks, rings, drivers) all attribute
    // through the same counter snapshots.
    config_.profiler->Bind(clock, &costs_);
    costs_.set_profiler(config_.profiler);
  }
  cionet::MacAddress mac = cionet::MacAddress::FromId(config_.node_id);
  std::string name = "node-" + std::to_string(config_.node_id);
  cionet::NetStack::Config stack_config;
  stack_config.ip = ip_;
  stack_config.seed = config_.seed;
  stack_config.tcp_tuning = config_.tcp_tuning;
  stack_config.tcp_accept_backlog = config_.accept_backlog;

  switch (config_.profile) {
    case StackProfile::kSyscallL5: {
      host_port_ = std::make_unique<ObservedPort>(
          std::make_unique<cionet::DirectFabricPort>(fabric, name, mac),
          &observability_, clock);
      host_stack_ = std::make_unique<cionet::NetStack>(host_port_.get(),
                                                       clock, stack_config);
      ops_ = std::make_unique<SyscallOps>(this);
      break;
    }
    case StackProfile::kPassthroughL2:
    case StackProfile::kHardenedVirtio:
    case StackProfile::kTunneledL2: {
      auto layout = ciovirtio::VirtioNetLayout::Make(128, 2048, 256);
      shared_ = std::make_unique<ciotee::SharedRegion>(
          &memory_, layout.TotalSize(), name + "-virtio");
      virtio_device_ = std::make_unique<ciovirtio::VirtioNetDevice>(
          shared_.get(), layout, fabric, name, mac, 1500,
          ciovirtio::kFeatureMac | ciovirtio::kFeatureMtu |
              ciovirtio::kFeatureCsum | ciovirtio::kFeatureVersion1 |
              ciovirtio::kFeatureIndirectDesc,
          &adversary_, &observability_, clock);
      virtio_driver_ = std::make_unique<ciovirtio::VirtioNetDriver>(
          shared_.get(), layout, virtio_device_.get(), &costs_,
          config_.profile == StackProfile::kHardenedVirtio
              ? ciovirtio::HardeningOptions::Full()
              : ciovirtio::HardeningOptions::Passthrough(),
          &observability_, config_.recovery);
      if (!virtio_driver_->Negotiate().ok()) {
        failed_ = true;
        break;
      }
      if (config_.profile == StackProfile::kTunneledL2) {
        // LightBox-style: the tunnel wraps the raw port; one endpoint of a
        // pair must be the initiator (odd node ids initiate).
        tunnel_port_ = std::make_unique<TunnelPort>(
            virtio_driver_.get(),
            ciobase::BufferFromString("tunnel-gateway-psk-32-bytes....."),
            config_.node_id % 2 == 1, &costs_);
        guest_stack_ = std::make_unique<cionet::NetStack>(tunnel_port_.get(),
                                                          clock,
                                                          stack_config);
      } else {
        guest_stack_ = std::make_unique<cionet::NetStack>(
            virtio_driver_.get(), clock, stack_config);
      }
      ops_ = std::make_unique<GuestStackOps>(this);
      break;
    }
    case StackProfile::kDirectDevice: {
      // §3.4: SPDM-attested device with an IDE-protected link. The
      // provisioning secret stands in for the SPDM key exchange; it is
      // bound to the expected device measurement by the verifier check.
      static constexpr char kPlatformKey[] = "pcie-cert-chain-root";
      static constexpr char kProvisioning[] = "spdm-session-secret";
      DdaConfig dda_config;
      dda_config.mac = mac;
      DdaLayout layout(dda_config);
      shared_ = std::make_unique<ciotee::SharedRegion>(&memory_, layout.total,
                                                       name + "-dda");
      device_authority_ = std::make_unique<ciotee::AttestationAuthority>(
          ciobase::BufferFromString(kPlatformKey));
      dda_device_ = std::make_unique<DdaDevice>(
          shared_.get(), dda_config, fabric, name, device_authority_.get(),
          ciobase::BufferFromString(kProvisioning), &adversary_,
          &observability_, clock);
      dda_transport_ = std::make_unique<DdaTransport>(
          shared_.get(), dda_config, dda_device_.get(), &costs_,
          device_authority_.get(), config_.seed ^ 0x5bd);
      if (!dda_transport_->Attest(ciobase::BufferFromString(kProvisioning))
               .ok()) {
        failed_ = true;
        break;
      }
      guest_stack_ = std::make_unique<cionet::NetStack>(dda_transport_.get(),
                                                        clock, stack_config);
      ops_ = std::make_unique<GuestStackOps>(this);
      break;
    }
    case StackProfile::kDualBoundary: {
      L2Config l2_config;
      l2_config.mac = mac;
      l2_config.mtu = 1500;
      l2_config.ring_slots = 256;
      l2_config.slot_size = 2048;
      l2_config.positioning = config_.l2_positioning;
      l2_config.rx_ownership = config_.l2_rx_ownership;
      L2Layout layout(l2_config);
      shared_ = std::make_unique<ciotee::SharedRegion>(&memory_, layout.total,
                                                       name + "-l2");
      l2_device_ = std::make_unique<L2HostDevice>(shared_.get(), l2_config,
                                                  fabric, name, &adversary_,
                                                  &observability_, clock);
      l2_transport_ = std::make_unique<L2Transport>(
          shared_.get(), l2_config, &costs_, config_.recovery);
      // Every payload byte is sealed end to end by the L5 AEAD layer, so the
      // defensive receive copies at both layers are redundant with its
      // check: the L2 ring snapshots only headers, and the L5 channel
      // harvests in place.
      l2_transport_->set_sealed_rx(true);
      guest_stack_ = std::make_unique<cionet::NetStack>(l2_transport_.get(),
                                                        clock, stack_config);
      compartments_ = std::make_unique<ciotee::CompartmentManager>(&costs_);
      app_compartment_ = compartments_->Create("app", 4 << 20);
      io_compartment_ = compartments_->Create("io-stack", 4 << 20);
      // Single distrust: the app may reach into the I/O heap; the I/O
      // stack gets NO grant into app memory (ternary model, §3.1).
      compartments_->GrantAccess(app_compartment_, io_compartment_);
      auto l5 = std::make_unique<L5Channel>(
          compartments_.get(), app_compartment_, io_compartment_,
          guest_stack_.get(), &costs_, L5ReceiveMode::kSealed,
          config_.l5_boundary, config_.l5_queue);
      l5_ = l5.get();
      ops_ = std::move(l5);
      break;
    }
  }
  if (config_.profiler != nullptr) {
    if (guest_stack_ != nullptr) guest_stack_->set_profiler(config_.profiler);
    if (host_stack_ != nullptr) host_stack_->set_profiler(config_.profiler);
  }
}

ConfidentialNode::~ConfidentialNode() = default;

std::unique_ptr<Session> ConfidentialNode::NewSession() const {
  auto session = std::make_unique<Session>(
      config_.use_tls, config_.psk,
      config_.recovery.enabled ? config_.recovery.resend_window : 0,
      RekeyPolicy{config_.rekey_after_records, config_.rekey_after_bytes});
  session->set_profiler(config_.profiler);
  return session;
}

ciobase::Status ConfidentialNode::Listen(uint16_t port) {
  if (failed_ || ops_ == nullptr) {
    return ciobase::FailedPrecondition("node failed to initialize");
  }
  auto listener = ops_->Listen(port);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = *listener;
  return ciobase::OkStatus();
}

ciobase::Status ConfidentialNode::Connect(cionet::Ipv4Address peer,
                                          uint16_t port) {
  if (failed_ || ops_ == nullptr) {
    return ciobase::FailedPrecondition("node failed to initialize");
  }
  auto socket = ops_->Connect(peer, port);
  if (!socket.ok()) {
    return socket.status();
  }
  conn_.Attach(ops_.get(), *socket, ciotls::TlsRole::kClient, config_.seed);
  target_ = Target{peer, port};
  return ciobase::OkStatus();
}

ciobase::Status ConfidentialNode::Disconnect() {
  if (failed_ || ops_ == nullptr) {
    return ciobase::FailedPrecondition("node failed to initialize");
  }
  // Orderly FIN (buffered data flushes first); the socket layer releases
  // whatever queue state the socket still pins, so the churn loop returns
  // the node to exact pool-accounting zero.
  conn_.Close();
  target_.reset();
  admitted_ = false;
  reconnect_ = {};
  conn_.session().Forget();
  ++sessions_retired_;
  return ciobase::OkStatus();
}

bool ConfidentialNode::Ready() const {
  return !failed_ && conn_.has_socket() && session().Established();
}

bool ConfidentialNode::Failed() const {
  // With recovery enabled a dead TLS session is a fault in flight, not a
  // terminal state — Poll() tears it down and re-establishes.
  return failed_ || (!config_.recovery.enabled && session().TlsFailed());
}

void ConfidentialNode::PumpBytes() {
  if (!conn_.has_socket()) {
    return;
  }
  CIO_PROF_SCOPE(costs_.profiler(), "engine.pump");
  // Flush pending protected bytes into the transport, as far as it allows.
  // On dual-boundary that doorbell also harvests what arrived since the
  // last one — e.g. frames the trailing device poll of ops_->Poll()
  // delivered — so they do not wait a whole round. With nothing to send,
  // ring it for the harvest alone (a no-op on the other profiles).
  if (!conn_.Push(SIZE_MAX, /*flush_each=*/true).flushed) {
    ciobase::Status harvested = ops_->Flush();
    if (harvested.code() == ciobase::StatusCode::kTampered) {
      // A forged completion: the ring may have lost a real one. Reset it
      // and replay from the resend window. (A flush inside Push that finds
      // one leaves it for the next Poll, which sees it again.)
      BeginRecovery(harvested.message().c_str());
      return;
    }
  }
  // Drain every inbound byte into the reusable scratch chunk: the
  // steady-state receive path allocates nothing per round.
  switch (conn_.Receive(SIZE_MAX, rx_scratch_)) {
    case Connection::Event::kIdle:
      break;
    case Connection::Event::kEof:  // the peer closed on purpose: no fault
      if (listener_.has_value()) {
        // The peer ended this lifetime: FIN our side and adopt the next
        // connection, as a new peer relationship.
        conn_.Close();
        retired_by_peer_ = true;
        return;
      }
      break;
    case Connection::Event::kFault:
      BeginRecovery("connection fault");
      break;
    case Connection::Event::kTampered:
      failed_ = true;  // hostile framing inside the protected stream
      break;
  }
  // A handshake reply flight produced while ingesting leaves this round.
  (void)conn_.Push(SIZE_MAX, /*flush_each=*/true);
}

void ConfidentialNode::DropTransport(bool at_once) {
  // Dual-boundary ring epoch reset: everything still queued in the SQ/CQ
  // is abandoned (its payloads live in the resend window) and any
  // completions the old generation still posts reap as stale instead of as
  // tampering. Done first, so the Abort below has no per-socket state left
  // to cancel.
  ops_->AbandonInFlight();
  conn_.Drop();
  reconnect_.pending = true;
  if (reconnect_.backoff_ns == 0) {
    reconnect_.backoff_ns = config_.recovery.backoff_initial_ns;
  }
  reconnect_.next_ns =
      clock_->now_ns() + (at_once ? 0 : reconnect_.backoff_ns);
}

void ConfidentialNode::BeginRecovery(const char* reason) {
  if (!config_.recovery.enabled) {
    failed_ = true;
    return;
  }
  CIO_LOG(kDebug) << "link recovery (" << reason << ")";
  ++recovery_stats_.link_errors;
  recovery_stats_.last_fault_ns = clock_->now_ns();
  DropTransport(/*at_once=*/false);
}

void ConfidentialNode::PollRecovery() {
  if (!config_.recovery.enabled || failed_) {
    return;
  }
  uint64_t now = clock_->now_ns();
  // Client side: re-establish TCP + TLS with capped exponential backoff.
  // (The server keeps listening; Poll()'s accept branch re-arms it.)
  if (reconnect_.pending && target_.has_value() && !conn_.has_socket() &&
      now >= reconnect_.next_ns) {
    if (reconnect_.attempts >= config_.recovery.max_reconnects) {
      failed_ = true;  // the host never let a connection live again
      return;
    }
    ++reconnect_.attempts;
    ++recovery_stats_.reconnects;
    auto socket = ops_->Connect(target_->ip, target_->port);
    if (socket.ok()) {
      conn_.Attach(ops_.get(), *socket, ciotls::TlsRole::kClient,
                   config_.seed);
    }
    // If this attempt dies too, the next one waits twice as long (capped).
    reconnect_.backoff_ns =
        std::min(reconnect_.backoff_ns * 2, config_.recovery.backoff_cap_ns);
    reconnect_.next_ns = now + reconnect_.backoff_ns;
  }
  // Both sides: once the channel is back, replay the resend window. The
  // receiver's sequence numbers drop whatever was already delivered.
  if (Ready() && conn_.ReplayIfReestablished()) {
    reconnect_ = {};
    PumpBytes();
  }
}

void ConfidentialNode::PollControlPlane() {
  Session& session = conn_.session();
  while (auto msg = session.PollControl()) {
    switch (static_cast<CtrlType>(msg->type)) {
      case CtrlType::kAttestChallenge: {
        // Bind the report to this connection: nonce = H(challenge ||
        // transcript), so a report lifted from another connection or signed
        // over an old challenge fails verification. A node without a
        // platform key answers with an empty report and takes the typed
        // rejection.
        ciobase::Buffer report_bytes;
        if (!config_.attestation_key.empty()) {
          ciocrypto::Sha256Digest transcript{};
          if (session.tls() != nullptr) {
            transcript = session.tls()->transcript_hash();
          }
          // Stale-probe hook: sign zeros instead of the fresh challenge,
          // modeling a replayed report.
          ciobase::Buffer challenge =
              config_.attest_stale_probe
                  ? ciobase::Buffer(msg->body.size(), 0)
                  : msg->body;
          ciotee::AttestationAuthority authority(config_.attestation_key);
          ciotee::AttestationReport report = authority.Issue(
              ciotee::Measure(config_.code_identity, {}),
              ciotee::BindNonce(challenge, transcript));
          report_bytes = report.Serialize();
        }
        (void)session.SendControl(CtrlType::kAttestReport, report_bytes);
        PumpBytes();
        break;
      }
      case CtrlType::kAdmitted:
        admitted_ = true;
        break;
      case CtrlType::kDenied:
        // Terminal: reconnecting with the same credential would only burn
        // the recovery budget on guaranteed kUnauthenticated rejections.
        denied_ = true;
        failed_ = true;
        return;
      case CtrlType::kRedirect: {
        if (msg->body.size() != 6 || !target_.has_value() ||
            !config_.recovery.enabled) {
          break;
        }
        // The session migrated: drop the transport to the old instance and
        // reconnect to the new one immediately (directed move, no backoff).
        // The resend window + fresh handshake restore exactly-once there.
        ++migrations_;
        DropTransport(/*at_once=*/true);
        admitted_ = false;
        target_ = Target{{ciobase::LoadLe32(msg->body.data())},
                         ciobase::LoadLe16(msg->body.data() + 4)};
        return;  // ResetChannel dropped the rest of the control inbox
      }
      default:
        break;  // unknown control types are ignored, not faults
    }
  }
}

void ConfidentialNode::Poll() {
  if (ops_ == nullptr) {
    return;
  }
  CIO_PROF_SCOPE(costs_.profiler(), "engine.poll");
  ciobase::Status link = PollStack();
  if (!link.ok() && link.code() == ciobase::StatusCode::kTimedOut) {
    // The transport's reset budget is exhausted: the host stopped the link
    // for good. Everything still in flight is lost.
    ++recovery_stats_.link_errors;
    recovery_stats_.last_fault_ns = clock_->now_ns();
    failed_ = true;
    return;
  }
  // (kLinkReset needs no action here: the transport already reattached its
  // ring and TCP retransmission replays the frames that died with it.)
  if (link.code() == ciobase::StatusCode::kTampered) {
    // A forged completion, found by this doorbell or reported again from
    // an earlier one: the ring may have lost a real completion. Reset it
    // and replay from the resend window.
    if (conn_.has_socket()) {
      BeginRecovery(link.message().c_str());
    } else {
      ops_->AbandonInFlight();
    }
  }

  // Listen mode: adopt the first pending connection; any others wait in
  // the socket layer until this one ends.
  if (listener_.has_value() && !conn_.has_socket()) {
    auto accepted = ops_->Accept(*listener_);
    if (accepted.ok()) {
      if (retired_by_peer_) {
        conn_.session().Forget();  // the old lifetime stayed readable till now
        retired_by_peer_ = false;
      }
      conn_.Attach(ops_.get(), accepted->socket, ciotls::TlsRole::kServer,
                   config_.seed + 1);
    }
  }
  // A dead TLS session is a fault to recover from, not a terminal state.
  if (config_.recovery.enabled && session().TlsFailed()) {
    BeginRecovery("tls session failed");
  }
  PumpBytes();
  {
    CIO_PROF_SCOPE(costs_.profiler(), "engine.ctrl");
    PollControlPlane();
  }
  {
    CIO_PROF_SCOPE(costs_.profiler(), "engine.recovery");
    PollRecovery();
  }
}

ciobase::Status ConfidentialNode::PollStack() {
  auto poll_devices = [this] {
    if (virtio_device_ != nullptr) {
      virtio_device_->Poll();
    }
    if (dda_device_ != nullptr) {
      dda_device_->Poll();
    }
    if (l2_device_ != nullptr) {
      l2_device_->Poll();
    }
  };
  poll_devices();
  ciobase::Status link = ops_->Poll();
  poll_devices();
  return link;
}

ciobase::Status ConfidentialNode::SendMessage(ciobase::ByteSpan message) {
  if (!Ready()) {
    return ciobase::FailedPrecondition("link not ready");
  }
  CIO_PROF_SCOPE(costs_.profiler(), "engine.send");
  CIO_RETURN_IF_ERROR(conn_.session().Send(message));
  if (config_.profile != StackProfile::kDualBoundary) {
    PumpBytes();
    return ciobase::OkStatus();
  }
  // Queue only: this round's Poll() rings one doorbell for every message
  // sent since the last one. Whatever backpressure leaves in the session's
  // outbound queue goes out from PumpBytes() behind it, in order.
  (void)conn_.Push(SIZE_MAX, /*flush_each=*/false);
  if (config_.l5_latency_mode) {
    // Don't batch: ring the doorbell for this message alone.
    (void)PollStack();
    PumpBytes();
  }
  return ciobase::OkStatus();
}

ciobase::Result<ciobase::Buffer> ConfidentialNode::ReceiveMessage() {
  CIO_PROF_SCOPE(costs_.profiler(), "engine.reap");
  return conn_.session().Receive();
}

ConfidentialNode::RecoveryStats ConfidentialNode::recovery_stats() const {
  RecoveryStats stats = recovery_stats_;
  const Session::Stats& session = this->session().stats();
  stats.tls_restarts = session.tls_restarts;
  stats.messages_resent = session.messages_resent;
  stats.messages_duplicate_dropped = session.messages_duplicate_dropped;
  stats.messages_lost = session.messages_lost;
  return stats;
}

// --- LinkedPair ------------------------------------------------------------------

LinkedPair::LinkedPair(StackConfig client_config, StackConfig server_config,
                       cionet::Fabric::Options fabric_options) {
  fabric = std::make_unique<cionet::Fabric>(&clock, 4242, fabric_options);
  if (client_config.psk.empty()) {
    client_config.psk = ciobase::BufferFromString(
        "attestation-derived-link-key-0001");
  }
  if (server_config.psk.empty()) {
    server_config.psk = client_config.psk;
  }
  client = std::make_unique<ConfidentialNode>(fabric.get(), &clock,
                                              client_config);
  server = std::make_unique<ConfidentialNode>(fabric.get(), &clock,
                                              server_config);
}

void LinkedPair::Pump(uint64_t step_ns) {
  client->Poll();
  server->Poll();
  clock.Advance(step_ns);
}

bool LinkedPair::PumpUntil(const std::function<bool()>& done, int max_rounds,
                           uint64_t step_ns) {
  for (int i = 0; i < max_rounds; ++i) {
    Pump(step_ns);
    if (done()) {
      return true;
    }
  }
  return false;
}

bool LinkedPair::Establish(uint16_t port, int max_rounds) {
  if (!server->Listen(port).ok()) {
    return false;
  }
  if (!client->Connect(server->ip(), port).ok()) {
    return false;
  }
  return PumpUntil([&] { return client->Ready() && server->Ready(); },
                   max_rounds);
}

}  // namespace cio
