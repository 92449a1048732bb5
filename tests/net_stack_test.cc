// Integration tests for the NetStack beyond TCP: UDP datagrams, ARP
// resolution through the stack, IP fragmentation of large UDP payloads,
// fabric loss behavior for datagrams, port allocation, the stack's
// defensive counters against malformed input, and how app-closed TCP
// connections wait out TIME_WAIT.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/base/rng.h"
#include "src/net/stack.h"
#include "src/net/wire.h"
#include "tests/net_testing.h"

namespace {

using ciobase::Buffer;
using ciobase::BufferFromString;
using cionet::SocketId;
using cionet::TcpState;
using ciotest::TwoHostWorld;

TEST(UdpStack, DatagramRoundTrip) {
  TwoHostWorld world;
  auto socket_a = world.stack_a->UdpOpen(5000);
  auto socket_b = world.stack_b->UdpOpen(6000);
  ASSERT_TRUE(socket_a.ok());
  ASSERT_TRUE(socket_b.ok());
  ASSERT_TRUE(world.stack_a
                  ->UdpSendTo(*socket_a, world.stack_b->ip(), 6000,
                              BufferFromString("datagram one"))
                  .ok());
  cionet::UdpMessage message;
  ASSERT_TRUE(world.PumpUntil([&] {
    auto received = world.stack_b->UdpReceive(*socket_b);
    if (received.ok()) {
      message = *received;
      return true;
    }
    return false;
  }));
  EXPECT_EQ(ciobase::StringFromBytes(message.payload), "datagram one");
  EXPECT_EQ(message.src_ip, world.stack_a->ip());
  EXPECT_EQ(message.src_port, 5000);
  // Reply to the sender address.
  ASSERT_TRUE(world.stack_b
                  ->UdpSendTo(*socket_b, message.src_ip, message.src_port,
                              BufferFromString("reply"))
                  .ok());
  ASSERT_TRUE(world.PumpUntil(
      [&] { return world.stack_a->UdpReceive(*socket_a).ok(); }));
}

TEST(UdpStack, LargeDatagramFragmentsAndReassembles) {
  TwoHostWorld world;
  auto socket_a = world.stack_a->UdpOpen(5000);
  auto socket_b = world.stack_b->UdpOpen(6000);
  ciobase::Rng rng(4);
  Buffer big = rng.Bytes(9000);  // > 6 fragments at MTU 1500
  ASSERT_TRUE(world.stack_a
                  ->UdpSendTo(*socket_a, world.stack_b->ip(), 6000, big)
                  .ok());
  cionet::UdpMessage message;
  ASSERT_TRUE(world.PumpUntil([&] {
    auto received = world.stack_b->UdpReceive(*socket_b);
    if (received.ok()) {
      message = *received;
      return true;
    }
    return false;
  }));
  EXPECT_EQ(message.payload, big);
}

TEST(UdpStack, OversizedPayloadRejected) {
  TwoHostWorld world;
  auto socket = world.stack_a->UdpOpen(5000);
  Buffer way_too_big(70000, 1);
  EXPECT_FALSE(world.stack_a
                   ->UdpSendTo(*socket, world.stack_b->ip(), 6000,
                               way_too_big)
                   .ok());
}

TEST(UdpStack, UnknownPortDropsAndCounts) {
  TwoHostWorld world;
  auto socket = world.stack_a->UdpOpen(5000);
  ASSERT_TRUE(world.stack_a
                  ->UdpSendTo(*socket, world.stack_b->ip(), 4242,
                              BufferFromString("nobody home"))
                  .ok());
  world.Pump(50);
  EXPECT_GT(world.stack_b->stats().no_socket_drops, 0u);
}

TEST(UdpStack, PortCollisionRefused) {
  TwoHostWorld world;
  ASSERT_TRUE(world.stack_a->UdpOpen(5000).ok());
  EXPECT_FALSE(world.stack_a->UdpOpen(5000).ok());
  // Ephemeral allocation avoids the taken port.
  auto ephemeral = world.stack_a->UdpOpen(0);
  ASSERT_TRUE(ephemeral.ok());
}

TEST(UdpStack, CloseStopsDelivery) {
  TwoHostWorld world;
  auto socket_a = world.stack_a->UdpOpen(5000);
  auto socket_b = world.stack_b->UdpOpen(6000);
  ASSERT_TRUE(world.stack_b->UdpClose(*socket_b).ok());
  ASSERT_TRUE(world.stack_a
                  ->UdpSendTo(*socket_a, world.stack_b->ip(), 6000,
                              BufferFromString("late"))
                  .ok());
  world.Pump(50);
  EXPECT_FALSE(world.stack_b->UdpReceive(*socket_b).ok());
}

TEST(StackArp, ResolutionHappensOnceThenCaches) {
  TwoHostWorld world;
  auto socket_a = world.stack_a->UdpOpen(5000);
  auto socket_b = world.stack_b->UdpOpen(6000);
  (void)socket_b;
  // First datagram triggers ARP; several more reuse the cache.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(world.stack_a
                    ->UdpSendTo(*socket_a, world.stack_b->ip(), 6000,
                                BufferFromString("x"))
                    .ok());
    world.Pump(20);
  }
  // Exactly one ARP request/reply pair from A's perspective.
  EXPECT_EQ(world.stack_a->stats().arp_rx, 1u);   // one reply
  EXPECT_GE(world.stack_b->stats().arp_rx, 1u);   // the request (broadcast)
}

TEST(StackRobustness, GarbageFramesOnlyBumpCounters) {
  TwoHostWorld world;
  ciobase::Rng rng(6);
  // Inject random garbage addressed to stack B directly via the fabric.
  for (int i = 0; i < 200; ++i) {
    Buffer frame;
    cionet::EthernetHeader eth{world.port_b->mac(), world.port_a->mac(),
                               static_cast<uint16_t>(
                                   i % 2 == 0 ? cionet::kEtherTypeIpv4
                                              : 0x1234)};
    eth.Serialize(frame);
    ciobase::Append(frame, rng.Bytes(rng.NextBounded(100)));
    (void)world.fabric->Inject(world.port_a->endpoint(), frame);
    world.Pump(2);
  }
  // The stack is still alive and usable.
  auto socket_a = world.stack_a->UdpOpen(5000);
  auto socket_b = world.stack_b->UdpOpen(6000);
  ASSERT_TRUE(world.stack_a
                  ->UdpSendTo(*socket_a, world.stack_b->ip(), 6000,
                              BufferFromString("still alive"))
                  .ok());
  ASSERT_TRUE(world.PumpUntil(
      [&] { return world.stack_b->UdpReceive(*socket_b).ok(); }));
  EXPECT_GT(world.stack_b->stats().parse_errors, 0u);
}

TEST(StackRobustness, CorruptedTcpChecksumDropped) {
  TwoHostWorld world;
  // Build a syntactically valid IPv4+TCP frame with a bad TCP checksum.
  cionet::TcpHeader tcp;
  tcp.src_port = 1;
  tcp.dst_port = 2;
  tcp.flags = cionet::kTcpFlagSyn;
  Buffer segment;
  tcp.Serialize(segment);
  ciobase::StoreBe16(segment.data() + 16, 0xdead);  // wrong checksum
  cionet::Ipv4Header ip;
  ip.protocol = cionet::kIpProtoTcp;
  ip.src = world.stack_a->ip();
  ip.dst = world.stack_b->ip();
  ip.total_length =
      static_cast<uint16_t>(cionet::kIpv4HeaderSize + segment.size());
  Buffer frame;
  cionet::EthernetHeader eth{world.port_b->mac(), world.port_a->mac(),
                             cionet::kEtherTypeIpv4};
  eth.Serialize(frame);
  ip.Serialize(frame);
  ciobase::Append(frame, segment);
  (void)world.fabric->Inject(world.port_a->endpoint(), frame);
  world.Pump(20);
  EXPECT_GT(world.stack_b->stats().checksum_errors, 0u);
  EXPECT_EQ(world.stack_b->stats().rst_sent, 0u);  // dropped, not answered
}

TEST(Fabric, LossAndCaptureAccounting) {
  cionet::Fabric::Options options;
  options.loss_probability = 0.5;
  TwoHostWorld world(options);
  world.fabric->EnableCapture(true);
  auto socket_a = world.stack_a->UdpOpen(5000);
  auto socket_b = world.stack_b->UdpOpen(6000);
  (void)socket_b;
  for (int i = 0; i < 100; ++i) {
    (void)world.stack_a->UdpSendTo(*socket_a, world.stack_b->ip(), 6000,
                                   BufferFromString("lossy"));
    // Long steps: ARP requests are lossy too and retry on a 100 ms backoff.
    world.Pump(3, 50'000'000);
  }
  const auto& stats = world.fabric->stats();
  EXPECT_GT(stats.frames_dropped_loss, 10u);
  EXPECT_GT(stats.frames_routed, 10u);
  EXPECT_EQ(world.fabric->capture().size(), stats.frames_routed);
}

TEST(Fabric, UnknownUnicastDropped) {
  ciobase::SimClock clock;
  cionet::Fabric fabric(&clock, 1);
  cionet::DirectFabricPort port(&fabric, "only",
                                cionet::MacAddress::FromId(1));
  Buffer frame;
  cionet::EthernetHeader eth{cionet::MacAddress::FromId(99),
                             cionet::MacAddress::FromId(1), 0x88b5};
  eth.Serialize(frame);
  EXPECT_TRUE(cionet::SendOne(port, frame).ok());
  EXPECT_EQ(fabric.stats().frames_dropped_unknown, 1u);
}

TEST(Fabric, BroadcastFloodsAllOthers) {
  ciobase::SimClock clock;
  cionet::Fabric fabric(&clock, 1, cionet::Fabric::Options{0, 0, 0, 9216});
  cionet::DirectFabricPort a(&fabric, "a", cionet::MacAddress::FromId(1));
  cionet::DirectFabricPort b(&fabric, "b", cionet::MacAddress::FromId(2));
  cionet::DirectFabricPort c(&fabric, "c", cionet::MacAddress::FromId(3));
  Buffer frame;
  cionet::EthernetHeader eth{cionet::MacAddress::Broadcast(),
                             cionet::MacAddress::FromId(1), 0x88b5};
  eth.Serialize(frame);
  ASSERT_TRUE(cionet::SendOne(a, frame).ok());
  EXPECT_TRUE(cionet::ReceiveOne(b).ok());
  EXPECT_TRUE(cionet::ReceiveOne(c).ok());
  EXPECT_FALSE(cionet::ReceiveOne(a).ok());  // not echoed to the sender
}

// A port that turns every frame away while `refusing`, as a full TX ring
// does, and otherwise passes through.
class RefusingPort final : public cionet::FramePort {
 public:
  explicit RefusingPort(cionet::FramePort* inner) : inner_(inner) {}
  bool refusing = false;

  ciobase::Result<size_t> SendFrames(
      std::span<const ciobase::ByteSpan> frames) override {
    if (refusing) {
      return ciobase::ResourceExhausted("tx ring full");
    }
    return inner_->SendFrames(frames);
  }
  ciobase::Result<size_t> ReceiveFrames(cionet::FrameBatch& batch,
                                        size_t max_frames) override {
    return inner_->ReceiveFrames(batch, max_frames);
  }
  cionet::MacAddress mac() const override { return inner_->mac(); }
  uint16_t mtu() const override { return inner_->mtu(); }

 private:
  cionet::FramePort* inner_;
};

TEST(TcpStack, FramesTheTxRingRefusedLeaveAtTheNextPoll) {
  // Host A's port refuses a burst of data segments, then accepts again.
  // The refused frames stay staged and leave at A's next poll: the data
  // arrives within microseconds, with no RTO timeout (200 ms initial)
  // and no retransmission.
  TwoHostWorld world;
  RefusingPort gate(world.port_a.get());
  cionet::NetStack::Config config;
  config.ip = cionet::Ipv4Address::FromOctets(10, 0, 0, 1);
  config.seed = 101;
  world.stack_a = std::make_unique<cionet::NetStack>(&gate, &world.clock,
                                                     config);
  auto listener = world.stack_b->TcpListen(80);
  ASSERT_TRUE(listener.ok());
  auto client = world.stack_a->TcpConnect(world.stack_b->ip(), 80);
  ASSERT_TRUE(client.ok());
  std::optional<SocketId> server;
  ASSERT_TRUE(world.PumpUntil([&] {
    auto accepted = world.stack_b->TcpAccept(*listener);
    if (accepted.ok()) {
      server = *accepted;
    }
    return server.has_value() && world.stack_a->GetTcpState(*client).value() ==
                                     TcpState::kEstablished;
  }));

  gate.refusing = true;
  Buffer data = ciobase::Rng(7).Bytes(4000);  // three full segments
  auto queued = world.stack_a->TcpSend(*client, data);
  ASSERT_TRUE(queued.ok());
  ASSERT_EQ(*queued, data.size());
  world.stack_a->Poll();
  EXPECT_GT(world.stack_a->stats().tx_deferred, 0u);
  gate.refusing = false;

  Buffer received;
  Buffer chunk(8192, 0);
  ASSERT_TRUE(world.PumpUntil(
      [&] {
        auto got = world.stack_b->TcpReceive(*server, chunk);
        if (got.ok()) {
          received.insert(received.end(), chunk.begin(),
                          chunk.begin() + static_cast<long>(*got));
        }
        return received.size() == data.size();
      },
      /*max_rounds=*/20));
  EXPECT_EQ(received, data);
  auto stats = world.stack_a->GetTcpStats(*client);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->timeouts, 0u);
  EXPECT_EQ(stats->retransmissions, 0u);
  EXPECT_EQ(world.stack_a->stats().tx_dropped, 0u);
}

TEST(TcpStack, ListenerBacklogOverflowRefusesTypedAndCounts) {
  // Host B's listener holds at most 2 pending connections; 5 SYNs race in
  // with nobody accepting. The overflow must be refused with a RST (typed
  // kLinkReset at the client), counted, and must never grow the queue.
  TwoHostWorld world({}, /*accept_backlog_b=*/2);
  auto listener = world.stack_b->TcpListen(80);
  ASSERT_TRUE(listener.ok());
  std::vector<SocketId> conns;
  for (int i = 0; i < 5; ++i) {
    auto conn = world.stack_a->TcpConnect(world.stack_b->ip(), 80);
    ASSERT_TRUE(conn.ok());
    conns.push_back(*conn);
  }
  world.Pump(500);

  EXPECT_EQ(world.stack_b->stats().accept_overflows, 3u);
  // Accept until the listener reports nothing pending.
  std::vector<SocketId> queued;
  for (;;) {
    auto accepted = world.stack_b->TcpAccept(*listener);
    if (!accepted.ok()) {
      EXPECT_EQ(accepted.status().code(), ciobase::StatusCode::kUnavailable);
      break;
    }
    queued.push_back(*accepted);
  }
  EXPECT_EQ(queued.size(), 2u);  // bounded: never grew past the backlog

  // Clients: 2 established, 3 dead with a typed failure (not a hang).
  int established = 0;
  int refused = 0;
  Buffer scratch(64, 0);
  for (SocketId conn : conns) {
    auto state = world.stack_a->GetTcpState(conn);
    ASSERT_TRUE(state.ok());
    if (*state == cionet::TcpState::kEstablished) {
      ++established;
    } else {
      auto got = world.stack_a->TcpReceive(conn, scratch);
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status().code(), ciobase::StatusCode::kLinkReset);
      ++refused;
    }
  }
  EXPECT_EQ(established, 2);
  EXPECT_EQ(refused, 3);

  // The queued two are still perfectly serviceable.
  ASSERT_FALSE(queued.empty());
  const SocketId accepted = queued.front();
  auto readable = world.stack_b->TcpReadable(accepted);
  ASSERT_TRUE(readable.ok());
  EXPECT_FALSE(*readable);  // no data yet — readiness, not liveness
  auto space = world.stack_b->TcpSendSpace(accepted);
  ASSERT_TRUE(space.ok());
  EXPECT_GT(*space, 0u);
  auto peer = world.stack_b->GetTcpPeer(accepted);
  ASSERT_TRUE(peer.ok());
  EXPECT_EQ(*peer, world.stack_a->ip());
}

// --- TIME_WAIT ------------------------------------------------------------------

constexpr uint64_t kTimeWaitNs = cionet::TcpConnection::Tuning{}.time_wait_ns;
// Host A's first ephemeral port: its first TcpConnect gets it, the next
// one kFirstEphemeral + 1, and so on.
constexpr uint16_t kFirstEphemeral = 49152;

// Opens `n` connections from host A to a listener on host B's port 80 and
// drives them to ESTABLISHED; returns {client, server} pairs in connect
// order.
std::vector<std::pair<SocketId, SocketId>> EstablishMany(TwoHostWorld& world,
                                                         int n) {
  auto listener = world.stack_b->TcpListen(80);
  EXPECT_TRUE(listener.ok());
  std::vector<std::pair<SocketId, SocketId>> pairs;
  for (int i = 0; i < n; ++i) {
    auto client = world.stack_a->TcpConnect(world.stack_b->ip(), 80);
    EXPECT_TRUE(client.ok());
    pairs.push_back({*client, SocketId{}});
  }
  size_t accepted = 0;
  EXPECT_TRUE(world.PumpUntil([&] {
    auto server = world.stack_b->TcpAccept(*listener);
    if (server.ok()) {
      pairs[accepted++].second = *server;
    }
    if (accepted < pairs.size()) {
      return false;
    }
    for (auto [client, server_id] : pairs) {
      auto a = world.stack_a->GetTcpState(client);
      auto b = world.stack_b->GetTcpState(server_id);
      if (!a.ok() || *a != TcpState::kEstablished || !b.ok() ||
          *b != TcpState::kEstablished) {
        return false;
      }
    }
    return true;
  }));
  return pairs;
}

// Host A closes `client` first, host B closes `server` on EOF; A ends in
// TIME_WAIT. Returns the simulated time A entered it: its deadline is that
// plus kTimeWaitNs. Poll() reads the clock but never advances it here, so
// the time is exact.
uint64_t CloseToTimeWait(TwoHostWorld& world, SocketId client,
                         SocketId server) {
  EXPECT_TRUE(world.stack_a->TcpClose(client).ok());
  EXPECT_TRUE(world.PumpUntil([&] {
    uint8_t buf[16];
    auto got = world.stack_b->TcpReceive(server, buf);
    return !got.ok() &&
           got.status().code() == ciobase::StatusCode::kFailedPrecondition;
  }));
  EXPECT_TRUE(world.stack_b->TcpClose(server).ok());
  for (int round = 0; round < 20000; ++round) {
    world.stack_a->Poll();
    auto state = world.stack_a->GetTcpState(client);
    if (state.ok() && *state == TcpState::kTimeWait) {
      return world.clock.now_ns();
    }
    world.stack_b->Poll();
    world.clock.Advance(10'000);
  }
  ADD_FAILURE() << "client never reached TIME_WAIT";
  return 0;
}

// Advances the clock to `t` (not backwards) and polls host A once.
void PollAAt(TwoHostWorld& world, uint64_t t) {
  ASSERT_GE(t, world.clock.now_ns());
  world.clock.Advance(t - world.clock.now_ns());
  world.stack_a->Poll();
}

bool PortTaken(cionet::NetStack& stack, uint16_t port) {
  auto probe = stack.UdpOpen(port);
  if (!probe.ok()) {
    return true;
  }
  EXPECT_TRUE(stack.UdpClose(*probe).ok());
  return false;
}

TEST(TcpTimeWait, ErasedAtFirstPollAtOrAfterDeadlineAndPortFreedThen) {
  TwoHostWorld world;
  auto [client, server] = EstablishMany(world, 1)[0];
  uint64_t deadline = CloseToTimeWait(world, client, server) + kTimeWaitNs;

  PollAAt(world, deadline - 1);
  auto state = world.stack_a->GetTcpState(client);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, TcpState::kTimeWait);
  EXPECT_TRUE(PortTaken(*world.stack_a, kFirstEphemeral));

  // At the deadline, but before the next Poll: still there.
  world.clock.Advance(1);
  EXPECT_TRUE(world.stack_a->GetTcpState(client).ok());
  EXPECT_TRUE(PortTaken(*world.stack_a, kFirstEphemeral));

  world.stack_a->Poll();
  EXPECT_EQ(world.stack_a->GetTcpState(client).status().code(),
            ciobase::StatusCode::kNotFound);
  EXPECT_FALSE(PortTaken(*world.stack_a, kFirstEphemeral));
}

// The frame host B sent to host A carrying a FIN for A's local `port`.
std::optional<Buffer> CapturedFinTo(const cionet::Fabric& fabric,
                                    uint16_t port) {
  for (const auto& captured : fabric.capture()) {
    ciobase::ByteSpan frame = captured.frame;
    if (frame.size() < cionet::kEthernetHeaderSize + cionet::kIpv4HeaderSize) {
      continue;
    }
    auto tcp = cionet::TcpHeader::Parse(frame.subspan(
        cionet::kEthernetHeaderSize + cionet::kIpv4HeaderSize));
    if (tcp.ok() && tcp->src_port == 80 && tcp->dst_port == port &&
        (tcp->flags & cionet::kTcpFlagFin) != 0) {
      return captured.frame;
    }
  }
  return std::nullopt;
}

TEST(TcpTimeWait, RetransmittedFinReAckedAndRestartsWaitPastLaterEntry) {
  TwoHostWorld world;
  world.fabric->EnableCapture(true);
  auto pairs = EstablishMany(world, 2);
  auto [first, first_server] = pairs[0];
  auto [second, second_server] = pairs[1];
  uint64_t first_entered = CloseToTimeWait(world, first, first_server);
  world.Pump(100);
  uint64_t second_entered = CloseToTimeWait(world, second, second_server);
  ASSERT_GT(second_entered, first_entered);

  // Host B's FIN for the first connection arrives again (as if its ACK was
  // lost). Host B is not polled from here on, so it cannot answer the
  // re-ACK with a RST.
  std::optional<Buffer> fin = CapturedFinTo(*world.fabric, kFirstEphemeral);
  ASSERT_TRUE(fin.has_value());
  auto before = world.stack_a->GetTcpStats(first);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(cionet::SendOne(*world.port_b, *fin).ok());
  PollAAt(world, second_entered + 1'000'000);
  uint64_t restarted = world.clock.now_ns();
  auto after = world.stack_a->GetTcpStats(first);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->segments_sent, before->segments_sent + 1);  // re-ACK

  // The first connection now expires after the second, though it entered
  // TIME_WAIT first.
  PollAAt(world, first_entered + kTimeWaitNs);
  EXPECT_TRUE(world.stack_a->GetTcpState(first).ok());
  PollAAt(world, second_entered + kTimeWaitNs);
  EXPECT_FALSE(world.stack_a->GetTcpState(second).ok());
  auto state = world.stack_a->GetTcpState(first);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, TcpState::kTimeWait);
  PollAAt(world, restarted + kTimeWaitNs - 1);
  EXPECT_TRUE(world.stack_a->GetTcpState(first).ok());
  PollAAt(world, restarted + kTimeWaitNs);
  EXPECT_FALSE(world.stack_a->GetTcpState(first).ok());
}

TEST(TcpTimeWait, PollWalksOnlyLiveConnections) {
  constexpr int kClosed = 8;
  TwoHostWorld world;
  auto pairs = EstablishMany(world, kClosed + 1);
  auto polls_per_round = [&] {
    uint64_t before = world.stack_a->stats().tcp_conn_polls;
    world.stack_a->Poll();
    return world.stack_a->stats().tcp_conn_polls - before;
  };
  EXPECT_EQ(polls_per_round(), static_cast<uint64_t>(kClosed + 1));

  for (int i = 0; i < kClosed; ++i) {
    CloseToTimeWait(world, pairs[i].first, pairs[i].second);
  }
  // Every closed connection is still in TIME_WAIT, still findable and still
  // holding its port...
  for (int i = 0; i < kClosed; ++i) {
    auto state = world.stack_a->GetTcpState(pairs[i].first);
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(*state, TcpState::kTimeWait);
    EXPECT_TRUE(PortTaken(*world.stack_a, kFirstEphemeral + i));
  }
  // ...but a Poll round visits only the one live connection.
  EXPECT_EQ(polls_per_round(), 1u);
  auto live = world.stack_a->GetTcpState(pairs[kClosed].first);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, TcpState::kEstablished);
}

}  // namespace
