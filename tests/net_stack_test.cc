// Integration tests for the NetStack beyond the TCP state machine: ARP
// resolution through the stack, fabric loss behavior, the stack's
// defensive counters against malformed input (including IPv4 protocols it
// does not speak), listener backpressure, and how app-closed TCP
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

// Listens on host B's `port`, connects from host A and sends `text`;
// true once host B has received all of it.
bool TcpDelivers(TwoHostWorld& world, uint16_t port, const char* text) {
  auto listener = world.stack_b->TcpListen(port);
  auto client = world.stack_a->TcpConnect(world.stack_b->ip(), port);
  if (!listener.ok() || !client.ok()) {
    return false;
  }
  const Buffer data = BufferFromString(text);
  std::optional<SocketId> server;
  size_t sent = 0;
  Buffer received;
  Buffer chunk(256, 0);
  return world.PumpUntil([&] {
    if (!server.has_value()) {
      auto accepted = world.stack_b->TcpAccept(*listener);
      if (!accepted.ok()) {
        return false;
      }
      server = *accepted;
    }
    if (sent < data.size()) {
      auto queued = world.stack_a->TcpSend(
          *client, ciobase::ByteSpan(data).subspan(sent));
      if (queued.ok()) {
        sent += *queued;
      }
    }
    auto got = world.stack_b->TcpReceive(*server, chunk);
    if (got.ok()) {
      received.insert(received.end(), chunk.begin(),
                      chunk.begin() + static_cast<long>(*got));
    }
    return received == data;
  });
}

// An Ethernet + IPv4 frame from host A to host B carrying `payload` as
// IP protocol `protocol`.
Buffer Ipv4FrameToB(const TwoHostWorld& world, uint8_t protocol,
                    ciobase::ByteSpan payload) {
  cionet::Ipv4Header ip;
  ip.protocol = protocol;
  ip.src = world.stack_a->ip();
  ip.dst = world.stack_b->ip();
  ip.total_length =
      static_cast<uint16_t>(cionet::kIpv4HeaderSize + payload.size());
  Buffer frame;
  cionet::EthernetHeader eth{world.port_b->mac(), world.port_a->mac(),
                             cionet::kEtherTypeIpv4};
  eth.Serialize(frame);
  ip.Serialize(frame);
  ciobase::Append(frame, payload);
  return frame;
}

TEST(StackArp, ResolutionHappensOnceThenCaches) {
  TwoHostWorld world;
  // The first connection triggers ARP; its segments and those of four more
  // connections reuse the cache. Host B learns A's address from the
  // request, so it never asks.
  for (uint16_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(TcpDelivers(world, static_cast<uint16_t>(80 + i), "x"));
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
  ASSERT_TRUE(TcpDelivers(world, 80, "still alive"));
  EXPECT_GT(world.stack_b->stats().parse_errors, 0u);
}

TEST(StackRobustness, UnspokenProtocolsDroppedBeforeAnyParser) {
  // The stack speaks only TCP above IPv4. A datagram for protocol 17 (UDP)
  // whose header claims more bytes than it carries, and one for an
  // unassigned protocol, both pass the IPv4 header check and then go
  // nowhere: no transport parser runs (it would count a parse error), no
  // socket is looked up (no_socket_drops) and nothing is answered.
  TwoHostWorld world;
  const uint8_t short_udp[] = {0x13, 0x88, 0x17, 0x70, 0xff, 0xff, 0, 0};
  for (uint8_t protocol : {uint8_t{17}, uint8_t{200}}) {
    SCOPED_TRACE(static_cast<int>(protocol));
    const cionet::NetStack::Stats before = world.stack_b->stats();
    ASSERT_TRUE(world.fabric
                    ->Inject(world.port_a->endpoint(),
                             Ipv4FrameToB(world, protocol, short_udp))
                    .ok());
    world.Pump(20);
    const cionet::NetStack::Stats& after = world.stack_b->stats();
    EXPECT_EQ(after.frames_rx, before.frames_rx + 1);
    EXPECT_EQ(after.ipv4_rx, before.ipv4_rx + 1);
    EXPECT_EQ(after.tcp_rx, before.tcp_rx);
    EXPECT_EQ(after.arp_rx, before.arp_rx);
    EXPECT_EQ(after.parse_errors, before.parse_errors);
    EXPECT_EQ(after.checksum_errors, before.checksum_errors);
    EXPECT_EQ(after.no_socket_drops, before.no_socket_drops);
    EXPECT_EQ(after.rst_sent, before.rst_sent);
    EXPECT_EQ(after.frames_tx, before.frames_tx);
  }
  ASSERT_TRUE(TcpDelivers(world, 80, "tcp still works"));
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
  (void)world.fabric->Inject(
      world.port_a->endpoint(),
      Ipv4FrameToB(world, cionet::kIpProtoTcp, segment));
  world.Pump(20);
  EXPECT_GT(world.stack_b->stats().checksum_errors, 0u);
  EXPECT_EQ(world.stack_b->stats().rst_sent, 0u);  // dropped, not answered
}

TEST(Fabric, LossAndCaptureAccounting) {
  cionet::Fabric::Options options;
  options.loss_probability = 0.5;
  TwoHostWorld world(options);
  world.fabric->EnableCapture(true);
  // Host A keeps dialing host B's listener over the lossy link; SYNs,
  // ARP and their answers are all lost at random.
  auto listener = world.stack_b->TcpListen(80);
  ASSERT_TRUE(listener.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(world.stack_a->TcpConnect(world.stack_b->ip(), 80).ok());
    // Long steps: ARP requests retry on a 100 ms backoff.
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
  auto probe = stack.TcpListen(port);
  if (!probe.ok()) {
    return true;
  }
  EXPECT_TRUE(stack.TcpClose(*probe).ok());
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
