// Multi-tenant confidential server: connection table, Session reuse,
// admission control, fair scheduling, and recovery under a mid-transfer
// fault with many clients in flight.
//
//   * cio::Session units: framing round trip, exactly-once accounting,
//     resend-window replay + dedup — the machinery both the engine and
//     every server connection share.
//   * Lifecycle: handshaking -> established -> draining -> closed, echo
//     across many concurrent clients on every Figure-5 profile corner.
//   * One crossing per round: on dual-boundary a server round crosses into
//     the I/O compartment once, idle or busy, and a reply queued before
//     Poll reaches the fabric in that round.
//   * Admission: a new peer beyond the cap is denied typed and stops
//     reconnecting; refusals in progress are bounded by the cap; a parked
//     entry neither counts against the cap nor is refused on reattach.
//   * Backpressure: Send beyond the queue budget returns
//     kResourceExhausted; nothing grows without bound.
//   * Fairness: with one hot client flooding, deficit round-robin keeps
//     the other clients' echoes flowing.
//   * Recovery: a link-kill + stalled-counter window while >= 8 dual-
//     boundary clients are mid-transfer; every message is delivered
//     exactly once (zero lost) after the herd reconnects.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/cio/sqcq.h"
#include "src/serve/harness.h"

namespace {

using ciobase::Buffer;
using ciobase::BufferFromString;
using cio::StackProfile;
using namespace cioserve;  // NOLINT: test file

std::string ToString(const Buffer& buffer) {
  return std::string(reinterpret_cast<const char*>(buffer.data()),
                     buffer.size());
}

// --- cio::Session units ------------------------------------------------------

TEST(Session, PlaintextFramingRoundTripExactlyOnce) {
  cio::Session a(false, Buffer{}, 8);
  cio::Session b(false, Buffer{}, 8);
  a.Start(ciotls::TlsRole::kClient, 1);
  b.Start(ciotls::TlsRole::kServer, 2);
  ASSERT_TRUE(a.Established());

  ASSERT_TRUE(a.Send(BufferFromString("hello")).ok());
  ASSERT_TRUE(a.Send(BufferFromString("world")).ok());
  ASSERT_TRUE(b.Ingest(a.outbound()).ok());
  a.ConsumeOutbound(a.outbound().size());

  auto first = b.Receive();
  auto second = b.Receive();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(ToString(*first), "hello");
  EXPECT_EQ(ToString(*second), "world");
  EXPECT_FALSE(b.Receive().ok());
  EXPECT_EQ(b.stats().messages_received, 2u);
  EXPECT_EQ(b.stats().messages_lost, 0u);
}

TEST(Session, ReplayAfterResetDeliversOnceAndCountsDuplicates) {
  cio::Session tx(false, Buffer{}, 8);
  cio::Session rx(false, Buffer{}, 8);
  tx.Start(ciotls::TlsRole::kClient, 1);
  rx.Start(ciotls::TlsRole::kServer, 2);

  ASSERT_TRUE(tx.Send(BufferFromString("m1")).ok());
  ASSERT_TRUE(tx.Send(BufferFromString("m2")).ok());
  ASSERT_TRUE(rx.Ingest(tx.outbound()).ok());
  tx.ConsumeOutbound(tx.outbound().size());

  // The transport dies with nothing in flight; both ends reset, then the
  // sender replays its whole window.
  tx.ResetChannel();
  rx.ResetChannel();
  tx.Start(ciotls::TlsRole::kClient, 1);
  rx.Start(ciotls::TlsRole::kServer, 2);
  ASSERT_TRUE(tx.Replay().ok());
  ASSERT_TRUE(tx.Send(BufferFromString("m3")).ok());
  ASSERT_TRUE(rx.Ingest(tx.outbound()).ok());

  // m1/m2 arrive again but were already delivered: dedup'd, not re-queued.
  std::vector<std::string> delivered;
  for (;;) {
    auto message = rx.Receive();
    if (!message.ok()) {
      break;
    }
    delivered.push_back(ToString(*message));
  }
  EXPECT_EQ(delivered, (std::vector<std::string>{"m1", "m2", "m3"}));
  EXPECT_EQ(rx.stats().messages_duplicate_dropped, 2u);
  EXPECT_EQ(rx.stats().messages_lost, 0u);
  EXPECT_EQ(tx.stats().messages_resent, 2u);
}

TEST(Session, HostileFramingIsTamperedNotRecoverable) {
  cio::Session rx(false, Buffer{}, 0);
  rx.Start(ciotls::TlsRole::kServer, 2);
  Buffer garbage;
  garbage.resize(16, 0xff);  // len field way over the message cap
  ciobase::Status status = rx.Ingest(garbage);
  EXPECT_EQ(status.code(), ciobase::StatusCode::kTampered);
}

// --- Lifecycle + echo across profiles ---------------------------------------

// The four Figure-5 corners the load harness drives.
std::vector<StackProfile> ServedProfiles() {
  return {StackProfile::kSyscallL5, StackProfile::kPassthroughL2,
          StackProfile::kHardenedVirtio, StackProfile::kDualBoundary};
}

TEST(Server, ManyClientsEchoOnEveryProfile) {
  for (StackProfile profile : ServedProfiles()) {
    MultiClientWorld::Options options;
    options.profile = profile;
    options.num_clients = 12;
    options.seed = 91 + static_cast<uint64_t>(profile);
    MultiClientWorld world(options);
    ASSERT_TRUE(world.EstablishAll())
        << cio::StackProfileName(profile) << ": establishment";
    EXPECT_EQ(world.server->stats().accepted, 12u);
    EXPECT_EQ(world.server->active_connections(), 12u);

    // Every client sends 3 messages; every message must come back to the
    // client that sent it.
    for (size_t i = 0; i < world.clients.size(); ++i) {
      for (int m = 0; m < 3; ++m) {
        std::string payload =
            "client " + std::to_string(i) + " msg " + std::to_string(m);
        ASSERT_TRUE(
            world.clients[i]->SendMessage(BufferFromString(payload)).ok());
      }
    }
    std::vector<size_t> echoes(world.clients.size(), 0);
    std::vector<bool> ordered(world.clients.size(), true);
    ASSERT_TRUE(world.PumpUntil(
        [&] {
          world.EchoRound();
          size_t done = 0;
          for (size_t i = 0; i < world.clients.size(); ++i) {
            for (;;) {
              auto echo = world.clients[i]->ReceiveMessage();
              if (!echo.ok()) {
                break;
              }
              std::string expect = "client " + std::to_string(i) + " msg " +
                                   std::to_string(echoes[i]);
              ordered[i] = ordered[i] && ToString(*echo) == expect;
              ++echoes[i];
            }
            done += echoes[i] >= 3 ? 1 : 0;
          }
          return done == world.clients.size();
        },
        60000))
        << cio::StackProfileName(profile) << ": echo completion";
    for (size_t i = 0; i < world.clients.size(); ++i) {
      EXPECT_EQ(echoes[i], 3u) << cio::StackProfileName(profile);
      EXPECT_TRUE(ordered[i])
          << cio::StackProfileName(profile) << " client " << i
          << ": echoes out of order or corrupted";
    }
    // Lifecycle counters.
    EXPECT_EQ(world.server->stats().accepted, 12u);
    EXPECT_EQ(world.server->active_connections(), 12u);
  }
}

TEST(Server, DualBoundaryRoundCostsExactlyOneCrossing) {
  // Egress is queued before the round's doorbell, and receives and accepts
  // drain what it harvested: every round crosses into the I/O compartment
  // exactly once, whether it is idle, accepts N connections, receives, or
  // replies.
  MultiClientWorld::Options options;
  options.profile = StackProfile::kDualBoundary;
  options.num_clients = 8;
  options.seed = 515;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.server->Start().ok());
  for (auto& client : world.clients) {
    ASSERT_TRUE(
        client->Connect(world.server_node->ip(), world.server->config().port)
            .ok());
  }
  const cio::L5Channel* l5 = world.server_node->l5();
  ASSERT_NE(l5, nullptr);
  uint64_t most_accepted = 0;
  uint64_t idle_rounds = 0;
  uint64_t receiving_rounds = 0;
  uint64_t replying_rounds = 0;
  size_t echoed = 0;
  auto round = [&] {
    const uint64_t crossings = l5->stats().crossings;
    const uint64_t accepted = world.server->stats().accepted;
    const uint64_t received = l5->stats().bytes_received;
    const uint64_t sent = l5->stats().bytes_sent;
    world.server->Poll();
    EXPECT_EQ(l5->stats().crossings - crossings, 1u);
    most_accepted =
        std::max(most_accepted, world.server->stats().accepted - accepted);
    receiving_rounds += l5->stats().bytes_received > received;
    replying_rounds += l5->stats().bytes_sent > sent;
    idle_rounds += l5->stats().bytes_received == received &&
                   l5->stats().bytes_sent == sent &&
                   world.server->stats().accepted == accepted;
    echoed += world.EchoRound();
    for (auto& client : world.clients) {
      client->Poll();
    }
    world.clock.Advance(10'000);
  };
  auto all_ready = [&] {
    return world.server->EstablishedConnections().size() ==
               world.clients.size() &&
           std::all_of(world.clients.begin(), world.clients.end(),
                       [](const auto& client) { return client->Ready(); });
  };
  for (int i = 0; i < 20000 && !all_ready(); ++i) {
    round();
  }
  ASSERT_TRUE(all_ready());
  for (auto& client : world.clients) {
    ASSERT_TRUE(client->SendMessage(BufferFromString("ping")).ok());
  }
  for (int i = 0; i < 200; ++i) {
    round();
  }
  EXPECT_EQ(echoed, 8u);
  EXPECT_GE(most_accepted, 2u);  // one crossing for N accepts, N > 1
  EXPECT_GT(idle_rounds, 0u);
  EXPECT_GT(receiving_rounds, 0u);
  EXPECT_GT(replying_rounds, 0u);
}

TEST(Server, ReplySentBeforePollReachesTheFabricInThatRound) {
  // The round's egress goes first and the round's trailing device poll puts
  // it on the wire: a reply queued before Poll leaves in that Poll, not in
  // the next round's.
  for (StackProfile profile :
       {StackProfile::kDualBoundary, StackProfile::kPassthroughL2}) {
    MultiClientWorld::Options options;
    options.profile = profile;
    options.num_clients = 1;
    options.seed = 616;
    MultiClientWorld world(options);
    ASSERT_TRUE(world.EstablishAll());
    for (int i = 0; i < 100; ++i) {
      world.Pump();  // quiesce: nothing left in flight either way
    }
    const ConnId conn = world.server->EstablishedConnections().front();
    const Buffer reply(512, 0x42);
    ASSERT_TRUE(world.server->Send(conn, reply).ok());
    const uint64_t routed = world.fabric->stats().bytes_routed;
    world.server->Poll();
    EXPECT_GT(world.fabric->stats().bytes_routed, routed + reply.size())
        << cio::StackProfileName(profile);
  }
}

TEST(Server, DrainFlushesThenCloses) {
  MultiClientWorld::Options options;
  options.num_clients = 2;
  options.seed = 300;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());
  std::vector<ConnId> conns = world.server->EstablishedConnections();
  ASSERT_EQ(conns.size(), 2u);

  // Queue a farewell, then drain: the message must still arrive before the
  // connection closes, and the draining connection must refuse new sends.
  ASSERT_TRUE(world.server->Send(conns[0], BufferFromString("bye")).ok());
  ASSERT_TRUE(world.server->Drain(conns[0]).ok());
  auto state = world.server->StateOf(conns[0]);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, ConnState::kDraining);
  EXPECT_EQ(world.server->Send(conns[0], BufferFromString("late")).code(),
            ciobase::StatusCode::kFailedPrecondition);

  bool got_bye = false;
  ASSERT_TRUE(world.PumpUntil([&] {
    auto message = world.clients[0]->ReceiveMessage();
    if (message.ok()) {
      got_bye = ToString(*message) == "bye";
    }
    return got_bye && !world.server->StateOf(conns[0]).ok();
  }));
  EXPECT_TRUE(got_bye);
  EXPECT_EQ(world.server->active_connections(), 1u);
  EXPECT_GE(world.server->stats().closed, 1u);
  // The untouched neighbor still works.
  ASSERT_TRUE(world.server->Send(conns[1], BufferFromString("still on")).ok());
  ASSERT_TRUE(world.PumpUntil([&] {
    return world.clients[1]->ReceiveMessage().ok();
  }));
}

// --- Admission control + backpressure ---------------------------------------

TEST(Server, AdmissionRefusesBeyondCapWithTypedFailure) {
  MultiClientWorld::Options options;
  options.num_clients = 6;
  options.server_config.max_connections = 4;
  options.seed = 404;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.server->Start().ok());
  for (auto& client : world.clients) {
    ASSERT_TRUE(
        client->Connect(world.server_node->ip(), world.server->config().port)
            .ok());
  }
  // The herd races in; exactly max_connections win slots. Refused clients
  // get a typed denial once their TLS is up, so they stop reconnecting:
  // each is refused exactly once.
  world.PumpUntil(
      [&] {
        size_t settled = 0;
        for (auto& client : world.clients) {
          settled += (client->Ready() || client->Failed()) ? 1 : 0;
        }
        return settled == world.clients.size() &&
               world.server->stats().rejected_admission >= 2;
      },
      120000);

  EXPECT_EQ(world.server->active_connections(), 4u);
  EXPECT_EQ(world.server->EstablishedConnections().size(), 4u);
  EXPECT_EQ(world.server->stats().rejected_admission, 2u);
  size_t ready = 0;
  size_t failed = 0;
  size_t denied = 0;
  for (auto& client : world.clients) {
    ready += client->Ready() ? 1 : 0;
    failed += client->Failed() ? 1 : 0;
    denied += client->denied() ? 1 : 0;
    if (client->Failed()) {
      EXPECT_TRUE(client->denied());
      EXPECT_EQ(client->recovery_stats().reconnects, 0u);
    }
  }
  EXPECT_EQ(ready, 4u);
  EXPECT_EQ(failed, 2u);
  EXPECT_EQ(denied, 2u);
  // Admitted clients are unaffected by the refused herd.
  cio::ConfidentialNode* admitted = nullptr;
  for (auto& client : world.clients) {
    if (client->Ready()) {
      admitted = client.get();
      break;
    }
  }
  ASSERT_NE(admitted, nullptr);
  ASSERT_TRUE(admitted->SendMessage(BufferFromString("ping")).ok());
  ASSERT_TRUE(world.PumpUntil([&] {
    world.EchoRound();
    return admitted->ReceiveMessage().ok();
  }));
}

// Refusals in progress are bounded by the cap: one slot, four clients over
// it at once. One is refused typed while the others' sockets are aborted;
// the aborted ones reconnect and are refused typed in turn.
TEST(Server, CapacityRefusalsInProgressAreBoundedByTheCap) {
  MultiClientWorld::Options options;
  options.num_clients = 5;
  options.server_config.max_connections = 1;
  options.seed = 405;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.server->Start().ok());
  const uint16_t port = world.server->config().port;
  ASSERT_TRUE(world.clients[0]->Connect(world.server_node->ip(), port).ok());
  ASSERT_TRUE(world.PumpUntil([&] { return world.clients[0]->Ready(); }));
  for (size_t i = 1; i < world.clients.size(); ++i) {
    ASSERT_TRUE(world.clients[i]->Connect(world.server_node->ip(), port).ok());
  }
  size_t most_refusing = 0;
  ASSERT_TRUE(world.PumpUntil(
      [&] {
        most_refusing =
            std::max(most_refusing, world.server->refusing_connections());
        for (size_t i = 1; i < world.clients.size(); ++i) {
          if (!world.clients[i]->denied()) {
            return false;
          }
        }
        return world.server->refusing_connections() == 0;
      },
      120000));
  EXPECT_EQ(most_refusing, 1u);
  // More refusals than refused clients: some sockets met the RST first.
  EXPECT_GT(world.server->stats().rejected_admission, 4u);
  EXPECT_EQ(world.server->active_connections(), 1u);
  EXPECT_TRUE(world.clients[0]->Ready());
  EXPECT_FALSE(world.server->ServesPeer(world.clients[1]->ip()));
}

TEST(Server, SendQueueCapRejectsTyped) {
  MultiClientWorld::Options options;
  options.num_clients = 1;
  options.server_config.max_send_queue_bytes = 4096;
  options.seed = 550;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());
  ConnId conn = world.server->EstablishedConnections()[0];

  // Stuff the queue without pumping: beyond the byte budget the server
  // refuses with kResourceExhausted instead of growing.
  Buffer chunk;
  chunk.resize(1024, 0xab);
  bool saw_exhausted = false;
  for (int i = 0; i < 64 && !saw_exhausted; ++i) {
    ciobase::Status status = world.server->Send(conn, chunk);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), ciobase::StatusCode::kResourceExhausted);
      saw_exhausted = true;
    }
  }
  EXPECT_TRUE(saw_exhausted);
  EXPECT_GE(world.server->stats().send_queue_rejections, 1u);
  // Backpressure is transient: once the queue drains, sends work again.
  ASSERT_TRUE(world.PumpUntil([&] {
    return world.server->Send(conn, BufferFromString("after")).ok();
  }));
}

// --- Fairness ---------------------------------------------------------------

TEST(Server, HotClientCannotStarveTheQuiet) {
  MultiClientWorld::Options options;
  options.num_clients = 5;
  options.seed = 660;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());
  std::vector<ConnId> conns = world.server->EstablishedConnections();
  ASSERT_EQ(conns.size(), 5u);

  // Connection 0 is hot: the server floods it with large messages every
  // round. The others each await one small echo-critical message; DRR must
  // get those out long before the hot backlog drains.
  Buffer flood;
  flood.resize(8192, 0x5a);
  for (size_t i = 1; i < conns.size(); ++i) {
    ASSERT_TRUE(
        world.server
            ->Send(conns[i], BufferFromString("quiet " + std::to_string(i)))
            .ok());
  }
  size_t quiet_delivered = 0;
  int rounds_to_quiet = -1;
  for (int round = 0; round < 20000 && quiet_delivered < 4; ++round) {
    (void)world.server->Send(conns[0], flood);  // keep the hot queue full
    world.Pump();
    for (size_t i = 1; i < world.clients.size(); ++i) {
      if (world.clients[i]->ReceiveMessage().ok()) {
        ++quiet_delivered;
      }
    }
    rounds_to_quiet = round;
  }
  EXPECT_EQ(quiet_delivered, 4u)
      << "quiet clients starved behind the hot one";
  EXPECT_LT(rounds_to_quiet, 2000);
}

// --- Recovery under fault with a herd in flight ------------------------------

TEST(Server, FaultWindowWithEightClientsMidTransferZeroLost) {
  MultiClientWorld::Options options;
  options.profile = StackProfile::kDualBoundary;
  options.num_clients = 8;
  options.seed = 777;
  options.server_config.reattach_timeout_ns = 2'000'000'000;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());

  const int kMessages = 6;
  std::vector<int> sent(world.clients.size(), 0);
  std::vector<int> echoed(world.clients.size(), 0);
  std::vector<bool> ordered(world.clients.size(), true);
  auto pump_once = [&] {
    world.Pump();
    world.EchoRound();
    for (size_t i = 0; i < world.clients.size(); ++i) {
      for (;;) {
        auto echo = world.clients[i]->ReceiveMessage();
        if (!echo.ok()) {
          break;
        }
        std::string expect =
            "c" + std::to_string(i) + " m" + std::to_string(echoed[i]);
        ordered[i] = ordered[i] && ToString(*echo) == expect;
        ++echoed[i];
      }
    }
  };
  auto offer_all = [&](int count) {
    // Every client keeps offering until the (possibly reconnecting)
    // channel accepts; interleaved so all 8 are genuinely concurrent.
    for (int m = 0; m < count; ++m) {
      for (size_t i = 0; i < world.clients.size(); ++i) {
        for (int round = 0; round < 60000; ++round) {
          std::string payload =
              "c" + std::to_string(i) + " m" + std::to_string(sent[i]);
          if (world.clients[i]->Ready() &&
              world.clients[i]->SendMessage(BufferFromString(payload)).ok()) {
            ++sent[i];
            break;
          }
          pump_once();
        }
      }
      pump_once();
    }
  };

  offer_all(2);  // everyone mid-transfer

  // The hostile host kills the SERVER's link for 12 ms (past the TCP retry
  // budget: every connection dies at once), then later stalls its
  // counters. All 8 clients must reconnect; the server reattaches each
  // parked session; replay + dedup keep delivery exactly-once.
  uint64_t fault_start = world.clock.now_ns();
  world.server_node->adversary().InjectFault(
      {ciohost::FaultStrategy::kLinkKill, fault_start, 12'000'000});
  offer_all(2);
  world.server_node->adversary().InjectFault(
      {ciohost::FaultStrategy::kStallCounters, world.clock.now_ns(),
       2'000'000});
  offer_all(kMessages - 4);

  ASSERT_TRUE(world.PumpUntil(
      [&] {
        world.EchoRound();
        for (size_t i = 0; i < world.clients.size(); ++i) {
          for (;;) {
            auto echo = world.clients[i]->ReceiveMessage();
            if (!echo.ok()) {
              break;
            }
            std::string expect =
                "c" + std::to_string(i) + " m" + std::to_string(echoed[i]);
            ordered[i] = ordered[i] && ToString(*echo) == expect;
            ++echoed[i];
          }
          if (echoed[i] < kMessages || !world.clients[i]->Ready()) {
            return false;
          }
        }
        return true;
      },
      120000))
      << "herd did not fully recover";

  for (size_t i = 0; i < world.clients.size(); ++i) {
    EXPECT_EQ(sent[i], kMessages);
    EXPECT_EQ(echoed[i], kMessages) << "client " << i;
    EXPECT_TRUE(ordered[i]) << "client " << i << " echoes corrupted";
    EXPECT_EQ(world.clients[i]->recovery_stats().messages_lost, 0u);
    EXPECT_FALSE(world.clients[i]->Failed());
  }
  // The fault actually bit and the server actually recovered sessions.
  EXPECT_GT(world.server_node->adversary().fault_events(), 0u);
  EXPECT_GE(world.server->stats().recovered, 1u);
  // No message the server's sessions reassembled was lost either.
  EXPECT_EQ(world.server->active_connections(), 8u);
}

// --- Parked entries ---------------------------------------------------------

// One round that leaves client `dead` unpolled: a node that is never polled
// again has died as far as the server can tell.
void PumpWithout(MultiClientWorld& world, size_t dead) {
  world.server->Poll();
  for (size_t i = 0; i < world.clients.size(); ++i) {
    if (i != dead) {
      world.clients[i]->Poll();
    }
  }
  world.clock.Advance(10'000);
}

// Client `dead` stops for good while the server sends to it: the send is
// never acknowledged, TCP gives up, and the server parks the entry.
bool KillClientUntilParked(MultiClientWorld& world, size_t dead, ConnId conn) {
  if (!world.server->Send(conn, BufferFromString("are you there")).ok()) {
    return false;
  }
  for (int round = 0; round < 20000; ++round) {
    PumpWithout(world, dead);
    auto state = world.server->StateOf(conn);
    if (state.ok() && *state == ConnState::kParked) {
      return true;
    }
  }
  return false;
}

TEST(Server, ParkedEntryExpiresAndTheAddressStartsFresh) {
  MultiClientWorld::Options options;
  options.num_clients = 1;
  options.seed = 606;
  options.server_config.reattach_timeout_ns = 50'000'000;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());
  cio::ConfidentialNode& client = *world.clients[0];
  const ConnId first = world.server->EstablishedConnections()[0];
  ASSERT_TRUE(client.SendMessage(BufferFromString("hello")).ok());
  ASSERT_TRUE(world.PumpUntil([&] { return world.server->Receive().ok(); }));

  ASSERT_TRUE(KillClientUntilParked(world, 0, first));
  EXPECT_EQ(world.server->parked_sessions(), 1u);
  EXPECT_EQ(world.server->active_connections(), 0u);
  EXPECT_TRUE(world.server->ServesPeer(client.ip()));
  EXPECT_EQ(world.server->SessionOf(first), nullptr);
  EXPECT_EQ(world.server->Send(first, BufferFromString("x")).code(),
            ciobase::StatusCode::kNotFound);

  // The client never comes back: after reattach_timeout_ns the entry goes.
  for (int round = 0; round < 20000 && world.server->parked_sessions() > 0;
       ++round) {
    PumpWithout(world, 0);
  }
  EXPECT_EQ(world.server->stats().expired_parked, 1u);
  EXPECT_EQ(world.server->parked_sessions(), 0u);
  EXPECT_FALSE(world.server->ServesPeer(client.ip()));
  EXPECT_FALSE(world.server->StateOf(first).ok());

  // A later connect from that address is a new peer relationship: a fresh
  // connection id and fresh sequence numbers on both sides.
  ASSERT_TRUE(client.Disconnect().ok());
  ASSERT_TRUE(
      client.Connect(world.server_node->ip(), world.server->config().port)
          .ok());
  ASSERT_TRUE(world.PumpUntil([&] {
    return client.Ready() &&
           world.server->EstablishedConnections().size() == 1;
  }));
  const ConnId second = world.server->EstablishedConnections()[0];
  EXPECT_NE(second, first);
  EXPECT_EQ(world.server->stats().recovered, 0u);
  ASSERT_TRUE(client.SendMessage(BufferFromString("again")).ok());
  ASSERT_TRUE(world.PumpUntil([&] {
    auto incoming = world.server->Receive();
    return incoming.ok() && incoming->conn == second;
  }));
  const cio::Session* session = world.server->SessionOf(second);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->last_delivered_seq(), 1u);
  EXPECT_EQ(session->next_send_seq(), 1u);
  EXPECT_EQ(client.session().next_send_seq(), 2u);
}

TEST(Server, ParkedEntryDoesNotCountAgainstTheCap) {
  MultiClientWorld::Options options;
  options.num_clients = 3;
  options.seed = 607;
  options.server_config.max_connections = 2;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.server->Start().ok());
  const uint16_t port = world.server->config().port;
  for (size_t i : {size_t{0}, size_t{1}}) {
    ASSERT_TRUE(world.clients[i]->Connect(world.server_node->ip(), port).ok());
  }
  ASSERT_TRUE(world.PumpUntil([&] {
    return world.clients[0]->Ready() && world.clients[1]->Ready() &&
           world.server->EstablishedConnections().size() == 2;
  }));
  ConnId parked = 0;
  for (ConnId id : world.server->EstablishedConnections()) {
    parked = std::max(parked, id);  // client 1 connected second
  }
  ASSERT_TRUE(KillClientUntilParked(world, 1, parked));
  EXPECT_EQ(world.server->active_connections(), 1u);
  EXPECT_EQ(world.server->parked_sessions(), 1u);

  // One live peer, one parked peer, cap 2: a third peer is admitted.
  ASSERT_TRUE(world.clients[2]->Connect(world.server_node->ip(), port).ok());
  for (int round = 0; round < 20000 && !world.clients[2]->Ready(); ++round) {
    PumpWithout(world, 1);
  }
  EXPECT_TRUE(world.clients[2]->Ready());
  EXPECT_EQ(world.server->stats().rejected_admission, 0u);
  EXPECT_EQ(world.server->active_connections(), 2u);
  EXPECT_EQ(world.server->parked_sessions(), 1u);

  // Client 1 comes back while the table is full. Its reconnect reattaches
  // the parked entry (it was admitted before, so the cap does not refuse
  // it), and both directions recover without loss: the server's
  // unacknowledged message reaches the client, and the client's next
  // message reaches the application under the same connection id.
  cio::ConfidentialNode& back = *world.clients[1];
  ASSERT_TRUE(back.Ready());  // it never noticed the fault
  ASSERT_TRUE(back.SendMessage(BufferFromString("back again")).ok());
  bool got_probe = false;
  bool got_back = false;
  ASSERT_TRUE(world.PumpUntil(
      [&] {
        if (auto message = back.ReceiveMessage(); message.ok()) {
          got_probe = ToString(*message) == "are you there";
        }
        if (auto incoming = world.server->Receive(); incoming.ok()) {
          got_back = incoming->conn == parked &&
                     ToString(incoming->message) == "back again";
        }
        return got_probe && got_back;
      },
      120000));
  EXPECT_FALSE(back.Failed());
  EXPECT_FALSE(back.denied());
  EXPECT_EQ(back.recovery_stats().messages_lost, 0u);
  EXPECT_EQ(world.server->stats().recovered, 1u);
  EXPECT_EQ(world.server->stats().rejected_admission, 0u);
  EXPECT_EQ(world.server->parked_sessions(), 0u);
  EXPECT_EQ(world.server->active_connections(), 3u);
}

TEST(Server, ForgedCompletionsBeyondTheReceiveCreditDoNotWedgeReceives) {
  MultiClientWorld::Options options;
  options.profile = StackProfile::kDualBoundary;
  options.num_clients = 4;
  options.seed = 4711;
  options.server_config.reattach_timeout_ns = 2'000'000'000;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());
  cio::L5Channel* l5 = world.server_node->l5();
  ASSERT_NE(l5, nullptr);
  const cio::L5QueueConfig& queues = l5->queue_config();
  const uint32_t credit = queues.pool_slots / 4;

  // The hostile host writes the server channel's CQ between rounds. A
  // planted garbage entry at the tail stops the app's harvest there, so
  // real completions posted behind it wait in the ring; overwriting every
  // entry the app has not reaped then destroys them. A destroyed receive
  // completion is a credit entry the I/O side already used.
  ciobase::MutableByteSpan region = l5->queue_region_for_test();
  auto entry = [&](uint32_t index) {
    uint32_t masked = index & (queues.cq_entries - 1);
    return region.subspan(queues.CqOffset() + masked * cio::kCqeSize,
                          cio::kCqeSize);
  };
  auto garbage = [&] {
    uint8_t raw[cio::kCqeSize];
    std::memset(raw, 0xA5, sizeof raw);
    cio::CqEntry cqe = cio::DecodeCqe(ciobase::ByteSpan(raw, sizeof raw));
    cqe.epoch = l5->epoch();
    return cqe;
  };
  auto plant = [&] {
    uint32_t tail = ciobase::LoadLe32(region.data() + cio::kCtrlCqTail);
    cio::EncodeCqe(garbage(), entry(tail));
    ciobase::StoreLe32(region.data() + cio::kCtrlCqTail, tail + 1);
  };
  auto overwrite_unreaped = [&] {
    uint32_t head = ciobase::LoadLe32(region.data() + cio::kCtrlCqHead);
    uint32_t tail = ciobase::LoadLe32(region.data() + cio::kCtrlCqTail);
    for (uint32_t i = head; i != tail; ++i) {
      cio::EncodeCqe(garbage(), entry(i));
    }
  };

  const int kMessages = 40;
  std::vector<int> sent(world.clients.size(), 0);
  std::vector<int> echoed(world.clients.size(), 0);
  std::vector<bool> ordered(world.clients.size(), true);
  auto round = [&] {
    for (size_t i = 0; i < world.clients.size(); ++i) {
      std::string payload =
          "c" + std::to_string(i) + " m" + std::to_string(sent[i]);
      if (sent[i] < kMessages && world.clients[i]->Ready() &&
          world.clients[i]->SendMessage(BufferFromString(payload)).ok()) {
        ++sent[i];
      }
    }
    world.Pump();
    world.EchoRound();
    for (size_t i = 0; i < world.clients.size(); ++i) {
      for (auto echo = world.clients[i]->ReceiveMessage(); echo.ok();
           echo = world.clients[i]->ReceiveMessage()) {
        std::string expect =
            "c" + std::to_string(i) + " m" + std::to_string(echoed[i]);
        ordered[i] = ordered[i] && ToString(*echo) == expect;
        ++echoed[i];
      }
    }
  };

  // More forgeries than the credit has entries, each followed by 10 ms of
  // traffic (long enough for parked clients to reattach) during which the
  // host destroys whatever completions the app leaves unreaped.
  const uint32_t epoch_before = l5->epoch();
  for (uint32_t forged = 0; forged <= credit; ++forged) {
    plant();
    for (int i = 0; i < 1000; ++i) {
      round();
      overwrite_unreaped();
    }
  }
  // Each forgery was reported, and each report reset the rings.
  EXPECT_EQ(l5->epoch(), epoch_before + credit + 1);

  // The host stops. Every message still arrives, once and in order: the
  // clients reattached and replayed their resend windows.
  ASSERT_TRUE(world.PumpUntil(
      [&] {
        round();
        for (size_t i = 0; i < world.clients.size(); ++i) {
          if (echoed[i] < kMessages) {
            return false;
          }
        }
        return true;
      },
      60000))
      << "receives wedged after forged completions";
  for (size_t i = 0; i < world.clients.size(); ++i) {
    EXPECT_EQ(echoed[i], kMessages) << "client " << i;
    EXPECT_TRUE(ordered[i]) << "client " << i << " echoes corrupted";
    EXPECT_FALSE(world.clients[i]->Failed()) << "client " << i;
  }
  EXPECT_GE(world.server->stats().recovered, credit + 1);
}

}  // namespace
