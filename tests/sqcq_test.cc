// Tests for the io_uring-style SQ/CQ datapath itself: entry codecs and
// geometry validation, SQ-full / pool-exhaustion backpressure, CQ-overflow
// spill (held completions drain in order, nothing lost), out-of-order
// reaping across sockets, hostile-host CQ scribbling (duplicate, stale,
// garbage entries surface as typed Status — never memory errors), accept
// completions (drained without crossing, validated against the armed
// multishot accept, re-armed by a ring reset), and exactly-once delivery
// when the link dies with a batch in flight.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/base/coverage.h"
#include "src/base/rng.h"
#include "src/cio/engine.h"
#include "src/cio/l5_channel.h"
#include "src/cio/sqcq.h"
#include "src/fuzz/mutator.h"
#include "src/net/fabric.h"

namespace {

using ciobase::Buffer;
using ciobase::BufferFromString;
using namespace cio;  // NOLINT: test file

// --- Codecs and geometry -----------------------------------------------------

TEST(Sqcq, SqeRoundTripsAllFields) {
  SqEntry in;
  in.op = kSqOpSend;
  in.seg_count = 3;
  in.socket = 0xDEADBEEF;
  in.user_data = 0x1122334455667788ull;
  for (size_t i = 0; i < 3; ++i) {
    in.segs[i].slot = static_cast<uint16_t>(100 + i);
    in.segs[i].len = static_cast<uint32_t>(1000 + i);
  }
  uint8_t raw[kSqeSize];
  EncodeSqe(in, ciobase::MutableByteSpan(raw, sizeof raw));
  SqEntry out = DecodeSqe(ciobase::ByteSpan(raw, sizeof raw));
  EXPECT_EQ(out.op, in.op);
  EXPECT_EQ(out.seg_count, in.seg_count);
  EXPECT_EQ(out.socket, in.socket);
  EXPECT_EQ(out.user_data, in.user_data);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out.segs[i].slot, in.segs[i].slot);
    EXPECT_EQ(out.segs[i].len, in.segs[i].len);
  }
}

TEST(Sqcq, CqeRoundTripsAndDecodeClampsSegCount) {
  CqEntry in;
  in.op = kSqOpRecv;
  in.seg_count = 2;
  in.code = kCqEof;
  in.result = 4096;
  in.user_data = 42;
  in.epoch = 7;
  in.seg_len[0] = 4000;
  in.seg_len[1] = 96;
  uint8_t raw[kCqeSize];
  EncodeCqe(in, ciobase::MutableByteSpan(raw, sizeof raw));
  CqEntry out = DecodeCqe(ciobase::ByteSpan(raw, sizeof raw));
  EXPECT_EQ(out.op, in.op);
  EXPECT_EQ(out.seg_count, in.seg_count);
  EXPECT_EQ(out.code, in.code);
  EXPECT_EQ(out.result, in.result);
  EXPECT_EQ(out.user_data, in.user_data);
  EXPECT_EQ(out.epoch, in.epoch);
  EXPECT_EQ(out.seg_len[0], 4000u);
  EXPECT_EQ(out.seg_len[1], 96u);

  // A host-scribbled seg_count cannot direct reads past the fixed arrays.
  raw[1] = 0xFF;
  EXPECT_EQ(DecodeCqe(ciobase::ByteSpan(raw, sizeof raw)).seg_count,
            kSqMaxSegments);
}

TEST(Sqcq, QueueConfigValidation) {
  L5QueueConfig config;
  EXPECT_TRUE(config.Valid());

  L5QueueConfig bad = config;
  bad.sq_entries = 48;  // not a power of two
  EXPECT_FALSE(bad.Valid());
  bad = config;
  bad.cq_entries = 1;
  EXPECT_FALSE(bad.Valid());
  bad = config;
  bad.pool_slots = kSqMaxSegments - 1;  // one full message must fit
  EXPECT_FALSE(bad.Valid());
  bad = config;
  bad.slot_size = 128;
  EXPECT_FALSE(bad.Valid());

  // The region layout is consistent: control, SQ, CQ, pool, in that order.
  EXPECT_EQ(config.SqOffset(), kSqcqControlBytes);
  EXPECT_EQ(config.CqOffset(), config.SqOffset() + config.sq_entries * kSqeSize);
  EXPECT_EQ(config.TotalBytes(),
            config.PoolOffset() +
                static_cast<size_t>(config.pool_slots) * config.slot_size);
}

// --- Fixture -----------------------------------------------------------------

// An L5 world with a configurable queue geometry: a NetStack in the "io"
// compartment talking over a direct fabric to a plain peer stack.
struct SqcqWorld {
  ciobase::SimClock clock;
  ciobase::CostModel costs{&clock};
  cionet::Fabric fabric{&clock, 47};
  cionet::DirectFabricPort port_io{&fabric, "io",
                                   cionet::MacAddress::FromId(1)};
  cionet::DirectFabricPort port_peer{&fabric, "peer",
                                     cionet::MacAddress::FromId(2)};
  std::unique_ptr<cionet::NetStack> io_stack;
  std::unique_ptr<cionet::NetStack> peer_stack;
  ciotee::CompartmentManager compartments{&costs};
  ciotee::CompartmentId app = compartments.Create("app", 1 << 20);
  ciotee::CompartmentId io = compartments.Create("io", 1 << 20);
  std::unique_ptr<L5Channel> l5;
  cionet::SocketId listener{};

  explicit SqcqWorld(const L5QueueConfig& queues = L5QueueConfig{},
                     L5ReceiveMode mode = L5ReceiveMode::kCopy) {
    cionet::NetStack::Config config_io;
    config_io.ip = cionet::Ipv4Address::FromOctets(10, 0, 0, 1);
    cionet::NetStack::Config config_peer;
    config_peer.ip = cionet::Ipv4Address::FromOctets(10, 0, 0, 2);
    config_peer.seed = 9;
    io_stack = std::make_unique<cionet::NetStack>(&port_io, &clock,
                                                  config_io);
    peer_stack = std::make_unique<cionet::NetStack>(&port_peer, &clock,
                                                    config_peer);
    compartments.GrantAccess(app, io);
    l5 = std::make_unique<L5Channel>(&compartments, app, io, io_stack.get(),
                                     &costs, mode,
                                     L5BoundaryKind::kCompartment, queues);
    auto listening = l5->Listen(80);
    EXPECT_TRUE(listening.ok());
    listener = *listening;
  }

  // One accepted connection; returns (l5-side socket, peer-side socket).
  std::pair<cionet::SocketId, cionet::SocketId> Establish() {
    auto client = peer_stack->TcpConnect(
        cionet::Ipv4Address::FromOctets(10, 0, 0, 1), 80);
    EXPECT_TRUE(client.ok());
    cionet::SocketId server{};
    for (int i = 0; i < 1000; ++i) {
      peer_stack->Poll();
      (void)l5->Poll();
      clock.Advance(5'000);
      auto accepted = l5->Accept(listener);
      if (accepted.ok()) {
        server = accepted->socket;
        break;
      }
    }
    return {server, *client};
  }

  void Pump(int rounds = 50) {
    for (int i = 0; i < rounds; ++i) {
      peer_stack->Poll();
      (void)l5->Poll();
      clock.Advance(5'000);
    }
  }

  // Copies `payload` into pool slots and queues its SQ entries (no
  // doorbell). False when backpressure accepted less than all of it.
  bool QueuePlain(cionet::SocketId socket, const Buffer& payload) {
    auto accepted = l5->SendBytes(socket, payload);
    return accepted.ok() && *accepted == payload.size();
  }

  // Queues `payload` and rings the doorbell for it at once.
  ciobase::Status Send(cionet::SocketId socket, const Buffer& payload) {
    if (!QueuePlain(socket, payload)) {
      return ciobase::ResourceExhausted("submission backpressure");
    }
    return l5->Flush();
  }

  // Hostile host: write a CQ entry at the published tail and advance it.
  void ScribbleCqe(const CqEntry& cqe) {
    ciobase::MutableByteSpan region = l5->queue_region_for_test();
    const L5QueueConfig& config = l5->queue_config();
    uint32_t tail = ciobase::LoadLe32(region.data() + kCtrlCqTail);
    uint32_t masked = tail & (config.cq_entries - 1);
    EncodeCqe(cqe, region.subspan(config.CqOffset() + masked * kCqeSize,
                                  kCqeSize));
    ciobase::StoreLe32(region.data() + kCtrlCqTail, tail + 1);
  }

  // A CQ entry that decodes to nothing the app submitted, stamped with the
  // current epoch so it is judged rather than dropped as stale.
  CqEntry Garbage() {
    uint8_t raw[kCqeSize];
    std::memset(raw, 0xA5, sizeof raw);
    CqEntry garbage = DecodeCqe(ciobase::ByteSpan(raw, sizeof raw));
    garbage.epoch = l5->epoch();
    return garbage;
  }

  // The peer sends `bytes` random bytes; doorbells + ReceiveBytes collect
  // what arrives on `socket`. True when all of it arrived intact.
  bool DeliverToApp(cionet::SocketId socket, cionet::SocketId peer,
                    size_t bytes, uint64_t seed) {
    ciobase::Rng rng(seed);
    Buffer sent = rng.Bytes(bytes);
    Buffer received;
    Buffer chunk;
    size_t offered = 0;
    for (int i = 0; i < 2000 && received.size() < sent.size(); ++i) {
      if (offered < sent.size()) {
        auto n = peer_stack->TcpSend(
            peer, ciobase::ByteSpan(sent.data() + offered,
                                    sent.size() - offered));
        if (n.ok()) {
          offered += *n;
        }
      }
      peer_stack->Poll();
      if (!l5->Flush().ok()) {
        return false;
      }
      auto got = l5->ReceiveBytes(socket, 1 << 16, chunk);
      if (!got.ok()) {
        return false;
      }
      ciobase::Append(received, chunk);
      clock.Advance(5'000);
    }
    return received == sent;
  }
};

// An idle channel with a socket open holds nothing in flight but its full
// receive credit, every slot outside the credit is free, and the I/O side
// holds every credit entry unfilled. A receive entry whose completion was
// lost stays counted app-side but is gone I/O-side, so it fails here.
::testing::AssertionResult Idle(SqcqWorld& world) {
  const L5QueueConfig& config = world.l5->queue_config();
  const L5Channel& l5 = *world.l5;
  if (l5.receive_credit() == config.pool_slots / 4 &&
      l5.in_flight_entries() == l5.receive_credit() &&
      l5.io_receive_credit_for_test() == l5.receive_credit() &&
      l5.free_slots() + l5.receive_credit() == config.pool_slots) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "credit " << l5.receive_credit() << " (want "
         << config.pool_slots / 4 << "), in flight "
         << l5.in_flight_entries() << ", unfilled I/O-side "
         << l5.io_receive_credit_for_test() << ", free slots "
         << l5.free_slots() << " of " << config.pool_slots;
}

// --- Backpressure ------------------------------------------------------------

TEST(Sqcq, SqFullBackpressuresAndRecoversAfterDoorbell) {
  L5QueueConfig tiny;
  tiny.sq_entries = 2;
  tiny.cq_entries = 4;
  tiny.pool_slots = 16;
  tiny.slot_size = 512;
  SqcqWorld world(tiny);
  auto [server, client] = world.Establish();
  Buffer payload = BufferFromString("small");

  EXPECT_TRUE(world.QueuePlain(server, payload));
  EXPECT_TRUE(world.QueuePlain(server, payload));
  // Ring full until a doorbell hands the consumed count back through the
  // call gate.
  EXPECT_FALSE(world.QueuePlain(server, payload));
  EXPECT_GE(world.l5->stats().sq_backpressure, 1u);

  EXPECT_NE(world.l5->Flush().code(), ciobase::StatusCode::kTampered);
  EXPECT_TRUE(world.QueuePlain(server, payload));
  world.Pump();
  EXPECT_TRUE(Idle(world));
}

TEST(Sqcq, PoolExhaustionBackpressuresUntilCompletionsReturnSlots) {
  L5QueueConfig tiny;
  tiny.sq_entries = 16;
  tiny.cq_entries = 16;
  tiny.pool_slots = 8;  // exactly one max-fan-out message
  tiny.slot_size = 256;
  SqcqWorld world(tiny);
  auto [server, client] = world.Establish();
  ciobase::Rng rng(3);
  Buffer big = rng.Bytes(1500);  // 1500B -> 6 of 8 slots

  uint64_t backpressure_before = world.l5->stats().sq_backpressure;
  EXPECT_TRUE(world.QueuePlain(server, big));
  EXPECT_EQ(world.l5->free_slots(), 2u);
  EXPECT_FALSE(world.QueuePlain(server, big));
  EXPECT_GT(world.l5->stats().sq_backpressure, backpressure_before);

  // Completions hand the slots back (all but the receive credit's); the
  // same message then fits.
  world.Pump();
  EXPECT_TRUE(Idle(world));
  EXPECT_TRUE(world.QueuePlain(server, big));
  world.Pump();
  EXPECT_TRUE(Idle(world));
}

// --- Per-socket teardown -----------------------------------------------------

TEST(Sqcq, CancelSocketReleasesPinnedStateWithoutCrossing) {
  SqcqWorld world;
  auto [idle, idle_peer] = world.Establish();
  auto [server, client] = world.Establish();
  (void)idle_peer;
  (void)client;

  // Nothing submitted for the socket: cancelling is app-side only.
  uint64_t crossings = world.l5->stats().crossings;
  world.l5->CancelSocket(idle);
  EXPECT_EQ(world.l5->stats().crossings, crossings);

  // Receive credit (consumed io-side) and a queued send (published, not
  // yet consumed) pin slots until the cancel.
  Buffer sink;
  ASSERT_TRUE(world.l5->Flush().ok());
  ASSERT_TRUE(world.l5->ReceiveBytes(server, 4096, sink).ok());
  ASSERT_TRUE(world.QueuePlain(server, BufferFromString("never sent")));
  ASSERT_GT(world.l5->in_flight_entries(), 1u);
  crossings = world.l5->stats().crossings;
  world.l5->CancelSocket(server);
  // Still no crossing: the I/O side learns of the cancel at the next one.
  EXPECT_EQ(world.l5->stats().crossings, crossings);
  EXPECT_EQ(world.l5->in_flight_entries(), 0u);
  EXPECT_EQ(world.l5->free_slots(), world.l5->queue_config().pool_slots);

  // The I/O side purged both entries: the next doorbell posts nothing that
  // could reap as an unknown completion.
  uint64_t completions = world.l5->stats().cq_completions;
  EXPECT_TRUE(world.l5->Flush().ok());
  EXPECT_EQ(world.l5->stats().cq_completions, completions);
}

TEST(Sqcq, CancelReturnsHeldCompletionsToTheCredit) {
  L5QueueConfig tiny;
  tiny.cq_entries = 2;  // four filled receive entries, two must be held
  tiny.pool_slots = 16;
  tiny.slot_size = 512;
  SqcqWorld world(tiny);
  auto [quiet, quiet_peer] = world.Establish();
  auto [busy, busy_peer] = world.Establish();
  (void)quiet_peer;
  ASSERT_TRUE(world.l5->Flush().ok());
  ASSERT_EQ(world.l5->receive_credit(), 4u);

  ciobase::Rng rng(5);
  ASSERT_TRUE(world.peer_stack->TcpSend(busy_peer, rng.Bytes(2048)).ok());
  uint64_t completions = world.l5->stats().cq_completions;
  for (int i = 0; i < 50 && world.l5->stats().cq_completions == completions;
       ++i) {
    world.peer_stack->Poll();
    ASSERT_TRUE(world.l5->Flush().ok());
    world.clock.Advance(5'000);
  }
  // The doorbell filled all four entries from `busy`; the CQ took two.
  ASSERT_EQ(world.l5->stats().cq_completions, completions + 2);
  ASSERT_EQ(world.l5->stats().bytes_received, 1024u);

  // The two held completions name a socket the app no longer has open:
  // posting them would be tampering. They go back to the credit instead.
  world.l5->CancelSocket(busy);
  EXPECT_TRUE(world.l5->Flush().ok());
  EXPECT_TRUE(world.l5->Flush().ok());
  EXPECT_EQ(world.l5->stats().bytes_received, 1024u);
  // With `quiet` still open the whole credit is armed and unfilled again.
  world.Pump();
  EXPECT_TRUE(Idle(world));

  // Idle channel: every slot is back in the pool.
  world.l5->CancelSocket(quiet);
  EXPECT_TRUE(world.l5->Flush().ok());
  EXPECT_EQ(world.l5->in_flight_entries(), 0u);
  EXPECT_EQ(world.l5->free_slots(), tiny.pool_slots);
}

// --- CQ overflow spill -------------------------------------------------------

TEST(Sqcq, CqOverflowSpillsAndDrainsInOrderWithoutLoss) {
  L5QueueConfig tiny;
  tiny.sq_entries = 16;
  tiny.cq_entries = 4;  // half the batch must spill to held completions
  tiny.pool_slots = 16;
  tiny.slot_size = 512;
  SqcqWorld world(tiny);
  auto [server, client] = world.Establish();

  std::string all;
  for (int i = 0; i < 8; ++i) {
    std::string piece = "piece-" + std::to_string(i) + ";";
    ASSERT_TRUE(world.QueuePlain(server, BufferFromString(piece)));
    all += piece;
  }
  ASSERT_EQ(world.l5->in_flight_entries(), 8u);

  // One doorbell services all eight sends but can only post a CQ window's
  // worth; the rest are held io-side and drain on later doorbells.
  EXPECT_NE(world.l5->Flush().code(), ciobase::StatusCode::kTampered);
  EXPECT_EQ(world.l5->stats().cq_completions, 4u);
  EXPECT_EQ(world.l5->in_flight_entries(), 4u + world.l5->receive_credit());
  world.Pump();
  EXPECT_EQ(world.l5->stats().cq_completions, 8u);
  EXPECT_TRUE(Idle(world));

  // Every byte arrived, in submission order.
  std::string received;
  uint8_t buf[256];
  for (int i = 0; i < 50 && received.size() < all.size(); ++i) {
    auto got = world.peer_stack->TcpReceive(client, buf);
    if (got.ok() && *got > 0) {
      received.append(reinterpret_cast<const char*>(buf), *got);
    }
    world.Pump(2);
  }
  EXPECT_EQ(received, all);
}

// --- Out-of-order reaping ----------------------------------------------------

TEST(Sqcq, CompletionsReapOutOfSubmissionOrderAcrossSockets) {
  SqcqWorld world;
  auto [server_a, client_a] = world.Establish();
  auto [server_b, client_b] = world.Establish();
  ASSERT_NE(server_a.value, server_b.value);

  // Submit to the later socket FIRST: the I/O side services sockets in id
  // order, so completions post in the opposite order from submission and
  // the reaper must match them by user_data, not position.
  Buffer for_b = BufferFromString("second socket, first submit");
  Buffer for_a = BufferFromString("first socket, second submit");
  ASSERT_TRUE(world.QueuePlain(server_b, for_b));
  ASSERT_TRUE(world.QueuePlain(server_a, for_a));
  EXPECT_NE(world.l5->Flush().code(), ciobase::StatusCode::kTampered);
  world.Pump();
  EXPECT_TRUE(Idle(world));

  uint8_t buf[64];
  auto got_a = world.peer_stack->TcpReceive(client_a, buf);
  ASSERT_TRUE(got_a.ok());
  EXPECT_EQ(ciobase::StringFromBytes(ciobase::ByteSpan(buf, *got_a)),
            "first socket, second submit");
  auto got_b = world.peer_stack->TcpReceive(client_b, buf);
  ASSERT_TRUE(got_b.ok());
  EXPECT_EQ(ciobase::StringFromBytes(ciobase::ByteSpan(buf, *got_b)),
            "second socket, first submit");
}

// --- Hostile-host CQ scribbling ---------------------------------------------

TEST(Sqcq, DuplicateCompletionIsTampering) {
  SqcqWorld world;
  auto [server, client] = world.Establish();
  ASSERT_TRUE(world.Send(server, BufferFromString("once")).ok());
  world.Pump();
  ASSERT_TRUE(Idle(world));

  // Replay the already-reaped completion (user_data 1, current epoch).
  CqEntry replay;
  replay.op = kSqOpSend;
  replay.seg_count = 0;
  replay.code = kCqOk;
  replay.result = 0;
  replay.user_data = 1;
  replay.epoch = world.l5->epoch();
  world.ScribbleCqe(replay);
  EXPECT_EQ(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
}

TEST(Sqcq, StaleEpochCompletionIsDroppedNotFatal) {
  SqcqWorld world;
  auto [server, client] = world.Establish();
  ASSERT_TRUE(world.Send(server, BufferFromString("pre-reset")).ok());
  world.Pump();

  // Ring reset (recovery path): the old generation may still owe
  // completions; they must reap as recovery noise, not as an attack.
  world.l5->AbandonInFlight();
  EXPECT_EQ(world.l5->epoch(), 1u);
  CqEntry old_epoch;
  old_epoch.op = kSqOpSend;
  old_epoch.code = kCqOk;
  old_epoch.user_data = 1;
  old_epoch.epoch = 0;
  world.ScribbleCqe(old_epoch);
  EXPECT_NE(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
  EXPECT_GE(world.l5->stats().cq_stale_dropped, 1u);
}

TEST(Sqcq, GarbageCompletionEntryIsTampering) {
  SqcqWorld world;
  (void)world.Establish();

  // Current epoch, so it survives the stale filter...
  world.ScribbleCqe(world.Garbage());
  // ...and dies on the shadow check: no such user_data was ever submitted.
  EXPECT_EQ(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
}

TEST(Sqcq, TamperingStaysReportedUntilTheRingIsReset) {
  L5QueueConfig tiny;
  tiny.pool_slots = 16;  // a receive credit of four one-slot entries
  tiny.slot_size = 512;
  SqcqWorld world(tiny);
  auto [server, client] = world.Establish();
  ASSERT_TRUE(world.DeliverToApp(server, client, 100, 1));

  // The forged entry may stand where a real completion was, so a caller
  // that drops this report must meet it again: every later doorbell says
  // kTampered, without crossing, until the rings are reset.
  world.ScribbleCqe(world.Garbage());
  EXPECT_EQ(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
  uint64_t crossings = world.l5->stats().crossings;
  EXPECT_EQ(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
  EXPECT_EQ(world.l5->Flush().code(), ciobase::StatusCode::kTampered);
  EXPECT_EQ(world.l5->stats().crossings, crossings);

  // After the reset the credit is whole again: more bytes than it holds
  // arrive, and the channel settles idle.
  world.l5->AbandonInFlight();
  EXPECT_TRUE(world.DeliverToApp(server, client, 8 * tiny.slot_size, 2));
  world.Pump();
  EXPECT_TRUE(Idle(world));
}

TEST(Sqcq, CompletionFieldMismatchesAreTampering) {
  // Arm receive entries (no inbound data, so they stay in flight as known
  // user_data values), then forge completions that contradict the shadow.
  SqcqWorld world;
  auto [server, client] = world.Establish();
  Buffer sink;
  ASSERT_TRUE(world.l5->Flush().ok());
  auto got = world.l5->ReceiveBytes(server, 4096, sink);
  ASSERT_TRUE(got.ok());
  ASSERT_GT(world.l5->in_flight_entries(), 0u);
  const L5QueueConfig& config = world.l5->queue_config();

  {
    // Opcode flip: recv submitted, send completed.
    CqEntry forged;
    forged.op = kSqOpSend;
    forged.user_data = 1;
    forged.epoch = world.l5->epoch();
    world.ScribbleCqe(forged);
    EXPECT_EQ(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
  }
  {
    // Length exceeding what was submitted for the segment.
    SqcqWorld fresh;
    auto [fs, fc] = fresh.Establish();
    Buffer fresh_sink;
    ASSERT_TRUE(fresh.l5->Flush().ok());
    ASSERT_TRUE(fresh.l5->ReceiveBytes(fs, 4096, fresh_sink).ok());
    CqEntry forged;
    forged.op = kSqOpRecv;
    forged.seg_count = 1;
    forged.user_data = 1;
    forged.epoch = fresh.l5->epoch();
    forged.seg_len[0] = config.slot_size + 1;
    forged.result = config.slot_size + 1;
    fresh.ScribbleCqe(forged);
    EXPECT_EQ(fresh.l5->Poll().code(), ciobase::StatusCode::kTampered);
  }
  {
    // Result not matching the per-segment sum.
    SqcqWorld fresh;
    auto [fs, fc] = fresh.Establish();
    Buffer fresh_sink;
    ASSERT_TRUE(fresh.l5->Flush().ok());
    ASSERT_TRUE(fresh.l5->ReceiveBytes(fs, 4096, fresh_sink).ok());
    CqEntry forged;
    forged.op = kSqOpRecv;
    forged.seg_count = 1;
    forged.user_data = 1;
    forged.epoch = fresh.l5->epoch();
    forged.seg_len[0] = 100;
    forged.result = 101;
    fresh.ScribbleCqe(forged);
    EXPECT_EQ(fresh.l5->Poll().code(), ciobase::StatusCode::kTampered);
  }
  {
    // Unknown completion code.
    SqcqWorld fresh;
    auto [fs, fc] = fresh.Establish();
    Buffer fresh_sink;
    ASSERT_TRUE(fresh.l5->Flush().ok());
    ASSERT_TRUE(fresh.l5->ReceiveBytes(fs, 4096, fresh_sink).ok());
    CqEntry forged;
    forged.op = kSqOpRecv;
    forged.user_data = 1;
    forged.epoch = fresh.l5->epoch();
    forged.code = kCqReset + 1;
    fresh.ScribbleCqe(forged);
    EXPECT_EQ(fresh.l5->Poll().code(), ciobase::StatusCode::kTampered);
  }
}

TEST(Sqcq, CompletionNamingAnUnopenedOrCancelledSocketIsTampering) {
  // A receive completion that is right in every other field: armed
  // user_data, one segment within the slot, result matching.
  auto forge = [](SqcqWorld& world, uint32_t socket) {
    CqEntry forged;
    forged.op = kSqOpRecv;
    forged.seg_count = 1;
    forged.user_data = 1;
    forged.epoch = world.l5->epoch();
    forged.socket = socket;
    forged.seg_len[0] = 10;
    forged.result = 10;
    world.ScribbleCqe(forged);
  };
  {
    SqcqWorld world;
    auto [server, client] = world.Establish();
    ASSERT_TRUE(world.l5->Flush().ok());
    forge(world, server.value + 1000);  // never opened
    EXPECT_EQ(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
  }
  {
    SqcqWorld world;
    cionet::SocketId gone = world.Establish().first;
    (void)world.Establish();  // stays open, so the credit stays armed
    ASSERT_TRUE(world.l5->Flush().ok());
    world.l5->CancelSocket(gone);
    forge(world, gone.value);
    EXPECT_EQ(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
  }
  {
    // Control: the same entry naming an open socket reaps cleanly.
    SqcqWorld world;
    auto [server, client] = world.Establish();
    ASSERT_TRUE(world.l5->Flush().ok());
    forge(world, server.value);
    EXPECT_TRUE(world.l5->Poll().ok());
  }
}

// --- Accept completions -----------------------------------------------------

// Hostile host: the user_data of the armed accept, read off the SQ (the
// most recent accept entry there).
uint64_t ArmedAcceptUserData(SqcqWorld& world) {
  ciobase::MutableByteSpan region = world.l5->queue_region_for_test();
  const L5QueueConfig& config = world.l5->queue_config();
  uint64_t user_data = 0;
  for (uint32_t i = 0; i < config.sq_entries; ++i) {
    SqEntry sqe = DecodeSqe(
        region.subspan(config.SqOffset() + i * kSqeSize, kSqeSize));
    if (sqe.op == kSqOpAccept) {
      user_data = std::max(user_data, sqe.user_data);
    }
  }
  return user_data;
}

// An accept completion right in every field the app checks, naming
// `socket`.
CqEntry ForgedAccept(SqcqWorld& world, uint32_t socket) {
  CqEntry forged;
  forged.op = kSqOpAccept;
  forged.user_data = ArmedAcceptUserData(world);
  forged.epoch = world.l5->epoch();
  forged.socket = socket;
  forged.peer = cionet::Ipv4Address::FromOctets(10, 0, 0, 2).value;
  return forged;
}

TEST(Sqcq, AcceptDrainsHarvestedCompletionsWithoutCrossing) {
  SqcqWorld world;
  ASSERT_TRUE(world.peer_stack
                  ->TcpConnect(cionet::Ipv4Address::FromOctets(10, 0, 0, 1),
                               80)
                  .ok());
  for (int i = 0; i < 1000 && world.l5->stats().accepts == 0; ++i) {
    world.Pump(1);
  }
  ASSERT_EQ(world.l5->stats().accepts, 1u);
  const uint64_t crossings = world.l5->stats().crossings;
  const uint64_t now = world.clock.now_ns();
  auto accepted = world.l5->Accept(world.listener);
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(accepted->peer, world.peer_stack->ip());
  EXPECT_EQ(world.l5->Accept(world.listener).status().code(),
            ciobase::StatusCode::kUnavailable);
  EXPECT_EQ(world.l5->stats().crossings, crossings);
  EXPECT_EQ(world.clock.now_ns(), now);
}

TEST(Sqcq, BytesForAConnectionNobodyAdoptedStayInTheStack) {
  // A connection waits app-side until Accept hands it out; until then its
  // bytes are not harvested, so they stay inside the stack's bounded
  // receive window instead of piling up app-side.
  SqcqWorld world;
  auto [first, first_peer] = world.Establish();  // keeps the credit armed
  auto client = world.peer_stack->TcpConnect(
      cionet::Ipv4Address::FromOctets(10, 0, 0, 1), 80);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 1000 && world.l5->stats().accepts < 2; ++i) {
    world.Pump(1);
  }
  ASSERT_EQ(world.l5->stats().accepts, 2u);
  ASSERT_TRUE(
      world.peer_stack->TcpSend(*client, BufferFromString("early")).ok());
  world.Pump();
  EXPECT_EQ(world.l5->stats().bytes_received, 0u);

  auto accepted = world.l5->Accept(world.listener);
  ASSERT_TRUE(accepted.ok());
  world.Pump();
  Buffer out;
  auto got = world.l5->ReceiveBytes(accepted->socket, 64, out);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ciobase::StringFromBytes(out), "early");
}

TEST(Sqcq, AcceptCompletionWithoutAnArmedAcceptIsTampering) {
  {
    // A user_data the app never armed an accept under.
    SqcqWorld world;
    auto [server, client] = world.Establish();
    ASSERT_TRUE(world.l5->Flush().ok());
    CqEntry forged = ForgedAccept(world, server.value + 1000);
    forged.user_data += 1;
    world.ScribbleCqe(forged);
    EXPECT_EQ(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
  }
  {
    // A one-shot entry's user_data under the accept opcode.
    SqcqWorld world;
    auto [server, client] = world.Establish();
    ASSERT_TRUE(world.l5->Flush().ok());
    CqEntry forged = ForgedAccept(world, server.value + 1000);
    forged.user_data = 1;
    world.ScribbleCqe(forged);
    EXPECT_EQ(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
  }
  {
    // An armed accept's user_data under the receive opcode.
    SqcqWorld world;
    auto [server, client] = world.Establish();
    ASSERT_TRUE(world.l5->Flush().ok());
    CqEntry forged = ForgedAccept(world, server.value);
    forged.op = kSqOpRecv;
    world.ScribbleCqe(forged);
    EXPECT_EQ(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
  }
  {
    // The right user_data with a payload an accept never carries.
    SqcqWorld world;
    auto [server, client] = world.Establish();
    ASSERT_TRUE(world.l5->Flush().ok());
    CqEntry forged = ForgedAccept(world, server.value + 1000);
    forged.seg_count = 1;
    forged.seg_len[0] = 10;
    forged.result = 10;
    world.ScribbleCqe(forged);
    EXPECT_EQ(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
  }
}

TEST(Sqcq, AcceptCompletionNamingAnOpenSocketIsTampering) {
  {
    SqcqWorld world;
    auto [server, client] = world.Establish();
    ASSERT_TRUE(world.l5->Flush().ok());
    world.ScribbleCqe(ForgedAccept(world, server.value));
    EXPECT_EQ(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
  }
  {
    // The listener itself is no new connection either.
    SqcqWorld world;
    (void)world.Establish();
    ASSERT_TRUE(world.l5->Flush().ok());
    world.ScribbleCqe(ForgedAccept(world, world.listener.value));
    EXPECT_EQ(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
  }
  {
    // Control: naming a socket the app has never seen passes the checks.
    // The host could as well have opened that connection from the network;
    // the TLS handshake above decides whether it is ever trusted.
    SqcqWorld world;
    auto [server, client] = world.Establish();
    ASSERT_TRUE(world.l5->Flush().ok());
    world.ScribbleCqe(ForgedAccept(world, server.value + 1000));
    EXPECT_TRUE(world.l5->Poll().ok());
    auto accepted = world.l5->Accept(world.listener);
    ASSERT_TRUE(accepted.ok());
    EXPECT_EQ(accepted->socket.value, server.value + 1000);
  }
}

TEST(Sqcq, AcceptCompletionsPastTheUnadoptedBoundAreTampering) {
  // An honest I/O side stops at a CQ's worth of connections the app has not
  // adopted; one more cannot come from it.
  L5QueueConfig tiny;
  tiny.cq_entries = 4;
  SqcqWorld world(tiny);
  auto [server, client] = world.Establish();
  ASSERT_TRUE(world.l5->Flush().ok());
  for (uint32_t i = 1; i <= tiny.cq_entries; ++i) {
    world.ScribbleCqe(ForgedAccept(world, server.value + 1000 + i));
  }
  ASSERT_TRUE(world.l5->Poll().ok());
  world.ScribbleCqe(ForgedAccept(world, server.value + 2000));
  EXPECT_EQ(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
}

TEST(Sqcq, AcceptCompletionFromAnOldEpochIsDroppedStale) {
  SqcqWorld world;
  (void)world.Establish();
  ASSERT_TRUE(world.l5->Flush().ok());
  CqEntry old = ForgedAccept(world, 1000);
  world.l5->AbandonInFlight();
  world.ScribbleCqe(old);
  const uint64_t stale = world.l5->stats().cq_stale_dropped;
  EXPECT_NE(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
  EXPECT_EQ(world.l5->stats().cq_stale_dropped, stale + 1);
  EXPECT_EQ(world.l5->Accept(world.listener).status().code(),
            ciobase::StatusCode::kUnavailable);
}

TEST(Sqcq, RingResetReArmsTheAccept) {
  SqcqWorld world;
  (void)world.Establish();
  const uint64_t before = ArmedAcceptUserData(world);
  world.l5->AbandonInFlight();
  // The next connection is still accepted, under a freshly armed entry.
  auto [server, client] = world.Establish();
  EXPECT_NE(server.value, 0u);
  EXPECT_NE(ArmedAcceptUserData(world), before);
  EXPECT_TRUE(world.DeliverToApp(server, client, 100, 3));
}

TEST(Sqcq, CqTailOutsideRingWindowIsTampering) {
  SqcqWorld world;
  (void)world.Establish();
  ciobase::MutableByteSpan region = world.l5->queue_region_for_test();
  // A runaway tail would walk the reaper through the whole ring of dead
  // entries forever; the window check rejects it before any decode.
  ciobase::StoreLe32(region.data() + kCtrlCqTail,
                     world.l5->queue_config().cq_entries + 7);
  EXPECT_EQ(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
}

// --- Hostile control-cell mutation (the fuzzer's mutator as a library) ------

// The SQ/CQ control cells are the five hottest host-writable words in the
// L5 region. These tests drive them with ciofuzz::Mutator::ApplyStep — the
// exact write primitive the campaign uses — and assert the channel's
// contract: app-owned cells self-heal, io-owned forgeries are typed, and
// nothing ever wedges without a typed signal.

ciofuzz::TargetWindow CtrlWindow(SqcqWorld& world) {
  ciofuzz::TargetWindow window;
  window.name = "l5.ctrl";
  window.length = kSqcqControlBytes;
  window.weight = 1;
  window.raw = world.l5->queue_region_for_test().subspan(0, kSqcqControlBytes);
  return window;
}

bool SawEdge(std::string_view site, ciobase::StatusCode code) {
  for (const ciobase::CoverageMap::Edge& edge :
       ciobase::CoverageMap::Instance().Edges()) {
    if (edge.site == site && edge.code == static_cast<uint16_t>(code)) {
      return true;
    }
  }
  return false;
}

TEST(SqcqMutation, ForgedCqHeadIsTypedEdgeAndSelfHeals) {
  SqcqWorld world;
  auto [server, client] = world.Establish();
  ciobase::CoverageMap::Instance().ResetHits();
  ASSERT_TRUE(world.QueuePlain(server, BufferFromString("held then drained")));

  // Forge the app-owned CqHead one past the published tail: the unsigned
  // window tail - head wraps huge and the incoherent-head check fires.
  ciofuzz::TargetWindow ctrl = CtrlWindow(world);
  ciofuzz::MutationStep forge;
  forge.window = ctrl.name;
  forge.op = ciofuzz::MutOp::kWriteLe32;
  forge.offset = kCtrlCqHead;
  forge.value = ciobase::LoadLe32(ctrl.raw.data() + kCtrlCqTail) + 1;
  ciofuzz::Mutator::ApplyStep(forge, ctrl);

  // The doorbell's io pass sees the forged head, holds the completion (not
  // dropped) and emits the typed edge; Harvest re-asserts the true head in
  // the same call, so this is never Tampered.
  EXPECT_NE(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
  EXPECT_TRUE(SawEdge("l5.cq.incoherent_head",
                      ciobase::StatusCode::kOutOfRange));

  // ...and the wedge heals: the held completion drains on later doorbells.
  world.Pump();
  EXPECT_TRUE(Idle(world));
  EXPECT_EQ(ciobase::LoadLe32(ctrl.raw.data() + kCtrlCqHead),
            ciobase::LoadLe32(ctrl.raw.data() + kCtrlCqTail));
}

TEST(SqcqMutation, ForgedEpochCellDropsStaleTypedAndHeals) {
  SqcqWorld world;
  auto [server, client] = world.Establish();
  ciobase::CoverageMap::Instance().ResetHits();
  ASSERT_TRUE(world.QueuePlain(server, BufferFromString("stamped stale")));

  // Bump the app-owned epoch cell: the io side stamps this send's CQE with
  // the forged generation, which the reaper must drop as recovery noise —
  // a typed counter and edge, never Tampered, never a trusted completion.
  ciofuzz::TargetWindow ctrl = CtrlWindow(world);
  ciofuzz::MutationStep forge;
  forge.window = ctrl.name;
  forge.op = ciofuzz::MutOp::kAddDelta;
  forge.offset = kCtrlEpoch;
  forge.width = 4;
  forge.value = 7;
  ciofuzz::Mutator::ApplyStep(forge, ctrl);

  EXPECT_TRUE(world.l5->Poll().ok());
  EXPECT_GE(world.l5->stats().cq_stale_dropped, 1u);
  EXPECT_TRUE(SawEdge("l5.cq.stale_epoch",
                      ciobase::StatusCode::kUnavailable));
  // Harvest healed the cell back to the true generation.
  EXPECT_EQ(ciobase::LoadLe32(ctrl.raw.data() + kCtrlEpoch),
            world.l5->epoch());
}

TEST(SqcqMutation, ForgedSqHeadCannotSpoofConsumption) {
  L5QueueConfig tiny;
  tiny.sq_entries = 2;
  tiny.cq_entries = 4;
  tiny.pool_slots = 16;
  tiny.slot_size = 512;
  SqcqWorld world(tiny);
  auto [server, client] = world.Establish();
  Buffer payload = BufferFromString("gate");
  ASSERT_TRUE(world.QueuePlain(server, payload));
  ASSERT_TRUE(world.QueuePlain(server, payload));

  // Host pretends the io side consumed far ahead. SQ-full detection uses
  // the count returned through the call gate, never this cell, so the
  // forgery buys nothing: the ring stays full.
  ciofuzz::TargetWindow ctrl = CtrlWindow(world);
  ciofuzz::MutationStep forge;
  forge.window = ctrl.name;
  forge.op = ciofuzz::MutOp::kWriteLe32;
  forge.offset = kCtrlSqHead;
  forge.value = 1000;
  ciofuzz::Mutator::ApplyStep(forge, ctrl);
  EXPECT_FALSE(world.QueuePlain(server, payload));

  // A real doorbell consumes through the gate and reopens the ring.
  EXPECT_NE(world.l5->Poll().code(), ciobase::StatusCode::kTampered);
  EXPECT_TRUE(world.QueuePlain(server, payload));
  world.Pump();
  EXPECT_TRUE(Idle(world));
}

TEST(SqcqMutation, SeededControlCellStormNeverWedgesSilently) {
  // Seeded random storms over the whole control block, exactly as the
  // campaign generates them. The oracle contract: every storm ends in
  // typed tampering, a clean drain, or a wedge that left a typed signal —
  // a silent wedge (stuck in-flight entries with only kOk edges) is the
  // gated "hang" failure.
  const uint64_t seeds[] = {11, 29, 6361};
  for (uint64_t seed : seeds) {
    SqcqWorld world;
    auto [server, client] = world.Establish();
    ciobase::CoverageMap::Instance().ResetHits();
    std::vector<ciofuzz::TargetWindow> windows;
    windows.push_back(CtrlWindow(world));
    ciofuzz::Mutator mutator(seed);
    constexpr uint32_t kRounds = 24;
    ciofuzz::FuzzInput input = mutator.Generate(windows, kRounds, 12);

    bool tampered = false;
    for (uint32_t round = 0; round < kRounds && !tampered; ++round) {
      if (round % 4 == 0) {
        (void)world.QueuePlain(server, BufferFromString("storm"));
      }
      mutator.ApplyRound(input, round, windows);
      if (world.l5->Poll().code() == ciobase::StatusCode::kTampered) {
        tampered = true;  // typed detection: recovery would take over
      }
      world.peer_stack->Poll();
      world.clock.Advance(5'000);
    }
    if (tampered) {
      continue;
    }
    world.Pump();
    bool drained = Idle(world);
    bool typed_signal = world.l5->stats().cq_stale_dropped > 0;
    for (const ciobase::CoverageMap::Edge& edge :
         ciobase::CoverageMap::Instance().Edges()) {
      if (edge.code != 0) {
        typed_signal = true;
      }
    }
    EXPECT_TRUE(drained || typed_signal) << "silent wedge at seed " << seed;
    // The self-healing cells converged back to the app's private truth.
    EXPECT_EQ(ciobase::LoadLe32(
                  world.l5->queue_region_for_test().data() + kCtrlEpoch),
              world.l5->epoch())
        << "seed " << seed;
  }
}

// --- Exactly-once across a mid-batch link kill ------------------------------

TEST(Sqcq, KillLinkMidBatchDeliversExactlyOnce) {
  StackConfig client = StackConfig::DefaultsFor(StackProfile::kDualBoundary, 1);
  client.seed = 6101;
  client.tcp_tuning.initial_rto_ns = 1'000'000;
  client.tcp_tuning.min_rto_ns = 500'000;
  client.tcp_tuning.max_rto_ns = 4'000'000;
  client.tcp_tuning.max_retries = 4;
  StackConfig server = client;
  server.node_id = 2;
  server.seed = 6102;
  LinkedPair pair(client, server);
  ASSERT_TRUE(pair.Establish());

  std::vector<std::string> sent;
  std::vector<std::string> received;
  auto drain = [&] {
    for (;;) {
      auto message = pair.server->ReceiveMessage();
      if (!message.ok()) {
        break;
      }
      received.emplace_back(reinterpret_cast<const char*>(message->data()),
                            message->size());
    }
  };
  // Bursts of four: each burst lands back to back in the submission queue
  // and shares a doorbell, so the fault window catches whole batches in
  // flight, not single messages.
  auto offer_burst = [&](int burst_id) {
    for (int round = 0; round < 30000; ++round) {
      if (pair.client->Ready()) {
        int accepted = 0;
        for (int i = 0; i < 4; ++i) {
          std::string payload =
              "burst-" + std::to_string(burst_id) + "-msg-" + std::to_string(i);
          if (!pair.client->SendMessage(BufferFromString(payload)).ok()) {
            break;
          }
          sent.push_back(payload);
          ++accepted;
        }
        if (accepted == 4) {
          return true;
        }
      }
      pair.Pump();
      drain();
    }
    return false;
  };

  ASSERT_TRUE(offer_burst(0));
  // Kill the link past the TCP retry budget with a batch just submitted:
  // recovery must reset the ring epoch and replay from the resend window.
  pair.client->adversary().InjectFault(
      {ciohost::FaultStrategy::kLinkKill, pair.clock.now_ns(), 12'000'000});
  ASSERT_TRUE(offer_burst(1));
  ASSERT_TRUE(offer_burst(2));
  ASSERT_TRUE(offer_burst(3));

  ASSERT_TRUE(pair.PumpUntil(
      [&] {
        drain();
        return received.size() >= sent.size() && pair.client->Ready() &&
               !pair.client->Failed() && !pair.server->Failed();
      },
      60000));

  // Exactly once, in order: no losses, no duplicates, no reordering.
  EXPECT_EQ(received, sent);
  const auto& stats = pair.client->recovery_stats();
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_EQ(stats.messages_lost, 0u);
  EXPECT_EQ(pair.server->recovery_stats().messages_lost, 0u);
  EXPECT_TRUE(pair.client->memory().violations().empty());
}

}  // namespace
