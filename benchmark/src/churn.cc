// churn-fault: 64 attestation-gated client slots, each cycling
// connect -> attest -> 4 echoes -> disconnect, against one
// ConfidentialServer; plus three probe clients (forged, stale, keyless
// credentials) that must be refused, exactly once each, at set-up.
//
// One op is one session lifetime, from Connect() until the server has
// forgotten the peer. A link kill and a counter stall hit the server node at
// fixed simulated offsets from the start of the first measured segment,
// identical on every run and seed. It is the only workload with faults and
// the only one that measures handshake, admission, park/reattach and the
// recovery machine.

#include <cmath>
#include <deque>
#include <limits>
#include <set>

#include "net_common.h"
#include "src/base/rng.h"
#include "src/serve/harness.h"
#include "workloads.h"

namespace bench {

namespace {

constexpr size_t kSlots = 64;
constexpr size_t kProbes = 3;  // forged, stale, keyless
constexpr uint64_t kEchoesPerLifetime = 4;
// Seeded exponential think time between a slot's lifetimes. Without it the
// 64 slots fall into lockstep convoys whose shape, and so the median
// lifetime, depends chaotically on the seed.
constexpr double kMeanThinkNs = 500'000;
constexpr uint64_t kMinEchoBytes = 64;
constexpr uint64_t kMaxEchoBytes = 512;
constexpr uint64_t kChunkOps = 256;
constexpr uint64_t kSegmentChunks = 8;
constexpr int kMaxRounds = 4'000'000;

// The fault schedule, relative to the first segment's start.
constexpr uint64_t kLinkKillAtNs = 10'000'000;
constexpr uint64_t kLinkKillForNs = 12'000'000;
constexpr uint64_t kStallAtNs = 35'000'000;
constexpr uint64_t kStallForNs = 2'000'000;

class ChurnWorkload : public Workload {
 public:
  explicit ChurnWorkload(uint64_t seed)
      : seed_(seed), step_(seed), rng_(seed) {}

  void EnableTracing(Tracer* tracer) override {
    tracer_ = tracer;
    prof_ = std::make_unique<cioprof::ProfRegistry>();
  }

  const ciobase::SimClock* clock() const override { return &world_->clock; }

  bool Setup() override {
    cioserve::MultiClientWorld::Options options;
    options.profile = cio::StackProfile::kDualBoundary;
    options.num_clients = kSlots + kProbes;
    options.seed = seed_;
    options.attestation_key = ciobase::BufferFromString("fleet-attestation-root");
    options.forged_clients = {kSlots};
    options.stale_clients = {kSlots + 1};
    options.keyless_clients = {kSlots + 2};
    options.server_config.max_connections = kSlots + kProbes;
    options.server_profiler = prof_.get();
    world_ = std::make_unique<cioserve::MultiClientWorld>(options);
    if (!world_->server->Start().ok()) {
      return false;
    }
    // Set-up admits nobody: it proves the probes are refused, typed.
    for (size_t p = kSlots; p < kSlots + kProbes; ++p) {
      if (!world_->clients[p]
               ->Connect(world_->server_node->ip(), world_->server->config().port)
               .ok()) {
        return false;
      }
    }
    bool settled = world_->PumpUntil(
        [&] {
          for (size_t p = kSlots; p < kSlots + kProbes; ++p) {
            if (!world_->clients[p]->denied()) {
              return false;
            }
          }
          return true;
        },
        120000);
    if (!settled ||
        world_->server->stats().rejected_unauthenticated != kProbes) {
      return false;
    }
    slots_.assign(kSlots, Slot{});
    if (prof_ != nullptr) {
      prof_->Reset();
    }
    return true;
  }

  void BeginSegment() override {
    segment_ = SegmentStats{};
    segment_.sim_start_ns = world_->clock.now_ns();
    issuing_ = true;
    if (!faults_armed_) {
      faults_armed_ = true;
      const uint64_t t0 = segment_.sim_start_ns;
      kill_.start_ns = t0 + kLinkKillAtNs;
      kill_.end_ns = kill_.start_ns + kLinkKillForNs;
      stall_.start_ns = t0 + kStallAtNs;
      stall_.end_ns = stall_.start_ns + kStallForNs;
      auto& adversary = world_->server_node->adversary();
      adversary.InjectFault({ciohost::FaultStrategy::kLinkKill, kill_.start_ns,
                             kLinkKillForNs});
      adversary.InjectFault({ciohost::FaultStrategy::kStallCounters,
                             stall_.start_ns, kStallForNs});
    }
  }

  bool RunOps(uint64_t ops) override {
    uint64_t target = completed_ + ops;
    for (int round = 0; completed_ < target; ++round) {
      if (round > kMaxRounds) {
        return false;
      }
      Round();
    }
    return true;
  }

  SegmentStats EndSegment() override {
    issuing_ = false;
    segment_.drain_start_ns = world_->clock.now_ns();
    segment_.completed_before_drain = segment_.completed;
    for (int round = 0; round < kMaxRounds && !Idle(); ++round) {
      Round();
    }
    for (Slot& slot : slots_) {
      if (slot.phase != Phase::kIdle) {
        FailLifetime(slot);
      }
    }
    return segment_;
  }

  uint64_t completed() const override { return completed_; }
  uint64_t chunk_ops() const override { return kChunkOps; }
  uint64_t segment_chunks() const override { return kSegmentChunks; }

  Counters Sample() override {
    Counters out;
    AddNodeCounters(out, *world_->server_node);
    AddServerCounters(out, *world_->server, /*include_tls=*/false);
    for (size_t i = 0; i < kSlots; ++i) {
      AddNodeCounters(out, *world_->clients[i]);
      AddTlsCounters(out, world_->clients[i]->tls());
    }
    for (const auto& [name, value] : tls_retired_) {
      out[name] += value;
    }
    AddFabricCounters(out, *world_->fabric);
    obs_.AddTo(out, world_->server_node->observability());
    out["app.payload_bytes"] = static_cast<double>(payload_bytes_);
    return out;
  }

  void ExtraMetrics(Counters& out, const SegmentStats&) override {
    out["serve.echo_backlog_max"] = static_cast<double>(echo_.backlog_max());
    out["sim_recovery_ms"] = kill_.RecoveryMs();
    out["sim_stall_recovery_ms"] = stall_.RecoveryMs();
  }

  void HarvestObservations() override {
    obs_.Harvest(world_->server_node->observability(), /*keep=*/true);
    for (auto& client : world_->clients) {
      obs_.Harvest(client->observability(), /*keep=*/false);
    }
  }

  std::vector<const cioprof::ProfRegistry*> profilers() const override {
    return {prof_.get()};
  }

 private:
  enum class Phase { kIdle, kConnecting, kEcho, kTeardown };
  struct Slot {
    Phase phase = Phase::kIdle;
    uint64_t op = 0;  // id of the lifetime in progress
    uint64_t start_ns = 0;
    bool in_segment = false;
    uint64_t echoes_left = 0;
    bool echo_in_flight = false;
    uint64_t next_connect_ns = 0;  // end of the think time after a lifetime
    uint64_t next_msg = 0;  // per-slot message index (payload stream)
    size_t msg_size = 0;
  };
  // Recovery from one fault: from its start until every lifetime that was
  // in progress when it hit has completed, no echo waits at the server and
  // every session exchanging echoes is Ready and admitted again.
  struct Fault {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    bool started = false;
    std::set<uint64_t> hit;  // lifetimes in progress at the start
    uint64_t recovered_ns = 0;

    double RecoveryMs() const {
      return recovered_ns == 0
                 ? std::numeric_limits<double>::infinity()
                 : static_cast<double>(recovered_ns - start_ns) / 1e6;
    }
  };

  bool Idle() const {
    for (const Slot& slot : slots_) {
      if (slot.phase != Phase::kIdle) {
        return false;
      }
    }
    return true;
  }

  void FailLifetime(Slot& slot) {
    ++failed_;
    if (slot.in_segment) {
      ++segment_.failed;
      segment_.latency_us.push_back(std::numeric_limits<double>::infinity());
    }
    slot.phase = Phase::kIdle;
  }

  void CompleteLifetime(Slot& slot, uint64_t now) {
    ++completed_;
    if (slot.in_segment) {
      ++segment_.completed;
      segment_.latency_us.push_back(
          static_cast<double>(now - slot.start_ns) / 1000.0);
    }
    slot.next_connect_ns =
        now + static_cast<uint64_t>(-std::log(1.0 - rng_.NextDouble()) *
                                    kMeanThinkNs);
    kill_.hit.erase(slot.op);
    stall_.hit.erase(slot.op);
    slot.phase = Phase::kIdle;
  }

  // Folds a session's TLS counters into the totals before Disconnect()
  // discards them.
  void RetireTls(const cio::ConfidentialNode& node) {
    Counters tls;
    AddTlsCounters(tls, node.tls());
    for (const auto& [name, value] : tls) {
      tls_retired_[name] += value;
    }
  }

  void TrackFault(Fault& fault, uint64_t now) {
    if (!fault.started && now >= fault.start_ns) {
      fault.started = true;
      for (const Slot& slot : slots_) {
        if (slot.phase != Phase::kIdle) {
          fault.hit.insert(slot.op);
        }
      }
    }
    if (!fault.started || fault.recovered_ns != 0 || now < fault.end_ns ||
        !fault.hit.empty() || !echo_.idle()) {
      return;
    }
    for (size_t i = 0; i < kSlots; ++i) {
      const cio::ConfidentialNode& node = *world_->clients[i];
      if (slots_[i].phase == Phase::kEcho &&
          !(node.Ready() && node.admitted())) {
        return;
      }
    }
    fault.recovered_ns = now;
  }

  void StepSlot(size_t i, uint64_t now) {
    Slot& slot = slots_[i];
    cio::ConfidentialNode& node = *world_->clients[i];
    const cionet::Ipv4Address ip = node.ip();
    if (slot.phase != Phase::kIdle && (node.Failed() || node.denied())) {
      FailLifetime(slot);
      return;
    }
    switch (slot.phase) {
      case Phase::kIdle: {
        if (!issuing_ || now < slot.next_connect_ns) {
          return;
        }
        slot.op = next_op_++;
        slot.start_ns = now;
        slot.in_segment = true;
        slot.echoes_left = kEchoesPerLifetime;
        slot.echo_in_flight = false;
        ++segment_.attempted;
        ciobase::Status status = [&] {
          SpanScope span(tracer_, "engine.connect", slot.op + 1);
          return node.Connect(world_->server_node->ip(),
                              world_->server->config().port);
        }();
        if (!status.ok()) {
          FailLifetime(slot);
          return;
        }
        slot.phase = Phase::kConnecting;
        return;
      }
      case Phase::kConnecting:
        if (node.Ready() && node.admitted()) {
          slot.phase = Phase::kEcho;
        } else {
          return;
        }
        [[fallthrough]];
      case Phase::kEcho: {
        if (slot.echo_in_flight) {
          ciobase::Result<ciobase::Buffer> echo = [&] {
            SpanScope span(tracer_, "engine.receive", slot.op + 1);
            return node.ReceiveMessage();
          }();
          if (!echo.ok()) {
            return;
          }
          if (!PayloadMatches(seed_, i, slot.next_msg, *echo, slot.msg_size)) {
            FailLifetime(slot);
            return;
          }
          payload_bytes_ += 2 * slot.msg_size;
          slot.echo_in_flight = false;
          ++slot.next_msg;
          --slot.echoes_left;
        }
        if (slot.echoes_left > 0) {
          if (!node.Ready()) {
            return;
          }
          slot.msg_size = rng_.NextInRange(kMinEchoBytes, kMaxEchoBytes);
          FillPayload(seed_, i, slot.next_msg, payload_, slot.msg_size);
          bool sent;
          {
            SpanScope span(tracer_, "engine.send", slot.op + 1);
            sent = node.SendMessage(payload_).ok();
          }
          slot.echo_in_flight = sent;
          return;
        }
        RetireTls(node);
        {
          SpanScope span(tracer_, "engine.disconnect", slot.op + 1);
          (void)node.Disconnect();
        }
        slot.phase = Phase::kTeardown;
        [[fallthrough]];
      }
      case Phase::kTeardown:
        // The next Connect from this address must never reattach stale
        // server state, so a lifetime ends when the server forgot the peer.
        if (!world_->server->ServesPeer(ip)) {
          CompleteLifetime(slot, now);
        }
        return;
    }
  }

  void Round() {
    SpanScope round_span(tracer_, "harness.round");
    const uint64_t now = world_->clock.now_ns();
    for (size_t i = 0; i < kSlots; ++i) {
      StepSlot(i, now);
    }
    echo_.Round(*world_->server, tracer_, now);
    {
      SpanScope span(tracer_, "serve.poll");
      world_->server->Poll();
    }
    for (auto& client : world_->clients) {
      SpanScope span(tracer_, "engine.poll");
      client->Poll();
    }
    world_->clock.Advance(step_.Next());
    if (faults_armed_) {
      TrackFault(kill_, now);
      TrackFault(stall_, now);
    }
  }

  uint64_t seed_;
  RoundStep step_;
  ciobase::Rng rng_;
  Tracer* tracer_ = nullptr;
  std::unique_ptr<cioprof::ProfRegistry> prof_;
  std::unique_ptr<cioserve::MultiClientWorld> world_;
  std::vector<Slot> slots_;
  EchoApp echo_;
  ciobase::Buffer payload_;
  bool issuing_ = false;
  bool faults_armed_ = false;
  Fault kill_;
  Fault stall_;
  SegmentStats segment_;
  uint64_t next_op_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t payload_bytes_ = 0;
  Counters tls_retired_;
  ObservationTotals obs_;
};

}  // namespace

std::unique_ptr<Workload> MakeChurnWorkload(uint64_t seed) {
  return std::make_unique<ChurnWorkload>(seed);
}

}  // namespace bench
