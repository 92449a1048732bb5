// echo-64c-512b: 64 dual-boundary clients, open loop, one ConfidentialServer
// echoing 512-byte messages.
//
// Each client offers messages on its own seeded exponential inter-arrival
// schedule, whatever the server is doing; latency runs from the due time to
// the echo's arrival, so queueing and late offers count. The fixed rate sits
// below the knee; the traced run also searches the highest rate that meets
// the latency limit.

#include <cmath>
#include <deque>
#include <limits>

#include "net_common.h"
#include "src/base/rng.h"
#include "src/serve/harness.h"
#include "workloads.h"

namespace bench {

namespace {

constexpr size_t kClients = 64;
constexpr size_t kMessageBytes = 512;
constexpr double kFixedRate = 256'000;  // aggregate offered echoes per second
constexpr uint64_t kChunkOps = 4'480;  // 70 echoes per client
constexpr uint64_t kSegmentChunks = 8;
constexpr int kDrainRounds = 200'000;

// Rate search: geometric grid in 5% steps; a probe passes with p99 under the
// limit, no failed op, and no backlog growth between its two halves. A probe
// offers 400 echoes per client (about 30 ms near the knee), long enough for
// a few percent of overload to grow the backlog past the noise.
constexpr double kSearchBaseRate = 128'000;
constexpr double kSearchStep = 1.05;
constexpr int kSearchSteps = 43;  // 128k .. ~1.04M
constexpr uint64_t kProbeOps = 64 * 400;
constexpr double kSloP99Us = 1000.0;

class EchoWorkload : public Workload {
 public:
  EchoWorkload(uint64_t seed, double rate)
      : seed_(seed), step_(seed), rate_(rate) {}

  void EnableTracing(Tracer* tracer) override {
    tracer_ = tracer;
    prof_ = std::make_unique<cioprof::ProfRegistry>();
  }

  const ciobase::SimClock* clock() const override { return &world_->clock; }

  bool Setup() override {
    cioserve::MultiClientWorld::Options options;
    options.profile = cio::StackProfile::kDualBoundary;
    options.num_clients = kClients;
    options.seed = seed_;
    options.server_config.max_connections = kClients;
    options.server_profiler = prof_.get();
    world_ = std::make_unique<cioserve::MultiClientWorld>(options);
    if (!world_->EstablishAll(120000)) {
      return false;
    }
    if (prof_ != nullptr) {
      prof_->Reset();  // profile the load, not the handshake storm
    }
    clients_.clear();
    clients_.resize(kClients);
    for (size_t i = 0; i < kClients; ++i) {
      clients_[i].rng = std::make_unique<ciobase::Rng>(
          seed_ * 0x9e3779b97f4a7c15ULL + 17 * (i + 1));
    }
    return true;
  }

  void BeginSegment() override {
    segment_ = SegmentStats{};
    segment_.sim_start_ns = world_->clock.now_ns();
    in_segment_ = true;
    for (ClientState& c : clients_) {
      c.segment_completed = 0;
      c.next_due_ns = static_cast<double>(world_->clock.now_ns()) + Gap(c);
    }
  }

  bool RunOps(uint64_t ops) override {
    uint64_t target = offered_ + ops;
    for (int round = 0; offered_ < target; ++round) {
      if (round > 4'000'000) {
        return false;
      }
      Round(/*offer=*/true);
    }
    return true;
  }

  SegmentStats EndSegment() override {
    in_segment_ = false;
    segment_.drain_start_ns = world_->clock.now_ns();
    segment_.completed_before_drain = segment_.completed;
    for (int round = 0; round < kDrainRounds && !Idle(); ++round) {
      Round(/*offer=*/false);
    }
    // Whatever is still outstanding failed: never delivered.
    for (ClientState& c : clients_) {
      for (const Pending& p : c.unsent) {
        Fail(p);
      }
      for (const Pending& p : c.in_flight) {
        Fail(p);
      }
      c.unsent.clear();
      c.in_flight.clear();
    }
    echo_.Clear();
    last_segment_clients_.clear();
    for (const ClientState& c : clients_) {
      last_segment_clients_.push_back(c.segment_completed);
    }
    return segment_;
  }

  uint64_t completed() const override { return completed_; }
  uint64_t chunk_ops() const override { return kChunkOps; }
  uint64_t segment_chunks() const override { return kSegmentChunks; }

  Counters Sample() override {
    Counters out;
    AddNodeCounters(out, *world_->server_node);
    AddServerCounters(out, *world_->server);
    for (auto& client : world_->clients) {
      AddNodeCounters(out, *client);
      AddTlsCounters(out, client->tls());
    }
    AddFabricCounters(out, *world_->fabric);
    obs_.AddTo(out, world_->server_node->observability());
    out["app.payload_bytes"] = static_cast<double>(payload_bytes_);
    return out;
  }

  void ExtraMetrics(Counters& out, const SegmentStats&) override {
    out["serve.echo_backlog_max"] = static_cast<double>(echo_.backlog_max());
    double lo = 0;
    double hi = 0;
    for (size_t i = 0; i < last_segment_clients_.size(); ++i) {
      double v = static_cast<double>(last_segment_clients_[i]);
      lo = i == 0 ? v : std::min(lo, v);
      hi = i == 0 ? v : std::max(hi, v);
    }
    out["sim_fairness"] = hi > 0 ? lo / hi : 0.0;
    world_.reset();  // one world in memory at a time
    out["sim_max_rate_at_slo"] = SearchMaxRate(seed_);
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

  // Backlog (offered, not yet echoed) — the rate search's growth check.
  uint64_t outstanding() const { return offered_ - completed_ - failed_; }

 private:
  struct Pending {
    uint64_t index = 0;
    double due_ns = 0;
    bool in_segment = false;
  };
  struct ClientState {
    std::unique_ptr<ciobase::Rng> rng;
    double next_due_ns = 0;
    uint64_t next_index = 0;
    std::deque<Pending> unsent;     // due, not yet taken by the engine
    std::deque<Pending> in_flight;  // sent, echo outstanding (FIFO)
    uint64_t segment_completed = 0;
  };

  double Gap(ClientState& c) {
    double per_client_per_ns = rate_ / static_cast<double>(kClients) / 1e9;
    return -std::log(1.0 - c.rng->NextDouble()) / per_client_per_ns;
  }

  bool Idle() const {
    if (!echo_.idle()) {
      return false;
    }
    for (const ClientState& c : clients_) {
      if (!c.unsent.empty() || !c.in_flight.empty()) {
        return false;
      }
    }
    return true;
  }

  void Fail(const Pending& p) {
    ++failed_;
    if (p.in_segment) {
      ++segment_.failed;
      segment_.latency_us.push_back(std::numeric_limits<double>::infinity());
    }
  }

  void Round(bool offer) {
    SpanScope round_span(tracer_, "harness.round");
    const uint64_t now = world_->clock.now_ns();
    for (size_t i = 0; i < kClients; ++i) {
      ClientState& c = clients_[i];
      cio::ConfidentialNode& node = *world_->clients[i];
      while (offer && c.next_due_ns <= static_cast<double>(now)) {
        c.unsent.push_back({c.next_index++, c.next_due_ns, in_segment_});
        c.next_due_ns += Gap(c);
        ++offered_;
        segment_.attempted += in_segment_ ? 1 : 0;
      }
      while (!c.unsent.empty() && node.Ready()) {
        const Pending& p = c.unsent.front();
        FillPayload(seed_, i, p.index, payload_, kMessageBytes);
        bool sent;
        {
          SpanScope span(tracer_, "engine.send", (i << 40 | p.index) + 1);
          sent = node.SendMessage(payload_).ok();
        }
        if (!sent) {
          break;
        }
        if (p.in_segment) {
          segment_.late_us.push_back(
              (static_cast<double>(now) - p.due_ns) / 1000.0);
        }
        c.in_flight.push_back(p);
        c.unsent.pop_front();
      }
      for (;;) {
        ciobase::Result<ciobase::Buffer> echo = [&] {
          SpanScope span(tracer_, "engine.receive");
          return node.ReceiveMessage();
        }();
        if (!echo.ok()) {
          break;
        }
        if (c.in_flight.empty()) {
          ++failed_;  // an echo nobody asked for
          segment_.failed += in_segment_ ? 1 : 0;
          continue;
        }
        Pending p = c.in_flight.front();
        c.in_flight.pop_front();
        if (!PayloadMatches(seed_, i, p.index, *echo, kMessageBytes)) {
          Fail(p);
          continue;
        }
        ++completed_;
        payload_bytes_ += 2 * kMessageBytes;
        if (p.in_segment) {
          ++segment_.completed;
          ++c.segment_completed;
          segment_.latency_us.push_back(
              (static_cast<double>(now) - p.due_ns) / 1000.0);
        }
      }
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
  }

  // Highest offered rate on the 5% grid meeting p99 <= 1 ms with zero
  // failures and no growing backlog, by bisection (each probe is a fresh,
  // untraced world at the same seed).
  static double SearchMaxRate(uint64_t seed) {
    int lo = -1;  // highest passing index so far
    int hi = kSearchSteps;
    while (hi - lo > 1) {
      int mid = (lo + hi) / 2;
      double rate = kSearchBaseRate * std::pow(kSearchStep, mid);
      if (ProbePasses(seed, rate)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo < 0 ? 0.0 : kSearchBaseRate * std::pow(kSearchStep, lo);
  }

  static bool ProbePasses(uint64_t seed, double rate) {
    EchoWorkload probe(seed, rate);
    if (!probe.Setup()) {
      return false;
    }
    probe.BeginSegment();
    if (!probe.RunOps(kProbeOps / 2)) {
      return false;
    }
    uint64_t backlog_mid = probe.outstanding();
    if (!probe.RunOps(kProbeOps / 2)) {
      return false;
    }
    uint64_t backlog_end = probe.outstanding();
    SegmentStats stats = probe.EndSegment();
    bool growing = static_cast<double>(backlog_end) >
                   1.25 * static_cast<double>(backlog_mid) + kClients;
    return stats.failed == 0 && !growing &&
           Percentile(stats.latency_us, 0.99) <= kSloP99Us;
  }

  uint64_t seed_;
  RoundStep step_;
  double rate_;
  Tracer* tracer_ = nullptr;
  std::unique_ptr<cioprof::ProfRegistry> prof_;
  std::unique_ptr<cioserve::MultiClientWorld> world_;
  std::vector<ClientState> clients_;
  EchoApp echo_;
  ciobase::Buffer payload_;
  bool in_segment_ = false;
  SegmentStats segment_;
  uint64_t offered_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t payload_bytes_ = 0;
  std::vector<uint64_t> last_segment_clients_;
  ObservationTotals obs_;
};

}  // namespace

std::unique_ptr<Workload> MakeEchoWorkload(uint64_t seed) {
  return std::make_unique<EchoWorkload>(seed, kFixedRate);
}

}  // namespace bench
