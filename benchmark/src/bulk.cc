// bulk-16k: one dual-boundary connection (LinkedPair), 16 KiB-class messages
// one way, closed loop with a fixed window of 8 messages in flight.
//
// It bypasses the multi-tenant server entirely: AEAD bytes, copies, L5
// scatter-gather and L2/TCP segmentation dominate. Message sizes are drawn
// per seed from 15-16 KiB; the server checks each delivered message by
// content.

#include <deque>
#include <limits>

#include "net_common.h"
#include "workloads.h"

namespace bench {

namespace {

constexpr size_t kWindow = 8;
constexpr size_t kMaxBytes = 16 * 1024;
constexpr size_t kSizeSpread = 1024;
constexpr uint64_t kChunkOps = 768;
constexpr uint64_t kSegmentChunks = 8;
constexpr int kMaxRounds = 4'000'000;

class BulkWorkload : public Workload {
 public:
  explicit BulkWorkload(uint64_t seed) : seed_(seed), step_(seed) {}

  void EnableTracing(Tracer* tracer) override {
    tracer_ = tracer;
    prof_client_ = std::make_unique<cioprof::ProfRegistry>();
    prof_server_ = std::make_unique<cioprof::ProfRegistry>();
  }

  const ciobase::SimClock* clock() const override { return &pair_->clock; }

  bool Setup() override {
    cio::StackConfig client =
        cio::StackConfig::DefaultsFor(cio::StackProfile::kDualBoundary, 2);
    cio::StackConfig server =
        cio::StackConfig::DefaultsFor(cio::StackProfile::kDualBoundary, 1);
    client.seed = seed_ * 1000 + 7;
    server.seed = seed_ * 1000;
    client.profiler = prof_client_.get();
    server.profiler = prof_server_.get();
    pair_ = std::make_unique<cio::LinkedPair>(client, server);
    if (!pair_->Establish()) {
      return false;
    }
    for (cioprof::ProfRegistry* prof : {prof_client_.get(), prof_server_.get()}) {
      if (prof != nullptr) {
        prof->Reset();
      }
    }
    return true;
  }

  void BeginSegment() override {
    segment_ = SegmentStats{};
    segment_.sim_start_ns = pair_->clock.now_ns();
    issuing_ = true;
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
    segment_.drain_start_ns = pair_->clock.now_ns();
    segment_.completed_before_drain = segment_.completed;
    for (int round = 0; round < kMaxRounds && !in_flight_.empty(); ++round) {
      Round();
    }
    for (const Pending& p : in_flight_) {
      Fail(p);
    }
    in_flight_.clear();
    return segment_;
  }

  uint64_t completed() const override { return completed_; }
  uint64_t chunk_ops() const override { return kChunkOps; }
  uint64_t segment_chunks() const override { return kSegmentChunks; }

  Counters Sample() override {
    Counters out;
    for (cio::ConfidentialNode* node : {pair_->client.get(), pair_->server.get()}) {
      AddNodeCounters(out, *node);
      AddTlsCounters(out, node->tls());
    }
    AddFabricCounters(out, *pair_->fabric);
    obs_.AddTo(out, pair_->server->observability());
    out["app.payload_bytes"] = static_cast<double>(payload_bytes_);
    return out;
  }

  void ExtraMetrics(Counters&, const SegmentStats&) override {}

  void HarvestObservations() override {
    obs_.Harvest(pair_->server->observability(), /*keep=*/true);
    obs_.Harvest(pair_->client->observability(), /*keep=*/false);
  }

  std::vector<const cioprof::ProfRegistry*> profilers() const override {
    return {prof_client_.get(), prof_server_.get()};
  }

 private:
  struct Pending {
    uint64_t index = 0;
    size_t size = 0;
    uint64_t submit_ns = 0;
    bool in_segment = false;
  };

  size_t SizeOf(uint64_t index) const {
    ciobase::Buffer word;
    FillPayload(seed_, /*stream=*/1, index, word, 8);
    uint64_t r = 0;
    for (uint8_t b : word) {
      r = r << 8 | b;
    }
    return kMaxBytes - static_cast<size_t>(r % kSizeSpread);
  }

  void Fail(const Pending& p) {
    ++failed_;
    if (p.in_segment) {
      ++segment_.failed;
      segment_.latency_us.push_back(std::numeric_limits<double>::infinity());
    }
  }

  void Round() {
    SpanScope round_span(tracer_, "harness.round");
    cio::ConfidentialNode& client = *pair_->client;
    cio::ConfidentialNode& server = *pair_->server;
    while (issuing_ && in_flight_.size() < kWindow && client.Ready()) {
      Pending p{next_index_, SizeOf(next_index_), pair_->clock.now_ns(), true};
      FillPayload(seed_, 0, p.index, payload_, p.size);
      bool sent;
      {
        SpanScope span(tracer_, "engine.send", p.index + 1);
        sent = client.SendMessage(payload_).ok();
      }
      if (!sent) {
        break;
      }
      ++next_index_;
      ++segment_.attempted;
      in_flight_.push_back(p);
    }
    for (;;) {
      ciobase::Result<ciobase::Buffer> got = [&] {
        SpanScope span(tracer_, "engine.receive");
        return server.ReceiveMessage();
      }();
      if (!got.ok()) {
        break;
      }
      if (in_flight_.empty()) {
        ++failed_;
        ++segment_.failed;
        continue;
      }
      Pending p = in_flight_.front();
      in_flight_.pop_front();
      if (!PayloadMatches(seed_, 0, p.index, *got, p.size)) {
        Fail(p);
        continue;
      }
      const uint64_t now = pair_->clock.now_ns();
      ++completed_;
      payload_bytes_ += p.size;
      ++segment_.completed;
      segment_.latency_us.push_back(
          static_cast<double>(now - p.submit_ns) / 1000.0);
    }
    {
      SpanScope span(tracer_, "engine.poll");
      client.Poll();
    }
    {
      SpanScope span(tracer_, "engine.poll");
      server.Poll();
    }
    pair_->clock.Advance(step_.Next());
  }

  uint64_t seed_;
  RoundStep step_;
  Tracer* tracer_ = nullptr;
  std::unique_ptr<cioprof::ProfRegistry> prof_client_;
  std::unique_ptr<cioprof::ProfRegistry> prof_server_;
  std::unique_ptr<cio::LinkedPair> pair_;
  std::deque<Pending> in_flight_;
  ciobase::Buffer payload_;
  bool issuing_ = false;
  SegmentStats segment_;
  uint64_t next_index_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t payload_bytes_ = 0;
  ObservationTotals obs_;
};

}  // namespace

std::unique_ptr<Workload> MakeBulkWorkload(uint64_t seed) {
  return std::make_unique<BulkWorkload>(seed);
}

}  // namespace bench
