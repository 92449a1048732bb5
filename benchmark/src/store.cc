// store-mixed: one caller on a ConfidentialStore, about 70% Get / 30% Put,
// with a Flush after every 16 Puts.
//
// Keys are seeded, their count near the inode cap; values are 1-12 KiB. It
// drives blockio (journal, at-rest AEAD, hardened block ring) and no
// network. Every Get is checked against the last Put of its key.

#include <limits>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/blockio/store.h"
#include "workloads.h"

namespace bench {

namespace {

constexpr uint32_t kInodes = 64;
constexpr uint64_t kMinKeys = 56;
constexpr uint64_t kMaxKeys = 62;
constexpr uint64_t kMinValue = 1024;
constexpr uint64_t kMaxValue = 12 * 1024;
constexpr double kGetShare = 0.7;
constexpr int kPutsPerFlush = 16;
constexpr uint64_t kChunkOps = 2'000;
constexpr uint64_t kSegmentChunks = 8;

class StoreWorkload : public Workload {
 public:
  explicit StoreWorkload(uint64_t seed) : seed_(seed), rng_(seed) {}

  void EnableTracing(Tracer* tracer) override {
    tracer_ = tracer;
    prof_ = std::make_unique<cioprof::ProfRegistry>();
  }

  const ciobase::SimClock* clock() const override { return clock_.get(); }

  bool Setup() override {
    clock_ = std::make_unique<ciobase::SimClock>();
    costs_ = std::make_unique<ciobase::CostModel>(clock_.get());
    if (prof_ != nullptr) {
      prof_->Bind(clock_.get(), costs_.get());
      costs_->set_profiler(prof_.get());
    }
    memory_ = std::make_unique<ciotee::TeeMemory>();
    compartments_ =
        std::make_unique<ciotee::CompartmentManager>(costs_.get());
    ciotee::CompartmentId app = compartments_->Create("app", 1 << 20);
    ciotee::CompartmentId storage = compartments_->Create("storage", 1 << 20);
    observability_ = std::make_unique<ciohost::ObservabilityLog>();
    cioblock::ConfidentialStore::Options options;
    options.inode_count = kInodes;
    options.disk_key = ciobase::BufferFromString("disk-key-0123456789abcdef");
    options.value_key = ciobase::BufferFromString("value-key-0123456789abcd");
    store_ = std::make_unique<cioblock::ConfidentialStore>(
        memory_.get(), compartments_.get(), app, storage, costs_.get(),
        nullptr, observability_.get(), clock_.get(), options);
    if (!store_->Format().ok()) {
      return false;
    }
    keys_.assign(rng_.NextInRange(kMinKeys, kMaxKeys), Key{});
    for (size_t k = 0; k < keys_.size(); ++k) {
      keys_[k].name = "obj-" + std::to_string(seed_ % 997) + "-" +
                      std::to_string(k);
      if (!Put(k).ok()) {
        return false;
      }
    }
    if (!store_->Flush().ok()) {
      return false;
    }
    if (prof_ != nullptr) {
      prof_->Reset();
    }
    return true;
  }

  void BeginSegment() override {
    segment_ = SegmentStats{};
    segment_.sim_start_ns = clock_->now_ns();
  }

  bool RunOps(uint64_t ops) override {
    for (uint64_t i = 0; i < ops; ++i) {
      SpanScope round_span(tracer_, "harness.round");
      const uint64_t start = clock_->now_ns();
      bool ok;
      if (puts_since_flush_ == kPutsPerFlush) {
        SpanScope span(tracer_, "blockio.flush", op_id_ + 1);
        ok = store_->Flush().ok();
        puts_since_flush_ = 0;
      } else if (rng_.NextDouble() < kGetShare) {
        ok = Get(rng_.NextBounded(keys_.size()));
      } else {
        ok = Put(rng_.NextBounded(keys_.size())).ok();
        ++puts_since_flush_;
      }
      ++op_id_;
      ++segment_.attempted;
      const uint64_t end = clock_->now_ns();
      if (ok) {
        ++completed_;
        ++segment_.completed;
        segment_.latency_us.push_back(static_cast<double>(end - start) /
                                      1000.0);
      } else {
        ++segment_.failed;
        segment_.latency_us.push_back(std::numeric_limits<double>::infinity());
      }
    }
    return true;
  }

  SegmentStats EndSegment() override {
    segment_.drain_start_ns = clock_->now_ns();
    segment_.completed_before_drain = segment_.completed;
    return segment_;
  }

  uint64_t completed() const override { return completed_; }
  uint64_t chunk_ops() const override { return kChunkOps; }
  uint64_t segment_chunks() const override { return kSegmentChunks; }

  Counters Sample() override {
    Counters out;
    AddCostSlots(out, *costs_);
    const auto& ring = store_->ring_client()->stats();
    out["blockio.ring_ops"] = static_cast<double>(ring.reads + ring.writes);
    out["blockio.journal_appends"] =
        static_cast<double>(store_->fs()->stats().journal_appends);
    out["blockio.table_flushes"] =
        static_cast<double>(store_->crypt_client()->stats().table_flushes);
    out["blockio.puts"] = static_cast<double>(store_->stats().puts);
    obs_.AddTo(out, *observability_);
    out["app.payload_bytes"] = static_cast<double>(payload_bytes_);
    return out;
  }

  void ExtraMetrics(Counters&, const SegmentStats&) override {}

  void HarvestObservations() override {
    obs_.Harvest(*observability_, /*keep=*/true);
  }

  std::vector<const cioprof::ProfRegistry*> profilers() const override {
    return {prof_.get()};
  }

 private:
  struct Key {
    std::string name;
    uint64_t version = 0;
    size_t size = 0;
  };

  ciobase::Status Put(size_t k) {
    Key& key = keys_[k];
    size_t size = rng_.NextInRange(kMinValue, kMaxValue);
    FillPayload(seed_, 1000 + k, key.version + 1, value_, size);
    ciobase::Status status = [&] {
      SpanScope span(tracer_, "blockio.put", op_id_ + 1);
      return store_->Put(key.name, value_);
    }();
    if (status.ok()) {
      ++key.version;
      key.size = size;
      payload_bytes_ += size;
    }
    return status;
  }

  bool Get(size_t k) {
    const Key& key = keys_[k];
    ciobase::Result<ciobase::Buffer> got = [&] {
      SpanScope span(tracer_, "blockio.get", op_id_ + 1);
      return store_->Get(key.name);
    }();
    if (!got.ok() ||
        !PayloadMatches(seed_, 1000 + k, key.version, *got, key.size)) {
      return false;
    }
    payload_bytes_ += key.size;
    return true;
  }

  uint64_t seed_;
  ciobase::Rng rng_;
  Tracer* tracer_ = nullptr;
  std::unique_ptr<cioprof::ProfRegistry> prof_;
  std::unique_ptr<ciobase::SimClock> clock_;
  std::unique_ptr<ciobase::CostModel> costs_;
  std::unique_ptr<ciotee::TeeMemory> memory_;
  std::unique_ptr<ciotee::CompartmentManager> compartments_;
  std::unique_ptr<ciohost::ObservabilityLog> observability_;
  std::unique_ptr<cioblock::ConfidentialStore> store_;
  std::vector<Key> keys_;
  ciobase::Buffer value_;
  int puts_since_flush_ = 0;
  uint64_t op_id_ = 0;
  SegmentStats segment_;
  uint64_t completed_ = 0;
  uint64_t payload_bytes_ = 0;
  ObservationTotals obs_;
};

}  // namespace

std::unique_ptr<Workload> MakeStoreWorkload(uint64_t seed) {
  return std::make_unique<StoreWorkload>(seed);
}

}  // namespace bench
