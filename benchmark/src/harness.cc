#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>

namespace bench {

namespace {

uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t PayloadState(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t state = seed * 0x100000001b3ULL ^ (stream << 40) ^ index;
  SplitMix(state);
  return state;
}

volatile uint64_t reference_sink = 0;

}  // namespace

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t ReferenceKernelNs() {
  constexpr size_t kWords = 1 << 19;  // 4 MiB
  constexpr size_t kBlock = 4096;
  static std::vector<uint64_t> src(kWords);
  static std::vector<uint64_t> dst(kWords);
  static std::map<uint64_t, uint64_t> table;
  table.clear();
  const uint64_t t0 = WallNs();
  // Arithmetic: an add-rotate-xor mix over the buffer (cipher-like).
  uint64_t state = 1;
  for (uint64_t& word : src) {
    uint64_t x = SplitMix(state);
    for (int round = 0; round < 4; ++round) {
      x += x << 13;
      x ^= x >> 7;
      x = (x << 17) | (x >> 47);
    }
    word = x;
  }
  // Copies in block-sized pieces.
  const auto* from = reinterpret_cast<const uint8_t*>(src.data());
  auto* to = reinterpret_cast<uint8_t*>(dst.data());
  for (size_t off = 0; off < kWords * sizeof(uint64_t); off += kBlock) {
    std::memcpy(to + off, from + off, kBlock);
  }
  // Node-based container work: inserts, lookups and erases.
  uint64_t fold = 0;
  for (size_t i = 0; i < 8192; ++i) {
    uint64_t key = dst[(i * 131) % kWords] & 0xffff;
    auto [it, fresh] = table.emplace(key, i);
    fold ^= it->second;
    if (!fresh) {
      table.erase(it);
    }
  }
  reference_sink = fold;  // keeps the work from being optimized away
  return WallNs() - t0;
}

void FillPayload(uint64_t seed, uint64_t stream, uint64_t index,
                 ciobase::Buffer& out, size_t size) {
  out.resize(size);
  uint64_t state = PayloadState(seed, stream, index);
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word = SplitMix(state);
    std::memcpy(out.data() + i, &word, 8);
  }
  if (i < size) {
    uint64_t word = SplitMix(state);
    std::memcpy(out.data() + i, &word, size - i);
  }
}

bool PayloadMatches(uint64_t seed, uint64_t stream, uint64_t index,
                    ciobase::ByteSpan got, size_t size) {
  if (got.size() != size) {
    return false;
  }
  uint64_t state = PayloadState(seed, stream, index);
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word = SplitMix(state);
    if (std::memcmp(got.data() + i, &word, 8) != 0) {
      return false;
    }
  }
  if (i < size) {
    uint64_t word = SplitMix(state);
    if (std::memcmp(got.data() + i, &word, size - i) != 0) {
      return false;
    }
  }
  return true;
}

double Percentile(std::vector<double> values_us, double q) {
  if (values_us.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values_us.size())));
  size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values_us.begin(),
                   values_us.begin() + static_cast<ptrdiff_t>(index),
                   values_us.end());
  return values_us[index];
}

void Tracer::Begin(const char* name, uint64_t request) {
  Open open;
  open.span.name = name;
  open.span.request = request;
  open.span.sim_start_ns = clock_->now_ns();
  open.span.parent = stack_.empty() ? -1 : stack_.back().kept_index;
  if (kept_.size() < kMaxKept) {
    open.kept_index = static_cast<int64_t>(kept_.size());
    kept_.push_back(open.span);
  }
  stack_.push_back(open);
  // Read the wall clock last so the bookkeeping above is not charged to
  // the span.
  stack_.back().span.wall_start_ns = WallNs();
}

void Tracer::End() {
  uint64_t wall_end = WallNs();
  Open open = stack_.back();
  stack_.pop_back();
  open.span.wall_end_ns = wall_end;
  open.span.sim_end_ns = clock_->now_ns();
  uint64_t wall = open.span.wall_end_ns - open.span.wall_start_ns;
  uint64_t sim = open.span.sim_end_ns - open.span.sim_start_ns;
  if (open.kept_index >= 0) {
    kept_[static_cast<size_t>(open.kept_index)] = open.span;
  }
  Aggregate& agg = agg_[open.span.name];
  ++agg.calls;
  agg.wall_ns += wall;
  agg.sim_ns += sim;
  agg.self_wall_ns += wall - std::min(wall, open.child_wall_ns);
  agg.self_sim_ns += sim - std::min(sim, open.child_sim_ns);
  ++seen_;
  if (!stack_.empty()) {
    stack_.back().child_wall_ns += wall;
    stack_.back().child_sim_ns += sim;
  }
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"spans_seen\": %llu, \"aggregates\": {",
               static_cast<unsigned long long>(seen_));
  bool first = true;
  for (const auto& [name, agg] : agg_) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"calls\": %llu, \"wall_ns\": %llu, "
                 "\"sim_ns\": %llu, \"self_wall_ns\": %llu, "
                 "\"self_sim_ns\": %llu}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(agg.calls),
                 static_cast<unsigned long long>(agg.wall_ns),
                 static_cast<unsigned long long>(agg.sim_ns),
                 static_cast<unsigned long long>(agg.self_wall_ns),
                 static_cast<unsigned long long>(agg.self_sim_ns));
    first = false;
  }
  std::fprintf(f, "},\n\"spans\": [");
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, "
                 "\"request\": %llu, \"wall_start_ns\": %llu, "
                 "\"wall_end_ns\": %llu, \"sim_start_ns\": %llu, "
                 "\"sim_end_ns\": %llu}",
                 i == 0 ? "" : ",", i, s.name,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.wall_start_ns),
                 static_cast<unsigned long long>(s.wall_end_ns),
                 static_cast<unsigned long long>(s.sim_start_ns),
                 static_cast<unsigned long long>(s.sim_end_ns));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void ObservationTotals::Harvest(ciohost::ObservabilityLog& log, bool keep) {
  if (keep) {
    events += log.EventCount();
    for (int c = 0; c <= static_cast<int>(ciohost::ObsCategory::kConfigField);
         ++c) {
      auto category = static_cast<ciohost::ObsCategory>(c);
      count[category] += log.CountOf(category);
    }
  }
  log.Clear();
}

void ObservationTotals::AddTo(Counters& out,
                              const ciohost::ObservabilityLog& live) const {
  double bits = 0;
  for (int c = 0; c <= static_cast<int>(ciohost::ObsCategory::kConfigField);
       ++c) {
    auto category = static_cast<ciohost::ObsCategory>(c);
    auto it = count.find(category);
    double n = static_cast<double>((it == count.end() ? 0 : it->second) +
                                   live.CountOf(category));
    double cat_bits = n * ciohost::ObsCategoryBits(category);
    std::string name(ciohost::ObsCategoryName(category));
    std::replace(name.begin(), name.end(), '-', '_');
    out["hostsim.bits." + name] = cat_bits;
    bits += cat_bits;
  }
  out["hostsim.bits"] = bits;
  out["hostsim.events"] = static_cast<double>(events + live.EventCount());
}

void AddCostSlots(Counters& out, const ciobase::CostModel& costs) {
  for (size_t i = 0; i < ciobase::kCostCounterCount; ++i) {
    auto slot = static_cast<ciobase::CostCounter>(i);
    out["cost." + std::string(ciobase::CostCounterName(slot))] +=
        static_cast<double>(costs.counter(slot));
  }
}

}  // namespace bench
