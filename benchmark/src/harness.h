// Shared machinery of the end-to-end benchmark (cio_bench): the workload
// interface, op accounting on both clocks, span tracing around every call the
// benchmark makes into serve / engine / blockio, and the result report.
//
// The benchmark drives the dual-boundary stack from the outside, through
// public APIs only. Every number it reports is derived here from three
// sources: the simulated clock (modeled boundary cost, deterministic per
// seed), the wall clock (real CPU work), and counters the program exposes
// through public accessors.

#ifndef BENCHMARK_SRC_HARNESS_H_
#define BENCHMARK_SRC_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/clock.h"
#include "src/hostsim/observability.h"
#include "src/prof/profiler.h"

namespace bench {

// Named raw counters sampled from the program (cumulative). Per-layer
// metrics are differences of two samples divided by the ops in between.
using Counters = std::map<std::string, double>;

inline uint64_t WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double PeakRssMb();

// Wall ns of a fixed reference kernel that uses no code of the program: a
// seeded fill, copy and fold of 8 MiB. A probe of how fast this machine runs
// right now. (A random walk over 32 MiB added to it tracked the workloads
// worse, not better.)
uint64_t ReferenceKernelNs();

// Deterministic payload bytes for (seed, stream, index): the generator and
// the output check both call this, so a delivered message can be compared
// byte for byte without keeping a copy of what was sent.
void FillPayload(uint64_t seed, uint64_t stream, uint64_t index,
                 ciobase::Buffer& out, size_t size);
bool PayloadMatches(uint64_t seed, uint64_t stream, uint64_t index,
                    ciobase::ByteSpan got, size_t size);

// Nearest-rank percentile over latencies in microseconds; a failed op is
// recorded as +infinity (it misses every latency limit).
double Percentile(std::vector<double> values_us, double q);

// --- Tracing -----------------------------------------------------------------

// One span per call the benchmark makes into the program (plus one root span
// per simulation round). Spans are kept in memory, up to kMaxKept, and
// written out when the run ends; per-name aggregates cover every span.
struct Span {
  const char* name = nullptr;
  uint64_t wall_start_ns = 0;
  uint64_t wall_end_ns = 0;
  uint64_t sim_start_ns = 0;
  uint64_t sim_end_ns = 0;
  int64_t parent = -1;   // index into the kept spans, -1 for a root
  uint64_t request = 0;  // op id the call served (0 = not op-specific)
};

class Tracer {
 public:
  static constexpr size_t kMaxKept = 50'000;

  // Spans are recorded once the tracer is started on the world's clock
  // (after set-up, so set-up calls are not traced).
  void Start(const ciobase::SimClock* clock) { clock_ = clock; }
  bool active() const { return clock_ != nullptr; }

  void Begin(const char* name, uint64_t request);
  void End();

  struct Aggregate {
    uint64_t calls = 0;
    uint64_t wall_ns = 0;       // inclusive
    uint64_t sim_ns = 0;        // inclusive
    uint64_t self_wall_ns = 0;  // minus the time of child spans
    uint64_t self_sim_ns = 0;
  };
  const std::map<std::string, Aggregate>& aggregates() const { return agg_; }
  uint64_t spans_seen() const { return seen_; }
  // Writes the kept spans and the aggregates as JSON.
  bool WriteJson(const std::string& path) const;

 private:
  struct Open {
    Span span;
    int64_t kept_index = -1;
    uint64_t child_wall_ns = 0;
    uint64_t child_sim_ns = 0;
  };
  const ciobase::SimClock* clock_ = nullptr;
  std::vector<Span> kept_;
  std::vector<Open> stack_;
  std::map<std::string, Aggregate> agg_;
  uint64_t seen_ = 0;
};

// RAII span; free when the tracer is null (untraced runs) or not started.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, uint64_t request = 0) {
    if (tracer != nullptr && tracer->active()) {
      tracer_ = tracer;
      tracer_->Begin(name, request);
    }
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_ = nullptr;
};

// --- Op accounting -------------------------------------------------------------

// What one measured segment produced. Latencies are simulated microseconds,
// one per op (failed ops as +infinity).
struct SegmentStats {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t sim_start_ns = 0;
  // When issuing stopped, and ops completed by then: the throughput window
  // (the drain that follows only finishes stragglers).
  uint64_t drain_start_ns = 0;
  uint64_t completed_before_drain = 0;
  std::vector<double> latency_us;
  // Open loop only: how late each op was offered after its due time.
  std::vector<double> late_us;
};

// --- Workloads ---------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the world: nodes, sessions or a formatted store. Timed as set-up.
  virtual bool Setup() = 0;
  // Attaches a tracer (spans) and binds src/prof registries to the nodes.
  // Called before Setup() on the traced run only.
  virtual void EnableTracing(Tracer* tracer) = 0;
  // The world's simulated clock (valid after Setup()).
  virtual const ciobase::SimClock* clock() const = 0;

  // Starts a segment: ops issued from now on are accounted to it.
  virtual void BeginSegment() = 0;
  // Issues work until `ops` more ops have been offered (open loop) or
  // completed (closed loop). Returns false if the world stalled.
  virtual bool RunOps(uint64_t ops) = 0;
  // Stops issuing, completes every outstanding op of the segment, and
  // returns the segment's accounting. Issuing resumes at the next
  // BeginSegment().
  virtual SegmentStats EndSegment() = 0;

  // Ops completed so far, over every segment (wall-rate numerator).
  virtual uint64_t completed() const = 0;
  // Ops per chunk (one wall-clock sample) and chunks in the deterministic
  // segment that yields the simulated metrics.
  virtual uint64_t chunk_ops() const = 0;
  virtual uint64_t segment_chunks() const = 0;

  // Cumulative counters from the program's public accessors.
  virtual Counters Sample() = 0;
  // Workload-specific metrics (fairness, recovery, rate search), named
  // without a prefix; only computed on the traced run, as the last call that
  // needs the world (the rate search releases it to build its own).
  virtual void ExtraMetrics(Counters& out, const SegmentStats& segment) = 0;
  // Moves each node's host observation log into cumulative counters and
  // clears it, so the log does not grow with the run.
  virtual void HarvestObservations() = 0;
  // Profiler registries bound to the nodes (traced run only).
  virtual std::vector<const cioprof::ProfRegistry*> profilers() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);
std::vector<std::string> WorkloadNames();

// Host-visible leakage accumulator shared by the network workloads.
struct ObservationTotals {
  uint64_t events = 0;
  std::map<ciohost::ObsCategory, uint64_t> count;

  void Harvest(ciohost::ObservabilityLog& log, bool keep);
  void AddTo(Counters& out, const ciohost::ObservabilityLog& live) const;
};

// Adds "cost.<slot>" for every CostModel slot.
void AddCostSlots(Counters& out, const ciobase::CostModel& costs);

}  // namespace bench

#endif  // BENCHMARK_SRC_HARNESS_H_
