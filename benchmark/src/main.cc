// cio_bench: the end-to-end benchmark of the dual-boundary stack.
//
//   cio_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// --trace 0 (timed run): set up the world several times (median = setup_s,
// scaled like the wall rate), run one deterministic segment of fixed size
// that yields the simulated-clock metrics, then more chunks up to a fixed
// total that takes about --seconds; the wall rate covers every chunk, in ops
// per reference-kernel time (see WallSamples). Tracing is off.
//
// --trace 1 (traced run): one untraced segment, then the same segment on a
// fresh world with spans around every benchmark call into serve / engine /
// blockio and src/prof registries bound to the nodes. The traced segment must
// reproduce the untraced segment's simulated metrics exactly; the per-layer
// metrics come from it, and the spans go to --trace-dir.
//
// Every metric is printed as "name = value unit"; the last line of stdout is
// one JSON object {correct, attempted, failed, metrics}. Outputs are checked
// as they arrive (echoes byte for byte, Gets against the last Put, bulk
// messages by content); any mismatch or lost op is counted as failed and
// makes the run incorrect.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"
#include "src/crypto/aead.h"
#include "workloads.h"

namespace bench {
namespace {

// Set-up is repeated at least kSetupMinRepeats times and, for worlds that
// build in milliseconds, until kSetupBudgetS is spent (at most
// kSetupMaxRepeats times): the median of a handful of 10 ms set-ups moved by
// 47% between runs.
constexpr size_t kSetupMinRepeats = 5;
// Set-up seconds are scaled like the wall rate (see WallSamples): to a
// machine on which the reference kernel takes this long, a typical time on
// a 4-core x86 VM in a quiet phase.
constexpr double kReferenceNominalNs = 5e6;
constexpr size_t kSetupMaxRepeats = 50;
constexpr double kSetupBudgetS = 2.0;
// A timed run does a fixed amount of work: --seconds x kChunksPerSecond
// chunks, each sized to take about a quarter second on a 4-core x86 VM. The
// work, not the elapsed time, is what parent and change must share: a world
// whose per-op cost drifts as it ages is then timed over the same ops.
constexpr double kChunksPerSecond = 4;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// JSON has no infinity: a latency or recovery that never ended reads 1e18.
double Finite(double v) { return std::isfinite(v) ? v : 1e18; }

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", Finite(v));
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-44s = %s %s\n", m.name.c_str(), Fmt(m.value).c_str(),
                m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            Fmt(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Wall-clock samples, one per chunk. A fixed reference kernel runs just
// before and just after each chunk; the wall rate is reported in ops per
// reference-kernel time, over all chunks: total ops x mean kernel time /
// total chunk time. A program change moves the chunk time and not the kernel
// time; a host that slows this VM moves both, and most of it cancels (the
// raw rate's median moved by up to 40% between runs minutes apart).
struct WallSamples {
  double ops = 0;
  double chunk_ns = 0;
  std::vector<double> raw_per_s;  // per chunk, for the log
  std::vector<double> ref_ns;     // per chunk

  double RawPerS() const { return chunk_ns > 0 ? ops * 1e9 / chunk_ns : 0; }
  double MeanRefNs() const {
    double sum = 0;
    for (double r : ref_ns) sum += r;
    return ref_ns.empty() ? 0 : sum / static_cast<double>(ref_ns.size());
  }
  double PerRef() const { return chunk_ns > 0 ? ops * MeanRefNs() / chunk_ns : 0; }
};

bool TimeChunk(Workload& w, WallSamples& wall) {
  const double ref_before = static_cast<double>(ReferenceKernelNs());
  const uint64_t done = w.completed();
  const uint64_t t0 = WallNs();
  const bool ok = w.RunOps(w.chunk_ops());
  const double dt = static_cast<double>(WallNs() - t0);
  const double ref = (ref_before + static_cast<double>(ReferenceKernelNs())) / 2;
  const double ops = static_cast<double>(w.completed() - done);
  wall.ops += ops;
  wall.chunk_ns += dt;
  wall.raw_per_s.push_back(ops * 1e9 / dt);
  wall.ref_ns.push_back(ref);
  w.HarvestObservations();
  return ok;
}

// The deterministic segment: segment_chunks() chunks of chunk_ops() ops,
// then a drain.
struct SegmentRun {
  SegmentStats stats;
  Counters before;
  Counters after;
  WallSamples wall;  // chunks only, drain excluded
  bool ok = true;
};

SegmentRun RunSegment(Workload& w) {
  SegmentRun run;
  w.HarvestObservations();
  run.before = w.Sample();
  w.BeginSegment();
  for (uint64_t c = 0; c < w.segment_chunks(); ++c) {
    run.ok &= TimeChunk(w, run.wall);
  }
  run.stats = w.EndSegment();
  w.HarvestObservations();
  run.after = w.Sample();
  return run;
}

// The simulated-clock end-to-end metrics of one segment, as exact strings
// (the traced run must reproduce them byte for byte).
std::vector<Metric> SimMetrics(const SegmentRun& run) {
  const SegmentStats& s = run.stats;
  double sim_s = static_cast<double>(s.drain_start_ns - s.sim_start_ns) / 1e9;
  double ops = static_cast<double>(std::max<uint64_t>(s.completed, 1));
  return {
      {"sim_ops_per_s",
       sim_s > 0 ? static_cast<double>(s.completed_before_drain) / sim_s : 0,
       "1/s"},
      {"sim_p50_us", Percentile(s.latency_us, 0.50), "us"},
      {"sim_p99_us", Percentile(s.latency_us, 0.99), "us"},
      {"host_bits_per_op",
       (run.after.at("hostsim.bits") - run.before.at("hostsim.bits")) / ops,
       "bits"},
  };
}

double Delta(const SegmentRun& run, const std::string& name) {
  auto a = run.after.find(name);
  auto b = run.before.find(name);
  double after = a == run.after.end() ? 0 : a->second;
  double before = b == run.before.end() ? 0 : b->second;
  return after - before;
}

// Wall ns per byte of ChaCha20-Poly1305 seal or open at `record` bytes per
// call: best of five passes over at least 4 MiB.
double AeadNsPerByte(size_t record, bool open) {
  record = std::max<size_t>(record, 16);
  ciobase::Buffer key(ciocrypto::kAeadKeySize, 0x11);
  ciobase::Buffer nonce(ciocrypto::kAeadNonceSize, 0x22);
  ciobase::Buffer aad(13, 0x33);
  ciobase::Buffer plain(record, 0x44);
  ciobase::Buffer sealed = ciocrypto::AeadSeal(key, nonce, aad, plain);
  ciobase::Buffer out;
  out.reserve(record + ciocrypto::kAeadTagSize);
  size_t calls = std::max<size_t>(1, (4u << 20) / record);
  double best = 0;
  for (int pass = 0; pass < 5; ++pass) {
    uint64_t t0 = WallNs();
    for (size_t i = 0; i < calls; ++i) {
      out.clear();
      if (open) {
        (void)ciocrypto::AeadOpenInto(key, nonce, aad, sealed, out);
      } else {
        ciocrypto::AeadSealInto(key, nonce, aad, plain, out);
      }
    }
    double ns = static_cast<double>(WallNs() - t0) /
                static_cast<double>(calls * record);
    best = pass == 0 ? ns : std::min(best, ns);
  }
  return best;
}

// The per-layer metrics, in BENCHMARK.json order. Every workload reports
// every name; a layer the workload does not reach reads 0.
std::vector<Metric> LayerMetrics(Workload& w, const SegmentRun& traced,
                                 const SegmentRun& untraced,
                                 const Tracer& tracer) {
  const double ops =
      static_cast<double>(std::max<uint64_t>(traced.stats.completed, 1));
  auto per_op = [&](const std::string& name) { return Delta(traced, name) / ops; };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto& agg = tracer.aggregates();
  auto span = [&](const char* name) {
    auto it = agg.find(name);
    return it == agg.end() ? Tracer::Aggregate{} : it->second;
  };
  auto self_sim = [&](const char* name) {
    Tracer::Aggregate a = span(name);
    return ratio(static_cast<double>(a.self_sim_ns), static_cast<double>(a.calls));
  };
  auto self_wall = [&](const char* name) {
    Tracer::Aggregate a = span(name);
    return ratio(static_cast<double>(a.self_wall_ns), static_cast<double>(a.calls));
  };

  Counters extra;
  w.ExtraMetrics(extra, traced.stats);
  auto ex = [&](const char* name) {
    auto it = extra.find(name);
    return it == extra.end() ? 0.0 : it->second;
  };

  std::vector<Metric> m = {
      {"serve.poll_sim_ns", self_sim("serve.poll"), "ns"},
      {"serve.poll_wall_ns", self_wall("serve.poll"), "ns"},
      {"serve.send_wall_ns", self_wall("serve.send"), "ns"},
      {"serve.receive_wall_ns", self_wall("serve.receive"), "ns"},
      {"serve.polls_per_op", static_cast<double>(span("serve.poll").calls) / ops,
       "count"},
      {"serve.echo_backlog_max", ex("serve.echo_backlog_max"), "count"},
      {"serve.send_queue_rejections", Delta(traced, "serve.send_queue_rejections"),
       "count"},
      {"serve.accepted", Delta(traced, "serve.accepted"), "count"},
      {"serve.recovered", Delta(traced, "serve.recovered"), "count"},
      {"serve.rejected_admission", Delta(traced, "serve.rejected_admission"),
       "count"},
      // Cumulative since set-up: churn's probes are refused there.
      {"serve.rejected_unauthenticated",
       traced.after.count("serve.rejected_unauthenticated")
           ? traced.after.at("serve.rejected_unauthenticated") : 0.0,
       "count"},
      {"engine.send_wall_ns", self_wall("engine.send"), "ns"},
      {"engine.receive_wall_ns", self_wall("engine.receive"), "ns"},
      {"engine.poll_wall_ns", self_wall("engine.poll"), "ns"},
      {"engine.poll_sim_ns", self_sim("engine.poll"), "ns"},
      {"engine.reconnects", Delta(traced, "engine.reconnects"), "count"},
      {"engine.tls_restarts", Delta(traced, "engine.tls_restarts"), "count"},
      {"engine.messages_resent", Delta(traced, "engine.messages_resent"), "count"},
      {"engine.duplicates_dropped", Delta(traced, "engine.duplicates_dropped"),
       "count"},
      {"engine.messages_lost", Delta(traced, "engine.messages_lost"), "count"},
      {"l5.crossings_per_op", per_op("l5.crossings"), "count"},
      {"l5.doorbells_per_op", per_op("l5.doorbells"), "count"},
      {"l5.sq_per_doorbell",
       ratio(Delta(traced, "l5.sq_submitted"), Delta(traced, "l5.doorbells")),
       "count"},
      {"l5.cq_completions_per_op", per_op("l5.cq_completions"), "count"},
      {"l5.receive_copies_per_op", per_op("l5.receive_copies"), "count"},
      {"l5.sq_backpressure", Delta(traced, "l5.sq_backpressure"), "count"},
      {"l5.cq_stale_dropped", Delta(traced, "l5.cq_stale_dropped"), "count"},
      {"l2.tx_ring_full", Delta(traced, "l2.tx_ring_full"), "count"},
      {"l2.watchdog_fires", Delta(traced, "l2.watchdog_fires"), "count"},
      {"l2.ring_resets", Delta(traced, "l2.ring_resets"), "count"},
      {"l2.frames_sent_per_op", per_op("l2.frames_sent"), "count"},
      {"l2.frames_received_per_op", per_op("l2.frames_received"), "count"},
      {"net.fabric_frames_per_op", per_op("net.frames_routed"), "count"},
      {"net.goodput_ratio",
       ratio(Delta(traced, "app.payload_bytes"), Delta(traced, "net.bytes_routed")),
       "ratio"},
      {"tls.records_sealed_per_op", per_op("tls.records_sealed"), "count"},
      {"tls.records_opened_per_op", per_op("tls.records_opened"), "count"},
      {"tls.bytes_protected_per_op", per_op("tls.bytes_protected"), "B"},
      {"tls.key_updates", Delta(traced, "tls.key_updates"), "count"},
  };

  // AEAD on the record (network) or block (store) sizes the workload made.
  double tls_bytes = Delta(traced, "tls.bytes_protected");
  double tls_records = Delta(traced, "tls.records_sealed");
  double aead_bytes = Delta(traced, "cost.bytes_aead");
  double aead_ops = Delta(traced, "cost.aead_ops");
  size_t record = tls_records > 0 ? static_cast<size_t>(tls_bytes / tls_records)
                  : aead_ops > 0  ? static_cast<size_t>(aead_bytes / aead_ops)
                                  : 4096;
  double seal = AeadNsPerByte(record, /*open=*/false);
  double open = AeadNsPerByte(record, /*open=*/true);
  // Network: every protected byte is sealed once and opened once.
  double crypto_ns = tls_bytes > 0 ? tls_bytes * (seal + open)
                                   : aead_bytes * (seal + open) / 2;
  m.push_back({"crypto.aead_seal_ns_per_byte", seal, "ns/B"});
  m.push_back({"crypto.aead_open_ns_per_byte", open, "ns/B"});
  m.push_back({"crypto.aead_wall_share",
               ratio(crypto_ns, untraced.wall.chunk_ns), "ratio"});

  for (size_t i = 0; i < ciobase::kCostCounterCount; ++i) {
    std::string slot(ciobase::CostCounterName(static_cast<ciobase::CostCounter>(i)));
    m.push_back({"cost." + slot + "_per_op", per_op("cost." + slot), "count"});
  }

  double puts = Delta(traced, "blockio.puts");
  m.push_back({"blockio.put_sim_ns", self_sim("blockio.put"), "ns"});
  m.push_back({"blockio.get_sim_ns", self_sim("blockio.get"), "ns"});
  m.push_back({"blockio.flush_sim_ns", self_sim("blockio.flush"), "ns"});
  m.push_back({"blockio.put_wall_ns", self_wall("blockio.put"), "ns"});
  m.push_back({"blockio.get_wall_ns", self_wall("blockio.get"), "ns"});
  m.push_back({"blockio.flush_wall_ns", self_wall("blockio.flush"), "ns"});
  m.push_back({"blockio.ring_ops_per_op", per_op("blockio.ring_ops"), "count"});
  m.push_back({"blockio.journal_appends_per_put",
               ratio(Delta(traced, "blockio.journal_appends"), puts), "count"});
  m.push_back({"blockio.table_flushes", Delta(traced, "blockio.table_flushes"),
               "count"});

  m.push_back({"hostsim.events_per_op", per_op("hostsim.events"), "count"});
  for (const auto& [name, value] : traced.after) {
    if (name.rfind("hostsim.bits.", 0) == 0) {
      m.push_back({"hostsim.bits_per_op." + name.substr(13), per_op(name), "bits"});
    }
  }

  m.push_back({"gen.late_p99_us",
               traced.stats.late_us.empty()
                   ? 0.0 : Percentile(traced.stats.late_us, 0.99),
               "us"});
  Tracer::Aggregate round = span("harness.round");
  m.push_back({"gen.wall_share",
               ratio(static_cast<double>(round.self_wall_ns),
                     static_cast<double>(round.wall_ns)),
               "ratio"});

  // src/prof self sim-time per op, folded by the layer a probe names.
  const char* kLayers[] = {"server", "engine", "session", "aead",
                           "l5",     "l2",     "tcp",     "virtio"};
  std::map<std::string, double> layer_ns;
  for (const cioprof::ProfRegistry* prof : w.profilers()) {
    if (prof == nullptr) continue;
    for (const cioprof::ProbeRow& row : prof->Rows()) {
      std::string leaf = row.path.substr(row.path.rfind('/') + 1);
      layer_ns[leaf.substr(0, leaf.find('.'))] += static_cast<double>(row.self_ns);
    }
  }
  for (const char* layer : kLayers) {
    m.push_back({std::string("prof.") + layer + ".self_sim_ns_per_op",
                 layer_ns[layer] / ops, "ns"});
  }

  m.push_back({"wall.raw_ops_per_s", untraced.wall.RawPerS(), "1/s"});
  m.push_back({"wall.ref_kernel_ms", untraced.wall.MeanRefNs() / 1e6, "ms"});
  m.push_back({"trace.wall_overhead",
               untraced.wall.PerRef() / traced.wall.PerRef() - 1.0, "ratio"});
  m.push_back({"trace.spans", static_cast<double>(tracer.spans_seen()), "count"});
  m.push_back({"workload.sim_max_rate_at_slo", ex("sim_max_rate_at_slo"), "1/s"});
  m.push_back({"workload.sim_fairness", ex("sim_fairness"), "ratio"});
  m.push_back({"workload.sim_recovery_ms", ex("sim_recovery_ms"), "ms"});
  m.push_back({"workload.sim_stall_recovery_ms", ex("sim_stall_recovery_ms"), "ms"});
  return m;
}

int Usage() {
  std::fprintf(stderr,
               "usage: cio_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\nworkloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int RunTimed(const Options& opt) {
  std::vector<double> setup_s;
  std::vector<double> setup_raw_s;
  double setup_total_s = 0;
  std::unique_ptr<Workload> w;
  while (setup_s.size() < kSetupMinRepeats ||
         (setup_s.size() < kSetupMaxRepeats && setup_total_s < kSetupBudgetS)) {
    w.reset();  // one world in memory at a time
    w = MakeWorkload(opt.workload, opt.seed);
    const double ref_before = static_cast<double>(ReferenceKernelNs());
    const uint64_t t0 = WallNs();
    if (!w->Setup()) {
      std::fprintf(stderr, "set-up failed\n");
      return 1;
    }
    const double raw_s = static_cast<double>(WallNs() - t0) / 1e9;
    const double ref =
        (ref_before + static_cast<double>(ReferenceKernelNs())) / 2;
    setup_raw_s.push_back(raw_s);
    setup_s.push_back(raw_s * kReferenceNominalNs / ref);
    setup_total_s += raw_s;
  }
  std::printf("set-up s (raw):");
  for (double t : setup_raw_s) {
    std::printf(" %.4f", t);
  }
  std::printf("\n");

  const uint64_t start = WallNs();
  SegmentRun seg = RunSegment(*w);
  // More chunks, for the wall clock only; their simulated latencies are not
  // reported (the segment above is the fixed sample).
  WallSamples wall = seg.wall;
  const uint64_t total_chunks = std::max<uint64_t>(
      w->segment_chunks() + 1,
      static_cast<uint64_t>(std::llround(opt.seconds * kChunksPerSecond)));
  w->BeginSegment();
  bool ok = seg.ok;
  while (wall.raw_per_s.size() < total_chunks) {
    ok &= TimeChunk(*w, wall);
  }
  SegmentStats tail = w->EndSegment();

  std::vector<Metric> metrics = SimMetrics(seg);
  metrics.push_back({"wall_ops_per_ref", wall.PerRef(), "ops"});
  metrics.push_back({"setup_s", Median(setup_s), "s"});
  metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  std::printf("wall ops/s per chunk:");
  for (double r : wall.raw_per_s) {
    std::printf(" %.0f", r);
  }
  std::printf("\nreference kernel us per chunk:");
  for (double r : wall.ref_ns) {
    std::printf(" %.0f", r / 1e3);
  }
  std::printf("\nraw wall ops/s = %.1f, reference kernel (mean) = %.3f ms\n",
              wall.RawPerS(), wall.MeanRefNs() / 1e6);
  std::printf("segment: %llu ops (%llu failed), %zu wall chunks, %.2f s\n",
              static_cast<unsigned long long>(seg.stats.attempted),
              static_cast<unsigned long long>(seg.stats.failed),
              wall.raw_per_s.size(),
              static_cast<double>(WallNs() - start) / 1e9);
  uint64_t attempted = seg.stats.attempted + tail.attempted;
  uint64_t failed = seg.stats.failed + tail.failed;
  PrintResult(ok && failed == 0, attempted, failed, metrics);
  return 0;
}

int RunTraced(const Options& opt) {
  SegmentRun untraced;
  {
    std::unique_ptr<Workload> w = MakeWorkload(opt.workload, opt.seed);
    if (!w->Setup()) {
      std::fprintf(stderr, "set-up failed\n");
      return 1;
    }
    untraced = RunSegment(*w);
  }

  Tracer tracer;
  std::unique_ptr<Workload> w = MakeWorkload(opt.workload, opt.seed);
  w->EnableTracing(&tracer);
  if (!w->Setup()) {
    std::fprintf(stderr, "set-up failed\n");
    return 1;
  }
  tracer.Start(w->clock());
  SegmentRun traced = RunSegment(*w);

  // The profiler and the spans observe the simulation and never charge it:
  // the traced segment must reproduce the untraced one exactly.
  std::vector<Metric> sim_a = SimMetrics(untraced);
  std::vector<Metric> sim_b = SimMetrics(traced);
  bool same = untraced.stats.latency_us == traced.stats.latency_us &&
              untraced.stats.sim_start_ns == traced.stats.sim_start_ns &&
              untraced.stats.drain_start_ns == traced.stats.drain_start_ns;
  for (size_t i = 0; i < sim_a.size(); ++i) {
    std::printf("untraced %-16s = %s | traced = %s\n", sim_a[i].name.c_str(),
                Fmt(sim_a[i].value).c_str(), Fmt(sim_b[i].value).c_str());
    same &= Fmt(sim_a[i].value) == Fmt(sim_b[i].value);
  }
  if (!same) {
    std::printf("traced run diverged from the untraced run\n");
  }
  std::vector<Metric> metrics =
      LayerMetrics(*w, traced, untraced, tracer);

  std::error_code ec;
  std::filesystem::create_directories(opt.trace_dir, ec);
  std::string base = opt.trace_dir + "/" + opt.workload + "-seed" +
                     std::to_string(opt.seed);
  if (!tracer.WriteJson(base + ".spans.json")) {
    std::fprintf(stderr, "cannot write %s.spans.json\n", base.c_str());
  }
  std::string prof_json = "[";
  bool first = true;
  for (const cioprof::ProfRegistry* prof : w->profilers()) {
    if (prof != nullptr) {
      prof->AppendJsonRows(&prof_json, "dual-boundary", opt.workload, &first);
    }
  }
  prof_json += "\n]\n";
  if (std::FILE* f = std::fopen((base + ".prof.json").c_str(), "w")) {
    std::fwrite(prof_json.data(), 1, prof_json.size(), f);
    std::fclose(f);
  }
  std::printf("spans: %s.spans.json, probes: %s.prof.json\n", base.c_str(),
              base.c_str());
  for (const auto& [name, a] : tracer.aggregates()) {
    std::printf("span %-18s calls %10llu  self wall %12llu ns  self sim %12llu ns\n",
                name.c_str(), static_cast<unsigned long long>(a.calls),
                static_cast<unsigned long long>(a.self_wall_ns),
                static_cast<unsigned long long>(a.self_sim_ns));
  }

  uint64_t attempted = untraced.stats.attempted + traced.stats.attempted;
  uint64_t failed = untraced.stats.failed + traced.stats.failed;
  PrintResult(same && untraced.ok && traced.ok && failed == 0, attempted,
              failed, metrics);
  return 0;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"echo-64c-512b", "bulk-16k", "store-mixed", "churn-fault"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "echo-64c-512b") return MakeEchoWorkload(seed);
  if (name == "bulk-16k") return MakeBulkWorkload(seed);
  if (name == "store-mixed") return MakeStoreWorkload(seed);
  if (name == "churn-fault") return MakeChurnWorkload(seed);
  return nullptr;
}

}  // namespace bench

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its default (128 KiB). Left dynamic, it
  // rises after the first worlds are freed, and later set-ups reuse mapped
  // memory: a bulk-16k set-up fell from 12 ms to 1 ms after the 17th, so the
  // median of repeated set-ups measured the allocator, not the program.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  bench::Options opt;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      return bench::Usage();
    }
  }
  if (!have_workload || bench::MakeWorkload(opt.workload, opt.seed) == nullptr) {
    return bench::Usage();
  }
  return opt.trace ? bench::RunTraced(opt) : bench::RunTimed(opt);
}
