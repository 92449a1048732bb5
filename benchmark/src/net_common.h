// Counter sampling shared by the network workloads: everything a
// ConfidentialNode, a ConfidentialServer and the fabric expose through
// public accessors, folded into bench::Counters under layer-prefixed names.

#ifndef BENCHMARK_SRC_NET_COMMON_H_
#define BENCHMARK_SRC_NET_COMMON_H_

#include <deque>

#include "harness.h"
#include "src/base/rng.h"
#include "src/cio/engine.h"
#include "src/net/fabric.h"
#include "src/serve/server.h"
#include "src/tls/session.h"

namespace bench {

// Simulated time between two poll rounds: uniform in [9, 11] us, drawn from
// the seed (mean 10 us, the fixed step of MultiClientWorld::Pump and
// LinkedPair::Pump). A fixed step puts a closed loop in lockstep, where every
// latency is the same multiple of the step whatever the inputs; the seeded
// step lets each seed give distinct simulated timings.
class RoundStep {
 public:
  explicit RoundStep(uint64_t seed) : rng_(seed ^ 0x5bd1e9955bd1e995ULL) {}
  uint64_t Next() { return rng_.NextInRange(9'000, 11'000); }

 private:
  ciobase::Rng rng_;
};

// The echo application of the server workloads, as
// MultiClientWorld::EchoRound, spelled out so that each call into the server
// gets its own span. An echo the server cannot send yet (connection
// handshaking, send queue full, session parked after a fault) is retried
// every round for as long as the server keeps a parked session; after that
// the connection is gone and so is the client waiting for it.
class EchoApp {
 public:
  void Round(cioserve::ConfidentialServer& server, Tracer* tracer,
             uint64_t now_ns);
  bool idle() const { return queue_.empty(); }
  uint64_t backlog_max() const { return backlog_max_; }
  void Clear() { queue_.clear(); }

 private:
  struct Queued {
    uint64_t queued_ns = 0;
    cioserve::Incoming incoming;
  };
  std::deque<Queued> queue_;
  uint64_t backlog_max_ = 0;
};

// Cost slots, L5 channel, L2 transport and engine recovery counters.
void AddNodeCounters(Counters& out, cio::ConfidentialNode& node);
void AddTlsCounters(Counters& out, const ciotls::TlsSession* tls);
// Server-side TLS counters come from live connections only (a closed
// connection's session is gone), so churn leaves them out.
void AddServerCounters(Counters& out, const cioserve::ConfidentialServer& server,
                       bool include_tls = true);
void AddFabricCounters(Counters& out, const cionet::Fabric& fabric);

}  // namespace bench

#endif  // BENCHMARK_SRC_NET_COMMON_H_
