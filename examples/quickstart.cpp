// Quickstart: two confidential nodes exchange a message over the paper's
// dual-boundary stack, then the example prints what the design bought —
// what the host saw, what it cost, and how the same exchange compares on
// the syscall-level baseline.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart
//
// Exits non-zero when a link fails to establish or an exchange fails.

#include <cstdio>

#include "src/base/bytes.h"
#include "src/cio/engine.h"
#include "src/cio/tcb.h"

namespace {

using cio::ConfidentialNode;
using cio::LinkedPair;
using cio::StackConfig;
using cio::StackProfile;

StackConfig Node(StackProfile profile, uint32_t id) {
  StackConfig config = StackConfig::DefaultsFor(profile, id);
  config.seed = 100 + id;
  return config;
}

bool RunExchange(StackProfile profile) {
  std::printf("=== profile: %s ===\n",
              std::string(StackProfileName(profile)).c_str());

  LinkedPair pair(Node(profile, 1), Node(profile, 2));
  if (!pair.Establish()) {
    std::printf("link failed to establish\n");
    return false;
  }

  // One request/response exchange, TLS-protected end to end.
  ciobase::Buffer request = ciobase::BufferFromString(
      "GET /tenant-data?id=42");
  ciobase::Buffer at_server;
  bool exchanged =
      pair.client->SendMessage(request).ok() && pair.PumpUntil([&] {
        auto received = pair.server->ReceiveMessage();
        if (received.ok()) {
          at_server = *received;
          return true;
        }
        return false;
      });
  std::printf("server received: %s\n",
              ciobase::StringFromBytes(at_server).c_str());
  exchanged =
      exchanged &&
      pair.server->SendMessage(ciobase::BufferFromString("OK: record 42"))
          .ok() &&
      pair.PumpUntil([&] { return pair.client->ReceiveMessage().ok(); });
  if (!exchanged) {
    std::printf("request/response exchange failed\n");
    return false;
  }

  // What did the host learn, and what did the boundary cost?
  auto& observability = pair.client->observability();
  std::printf("host-visible events: %zu  (%.1f metadata bits/op)\n",
              observability.EventCount(),
              observability.BitsPerOp(pair.client->app_ops()));
  std::printf("  call types seen by host:        %zu\n",
              observability.CountOf(ciohost::ObsCategory::kCallType));
  std::printf("  message boundaries seen by host: %zu\n",
              observability.CountOf(ciohost::ObsCategory::kMessageBoundary));
  std::printf("  packet lengths seen by host:     %zu\n",
              observability.CountOf(ciohost::ObsCategory::kPacketLength));
  auto& costs = pair.client->costs();
  std::printf("modeled boundary costs: host_exits=%llu notifies=%llu "
              "compartment_switches=%llu bytes_copied=%llu\n",
              static_cast<unsigned long long>(costs.counter("host_exits")),
              static_cast<unsigned long long>(costs.counter("notifies")),
              static_cast<unsigned long long>(
                  costs.counter("compartment_switches")),
              static_cast<unsigned long long>(
                  costs.counter("bytes_copied")));
  std::printf("app TCB: %zu LoC\n\n",
              cio::ProfileTcb(profile).AppTcbLines());
  return true;
}

}  // namespace

int main() {
  std::printf("cio quickstart: confidential request/response, two designs\n\n");
  bool ok = RunExchange(StackProfile::kDualBoundary);
  ok = RunExchange(StackProfile::kSyscallL5) && ok;
  std::printf(
      "The dual-boundary profile exposes no call types or message\n"
      "boundaries to the host (network-level observability only) while\n"
      "keeping the application TCB as small as the syscall design.\n");
  return ok ? 0 : 1;
}
