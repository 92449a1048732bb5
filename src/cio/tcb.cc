#include "src/cio/tcb.h"

#include <cstdio>

namespace cio {

namespace {

// Non-comment, non-blank lines per library, measured from this tree with
// tools/count_loc.sh. Kept deliberately coarse (rounded): the figure-level
// claim is the ratio between profiles, not the third digit.
constexpr struct {
  const char* name;
  size_t lines;
} kModules[] = {
    {"base", 630},
    {"crypto", 610},
    {"tee", 790},
    {"tls", 470},
    {"net-stack", 2100},   // Ethernet/ARP/IPv4/TCP/sockets
    {"virtio-driver", 680},
    {"cio-l2", 450},
    {"cio-l5", 200},
    {"app-framework", 900},  // engine glue inside the confidential unit
    {"host-stack", 2100},    // host kernel stack (syscall profile, untrusted)
    {"host-backend", 450},   // device models (untrusted)
    {"dda-driver", 250},     // IDE link driver (thin: AEAD + framing)
    {"tunnel", 160},         // LightBox-style padding/sealing tunnel
    {"attested-device", 450},  // §3.4: device firmware joins the TCB
};

std::vector<TcbModule> Pick(std::initializer_list<const char*> names) {
  std::vector<TcbModule> out;
  for (const char* name : names) {
    for (const auto& module : kModules) {
      if (std::string_view(module.name) == name) {
        out.push_back(TcbModule{module.name, module.lines});
      }
    }
  }
  return out;
}

}  // namespace

size_t TcbReport::AppTcbLines() const {
  size_t total = 0;
  for (const auto& module : app_tcb) {
    total += module.lines;
  }
  return total;
}

size_t TcbReport::IsolatedLines() const {
  size_t total = 0;
  for (const auto& module : isolated) {
    total += module.lines;
  }
  return total;
}

std::string TcbReport::ToString() const {
  std::string out;
  char line[128];
  auto section = [&](const char* title,
                     const std::vector<TcbModule>& modules) {
    out += title;
    out += ":\n";
    size_t total = 0;
    for (const auto& module : modules) {
      std::snprintf(line, sizeof(line), "  %-14s %6zu LoC\n",
                    module.name.c_str(), module.lines);
      out += line;
      total += module.lines;
    }
    std::snprintf(line, sizeof(line), "  %-14s %6zu LoC\n", "TOTAL", total);
    out += line;
  };
  section("app TCB", app_tcb);
  section("isolated (in-TEE, untrusted by app)", isolated);
  section("host-side (untrusted)", host_side);
  return out;
}

TcbReport ProfileTcb(StackProfile profile) {
  TcbReport report;
  switch (profile) {
    case StackProfile::kSyscallL5:
      // Small guest TCB; the entire network stack runs host-side.
      report.app_tcb = Pick({"base", "crypto", "tee", "tls",
                             "app-framework"});
      report.host_side = Pick({"host-stack", "host-backend"});
      break;
    case StackProfile::kPassthroughL2:
      // One trust domain: app + TLS + full stack + raw driver.
      report.app_tcb = Pick({"base", "crypto", "tee", "tls", "net-stack",
                             "virtio-driver", "app-framework"});
      report.host_side = Pick({"host-backend"});
      break;
    case StackProfile::kHardenedVirtio:
      report.app_tcb = Pick({"base", "crypto", "tee", "tls", "net-stack",
                             "virtio-driver", "app-framework"});
      report.host_side = Pick({"host-backend"});
      break;
    case StackProfile::kDualBoundary:
      // The stack and L2 driver are inside the TEE but OUTSIDE the app's
      // TCB: their compromise only increases observability (§3.1).
      report.app_tcb = Pick({"base", "crypto", "tee", "tls", "cio-l5",
                             "app-framework"});
      report.isolated = Pick({"net-stack", "cio-l2"});
      report.host_side = Pick({"host-backend"});
      break;
    case StackProfile::kTunneledL2:
      // Everything of passthrough PLUS the tunnel: the largest TCB in the
      // design space (the LightBox corner: Obs S, TCB XL).
      report.app_tcb = Pick({"base", "crypto", "tee", "tls", "net-stack",
                             "virtio-driver", "tunnel", "app-framework"});
      report.host_side = Pick({"host-backend"});
      break;
    case StackProfile::kDirectDevice:
      // §3.4: the driver is thin (IDE does the defensive work), but the
      // attested device's firmware is now part of the TCB — "adding them
      // to the trusted TCB is a trade-off by itself".
      report.app_tcb = Pick({"base", "crypto", "tee", "tls", "net-stack",
                             "dda-driver", "app-framework",
                             "attested-device"});
      report.host_side = Pick({"host-backend"});
      break;
  }
  return report;
}

}  // namespace cio
