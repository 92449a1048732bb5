// The paper's evidence, measured and checked in one binary:
//
//   Figures 2-4  the commit and CVE study (tables only: tests/study_test.cc
//                checks their claims)
//   Figure 5     the design space: one bulk run per profile, which also
//                yields §2.4's host-event counts and §3.4's link AEAD
//   §2.5         the virtio retrofit tax next to the cio L2 ring
//   §3.2         L2 data positioning, and copy vs revocation (cost model,
//                batched L5 harvest, L2 receive ownership)
//   §3.1         compartment vs dual-TEE L5 boundary
//
// Every claim prints a yes/NO line; the process exits 1 when one prints NO
// or a run cannot finish. `--json FILE` writes the measured rows plus one
// {"probe", "ok"} row per claim (BENCH_claims.json, which
// tools/run_bench.sh --check diffs against the committed baseline). All
// numbers are on the simulated clock, so they are identical on any machine;
// absolute values are simulation-relative, the claims are about shape.

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cio/l2_host_device.h"
#include "src/cio/l2_transport.h"
#include "src/cio/l5_channel.h"
#include "src/cio/tcb.h"
#include "src/study/classifier.h"
#include "src/virtio/net_driver.h"

namespace {

using namespace cio;  // NOLINT
using ciohost::ObsCategory;

std::string Format(const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

// Collects the verdicts and the JSON rows.
class Report {
 public:
  void Claim(const char* probe, bool ok, const std::string& detail = "") {
    failed_ += ok ? 0 : 1;
    std::printf("  %-58s %s%s%s\n", probe, ok ? "yes" : "NO",
                detail.empty() ? "" : " ", detail.c_str());
    Row(Format("\"probe\": \"%s\", \"ok\": %s", probe, ok ? "true" : "false"));
  }
  void Row(const std::string& fields) { rows_.push_back("{" + fields + "}"); }
  int failed() const { return failed_; }

  bool Write(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path);
      return false;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "  %s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
    return true;
  }

 private:
  int failed_ = 0;
  std::vector<std::string> rows_;
};

const char* Name(StackProfile profile) {
  return StackProfileName(profile).data();
}

// --- Figures 2-4 -----------------------------------------------------------

void PrintStudy() {
  using namespace ciostudy;  // NOLINT
  std::printf("== Figure 2: remote /net CVEs per year ==\n%s\n%s\n",
              CveTable().c_str(), GrowthTable().c_str());
  int total = 0;
  int recent = 0;
  for (const auto& [year, count] : NetRemoteCves()) {
    total += count;
    recent += year >= 2016 ? count : 0;
  }
  std::printf("total remote CVEs 2002-2022: %d (%d since 2016)\n\n", total,
              recent);
  struct Corpus {
    const char* figure;
    const char* driver;
    const std::vector<HardeningCommit>& commits;
  };
  for (const Corpus& corpus :
       {Corpus{"Figure 3", "netvsc", NetvscCommits()},
        Corpus{"Figure 4", "virtio", VirtioCommits()}}) {
    Distribution by_label = DistributionByLabel(corpus.commits);
    std::printf("== %s: %s hardening commits ==\n%s\n%s\n", corpus.figure,
                corpus.driver,
                DistributionTable("manual labels", by_label).c_str(),
                DistributionTable("classifier",
                                  DistributionByClassifier(corpus.commits))
                    .c_str());
    std::printf("classifier agreement %.0f%%; %d of %d commits revert or "
                "amend earlier hardening\n\n",
                100.0 * ClassifierAccuracy(corpus.commits),
                by_label.counts[static_cast<int>(
                    HardeningCategory::kAmendPrevious)],
                by_label.total);
  }
}

// --- Figure 5, §2.4, §3.4: one bulk run per profile ------------------------

// ObsCategory's values, kPacketLength through kConfigField.
constexpr int kCategoryCount = 8;

struct DesignRow {
  bool ok = false;
  double gbps = 0;
  double tcb_kloc = 0;
  double xnet_bits_per_op = 0;
  double length_entropy = 0;
  double aead_bytes_per_op = 0;
  size_t events[kCategoryCount] = {};

  size_t Events(ObsCategory category) const {
    return events[static_cast<int>(category)];
  }
};

DesignRow MeasureProfile(StackProfile profile) {
  DesignRow row;
  row.tcb_kloc =
      static_cast<double>(ProfileTcb(profile).AppTcbLines()) / 1000.0;
  LinkedPair pair(ciobench::MakeNode(profile, 1),
                  ciobench::MakeNode(profile, 2));
  if (!pair.Establish()) {
    return row;
  }
  ConfidentialNode& client = *pair.client;
  client.observability().Clear();
  client.costs().ResetCounters();
  auto result = ciobench::BulkTransfer(pair, 400, 1024);
  const uint64_t ops = client.app_ops();
  row.ok = result.ok && ops > 0;
  row.gbps = result.GbitPerSec();
  row.xnet_bits_per_op = client.observability().BeyondNetworkBitsPerOp(ops);
  row.length_entropy = client.observability().PacketLengthEntropyBits();
  row.aead_bytes_per_op =
      ops == 0 ? 0
               : static_cast<double>(client.costs().counter("bytes_aead")) /
                     static_cast<double>(ops);
  for (int c = 0; c < kCategoryCount; ++c) {
    row.events[c] = client.observability().CountOf(ObsCategory(c));
  }
  return row;
}

void DesignSpace(Report& report) {
  DesignRow rows[kStackProfileCount];
  bool all_ok = true;
  for (StackProfile profile : AllStackProfiles()) {
    DesignRow& row = rows[static_cast<int>(profile)];
    row = MeasureProfile(profile);
    all_ok &= row.ok;
    report.Row(Format("\"arm\": \"design-space\", \"profile\": \"%s\", "
                      "\"msg_size\": 1024, \"gbit_per_sec\": %.3f",
                      Name(profile), row.gbps));
  }
  auto at = [&rows](StackProfile profile) -> const DesignRow& {
    return rows[static_cast<int>(profile)];
  };
  const DesignRow& syscall = at(StackProfile::kSyscallL5);
  const DesignRow& passthrough = at(StackProfile::kPassthroughL2);
  const DesignRow& virtio = at(StackProfile::kHardenedVirtio);
  const DesignRow& dual = at(StackProfile::kDualBoundary);
  const DesignRow& direct = at(StackProfile::kDirectDevice);
  const DesignRow& tunneled = at(StackProfile::kTunneledL2);
  auto ratio = [](double a, double b) { return b == 0 ? 0 : a / b; };

  std::printf("== Figure 5: design space (400 x 1 KiB, client side) ==\n");
  std::printf("%-16s %10s %11s %11s %12s %11s %13s\n", "profile",
              "thru (rel)", "Gbit/s(sim)", "appTCB KLoC", "xnet bits/op",
              "len entropy", "aead bytes/op");
  for (StackProfile profile : AllStackProfiles()) {
    const DesignRow& row = at(profile);
    std::printf("%-16s %9.2fx %11.2f %11.1f %12.1f %11.2f %13.0f%s\n",
                Name(profile), ratio(row.gbps, passthrough.gbps), row.gbps,
                row.tcb_kloc, row.xnet_bits_per_op, row.length_entropy,
                row.aead_bytes_per_op, row.ok ? "" : "  FAILED");
  }
  std::printf("\n== §2.4: host-visible events per category ==\n%-16s",
              "category");
  for (StackProfile profile : AllStackProfiles()) {
    std::printf(" %15s", Name(profile));
  }
  std::printf("\n");
  for (int c = 0; c < kCategoryCount; ++c) {
    std::printf("%-16s", ciohost::ObsCategoryName(ObsCategory(c)).data());
    for (const DesignRow& row : rows) {
      std::printf(" %15zu", row.events[c]);
    }
    std::printf("\n");
  }

  std::printf("\nFigure 5 claims:\n");
  report.Claim("every profile establishes and delivers", all_ok);
  report.Claim("this-work throughput above 0.5x passthrough",
               dual.gbps > 0.5 * passthrough.gbps,
               Format("(%.2fx)", ratio(dual.gbps, passthrough.gbps)));
  report.Claim("this-work faster than syscall-l5", dual.gbps > syscall.gbps,
               Format("(%.1fx)", ratio(dual.gbps, syscall.gbps)));
  report.Claim("this-work TCB ~= syscall TCB, << passthrough TCB",
               dual.tcb_kloc < 1.2 * syscall.tcb_kloc &&
                   dual.tcb_kloc < 0.7 * passthrough.tcb_kloc);
  report.Claim("this-work leaks ~no beyond-network bits, syscall does",
               dual.xnet_bits_per_op < 1.0 && syscall.xnet_bits_per_op > 10.0,
               Format("(%.1f vs %.1f bits/op)", dual.xnet_bits_per_op,
                      syscall.xnet_bits_per_op));
  report.Claim("hardened-virtio slower than this-work",
               virtio.gbps < dual.gbps,
               Format("(%.2fx)", ratio(dual.gbps, virtio.gbps)));
  report.Claim("tunneled-l2 hides packet sizes at a larger TCB",
               tunneled.length_entropy < 0.3 &&
                   tunneled.tcb_kloc > dual.tcb_kloc,
               Format("(%.2f vs %.2f entropy bits)", tunneled.length_entropy,
                      passthrough.length_entropy));

  std::printf("§2.4 claims:\n");
  bool others_quiet = true;
  bool doorbells_only_virtio = true;
  for (StackProfile profile : AllStackProfiles()) {
    const DesignRow& row = at(profile);
    if (profile != StackProfile::kSyscallL5) {
      others_quiet &= row.Events(ObsCategory::kCallType) == 0 &&
                      row.Events(ObsCategory::kCallArgs) == 0 &&
                      row.Events(ObsCategory::kMessageBoundary) == 0 &&
                      row.Events(ObsCategory::kPayload) == 0;
    }
    doorbells_only_virtio &= (row.Events(ObsCategory::kDoorbell) > 0) ==
                             (profile == StackProfile::kHardenedVirtio);
  }
  report.Claim("syscall-l5 shows call types and message boundaries",
               syscall.Events(ObsCategory::kCallType) > 0 &&
                   syscall.Events(ObsCategory::kMessageBoundary) > 0);
  report.Claim("no other profile shows calls, boundaries or payload",
               others_quiet);
  report.Claim("only hardened-virtio shows doorbells", doorbells_only_virtio);

  std::printf("§3.4 claims:\n");
  report.Claim("direct-device pays link AEAD >= message size per op",
               direct.aead_bytes_per_op >= 1024,
               Format("(%.0f B/op)", direct.aead_bytes_per_op));
  report.Claim("direct-device app TCB larger than this-work's",
               direct.tcb_kloc > dual.tcb_kloc,
               Format("(%.1f vs %.1f KLoC)", direct.tcb_kloc, dual.tcb_kloc));
  report.Claim("direct-device slower than passthrough-l2",
               direct.gbps < passthrough.gbps,
               Format("(%.2fx)", ratio(direct.gbps, passthrough.gbps)));
}

// --- §2.5 and §3.2 positioning: one L2 echo loop ---------------------------

const cionet::MacAddress kGuestMac = cionet::MacAddress::FromId(1);
const cionet::MacAddress kPeerMac = cionet::MacAddress::FromId(2);
constexpr int kEchoFrames = 500;

// Per-frame guest-side cost of an echo through a guest NIC and its host
// device: a peer sends a frame in, the guest takes it off the RX ring and
// sends one back to the peer. The fabric adds no latency, so all simulated
// time is the interface's cost.
struct EchoCost {
  bool ok = false;
  double sim_ns = 0;
  double copies = 0;
  double notifies = 0;
};

struct EchoWorld {
  ciobase::SimClock clock;
  ciobase::CostModel costs{&clock};
  cionet::Fabric fabric{&clock, 7, cionet::Fabric::Options{0, 0, 0, 9216}};
  ciotee::TeeMemory memory;

  template <typename Device>
  EchoCost Echo(Device& device, cionet::FramePort& guest, size_t payload) {
    cionet::DirectFabricPort peer(&fabric, "peer", kPeerMac);
    ciobase::Buffer body = ciobase::Rng(3).Bytes(payload);
    auto frame = [&](cionet::MacAddress dst, cionet::MacAddress src) {
      ciobase::Buffer out;
      cionet::EthernetHeader{dst, src, 0x88b5}.Serialize(out);
      ciobase::Append(out, body);
      return out;
    };
    const ciobase::Buffer inbound = frame(kGuestMac, kPeerMac);
    const ciobase::Buffer outbound = frame(kPeerMac, kGuestMac);
    cionet::FrameBatch batch;
    costs.ResetCounters();
    const uint64_t start_ns = clock.now_ns();
    int echoed = 0;
    for (int i = 0; i < kEchoFrames; ++i) {
      (void)cionet::SendOne(peer, inbound);
      device.Poll();
      auto in = guest.ReceiveFrames(batch, 1);
      (void)cionet::SendOne(guest, outbound);
      device.Poll();
      auto out = peer.ReceiveFrames(batch, 1);
      echoed += in.ok() && *in == 1 && out.ok() && *out == 1;
    }
    const double frames = kEchoFrames;
    return {echoed == kEchoFrames,
            static_cast<double>(clock.now_ns() - start_ns) / frames,
            static_cast<double>(costs.counter("copies")) / frames,
            static_cast<double>(costs.counter("notifies")) / frames};
  }
};

EchoCost EchoVirtio(ciovirtio::HardeningOptions hardening, size_t payload) {
  EchoWorld world;
  auto layout = ciovirtio::VirtioNetLayout::Make(128, 2048, 256);
  ciotee::SharedRegion shared(&world.memory, layout.TotalSize(), "virtio");
  ciovirtio::VirtioNetDevice device(
      &shared, layout, &world.fabric, "nic", kGuestMac, 1500,
      ciovirtio::kFeatureMac | ciovirtio::kFeatureMtu |
          ciovirtio::kFeatureVersion1,
      nullptr, nullptr, &world.clock);
  ciovirtio::VirtioNetDriver driver(&shared, layout, &device, &world.costs,
                                    hardening, nullptr);
  if (!driver.Negotiate().ok()) {
    return {};
  }
  return world.Echo(device, driver, payload);
}

EchoCost EchoL2(DataPositioning positioning, ReceiveOwnership ownership,
                size_t payload) {
  EchoWorld world;
  L2Config config;
  config.mac = kGuestMac;
  config.positioning = positioning;
  config.rx_ownership = ownership;
  L2Layout layout(config);
  ciotee::SharedRegion shared(&world.memory, layout.total, "l2");
  L2HostDevice device(&shared, config, &world.fabric, "nic", nullptr, nullptr,
                      &world.clock);
  L2Transport transport(&shared, config, &world.costs);
  return world.Echo(device, transport, payload);
}

void RetrofitTax(Report& report) {
  constexpr size_t kPayload = 1400 - cionet::kEthernetHeaderSize;
  struct Arm {
    const char* name;
    EchoCost cost;
  };
  const Arm arms[] = {
      {"virtio unhardened",
       EchoVirtio(ciovirtio::HardeningOptions::None(), kPayload)},
      {"virtio checks-only",
       EchoVirtio(ciovirtio::HardeningOptions::ChecksOnly(), kPayload)},
      {"virtio full retrofit",
       EchoVirtio(ciovirtio::HardeningOptions::Full(), kPayload)},
      {"cio L2 ring", EchoL2(DataPositioning::kInline,
                             ReceiveOwnership::kCopy, kPayload)},
  };
  std::printf("\n== §2.5: retrofit-hardening tax (1400 B frames echoed) ==\n");
  std::printf("%-22s %9s %7s %8s %9s\n", "driver", "ns/frame", "rel",
              "copies", "notifies");
  bool all_ok = true;
  for (const Arm& arm : arms) {
    all_ok &= arm.cost.ok;
    std::printf("%-22s %9.0f %6.2fx %8.1f %9.1f\n", arm.name, arm.cost.sim_ns,
                arm.cost.sim_ns / arms[0].cost.sim_ns, arm.cost.copies,
                arm.cost.notifies);
    report.Row(Format("\"arm\": \"retrofit\", \"layer\": \"%s\", "
                      "\"msg_size\": 1400, \"frame_ns\": %.1f",
                      arm.name, arm.cost.sim_ns));
  }
  const EchoCost& none = arms[0].cost;
  const EchoCost& checks = arms[1].cost;
  const EchoCost& full = arms[2].cost;
  const EchoCost& ring = arms[3].cost;
  std::printf("§2.5 claims:\n");
  report.Claim("every echo run delivers every frame", all_ok);
  report.Claim("checks-only virtio within 5% of unhardened",
               checks.sim_ns <= 1.05 * none.sim_ns,
               Format("(%.2fx)", checks.sim_ns / none.sim_ns));
  report.Claim("full retrofit costs more than checks-only, 2 copies/frame",
               full.sim_ns > checks.sim_ns && full.copies == 2.0);
  report.Claim("cio L2 ring cheaper than unhardened virtio, 0 notifies",
               ring.sim_ns < none.sim_ns && ring.notifies == 0,
               Format("(%.2fx)", ring.sim_ns / none.sim_ns));
}

void DataPositioningTable(Report& report) {
  struct Mode {
    const char* name;
    DataPositioning positioning;
    ReceiveOwnership ownership;
  };
  const Mode modes[] = {
      {"inline", DataPositioning::kInline, ReceiveOwnership::kCopy},
      {"shared-pool", DataPositioning::kSharedPool, ReceiveOwnership::kCopy},
      {"indirect", DataPositioning::kIndirect, ReceiveOwnership::kCopy},
      {"pool-revoke", DataPositioning::kSharedPool,
       ReceiveOwnership::kRevoke},
  };
  const size_t kSizes[] = {64, 256, 1024, 1500};
  std::printf("\n== §3.2: L2 data positioning (sim ns per echoed frame) ==\n");
  std::printf("%-12s", "payload");
  for (const Mode& mode : modes) {
    std::printf(" %12s", mode.name);
  }
  std::printf("\n");
  bool all_ok = true;
  bool indirect_equals_pool = true;
  bool revoke_costs_more = true;
  double inline_64 = 0;
  double pool_64 = 0;
  for (size_t size : kSizes) {
    double ns[4];
    std::printf("%-12zu", size);
    for (int m = 0; m < 4; ++m) {
      EchoCost cost = EchoL2(modes[m].positioning, modes[m].ownership, size);
      all_ok &= cost.ok;
      ns[m] = cost.sim_ns;
      std::printf(" %12.0f", ns[m]);
      report.Row(Format("\"arm\": \"positioning\", \"layer\": \"%s\", "
                        "\"msg_size\": %zu, \"frame_ns\": %.1f",
                        modes[m].name, size, ns[m]));
    }
    std::printf("\n");
    indirect_equals_pool &= ns[2] == ns[1];
    revoke_costs_more &= ns[3] > ns[1];
    if (size == 64) {
      inline_64 = ns[0];
      pool_64 = ns[1];
    }
  }
  std::printf("§3.2 positioning claims:\n");
  report.Claim("every positioning run delivers every frame", all_ok);
  report.Claim("shared-pool cheaper than inline at 64 B", pool_64 < inline_64,
               Format("(%.0f vs %.0f ns)", pool_64, inline_64));
  report.Claim("indirect costs the same as shared-pool at every size",
               indirect_equals_pool);
  report.Claim("L2 revoke costs more than L2 copy at every size",
               revoke_costs_more);
}

// --- §3.2 copy vs revocation -----------------------------------------------

void RevocationModel(Report& report) {
  ciobase::CostConstants constants;
  const double revoke_page_ns =
      constants.page_unshare_ns + constants.page_reshare_ns;
  const double crossover = revoke_page_ns / constants.copy_ns_per_byte;
  std::printf("\n== §3.2: copy vs revocation, cost model (per buffer) ==\n");
  std::printf("%8s %10s %10s\n", "bytes", "copy ns", "revoke ns");
  for (size_t size : {64, 1024, 2048, 4096, 16384, 65536}) {
    const double copy_ns =
        constants.copy_ns_per_byte * static_cast<double>(size);
    const double revoke_ns =
        revoke_page_ns *
        static_cast<double>((size + constants.page_size - 1) /
                            constants.page_size);
    std::printf("%8zu %10.0f %10.0f\n", size, copy_ns, revoke_ns);
    report.Row(Format("\"arm\": \"revocation-model\", \"msg_size\": %zu, "
                      "\"copy_ns\": %.1f, \"revoke_ns\": %.1f",
                      size, copy_ns, revoke_ns));
  }
  std::printf("§3.2 revocation claims:\n");
  report.Claim("cost-model crossover between 2 and 4 KiB",
               crossover > 2048 && crossover <= 4096,
               Format("(%.0f B)", crossover));
}

// Modeled time of the one doorbell that harvests a `batch`-byte burst into
// the L5 receive credit: the sender streams the burst while the I/O stack
// runs without a doorbell, then one Flush harvests it and ReceiveBytes
// drains it at no cost. The receive mode's copy or revocation lands inside
// that doorbell, beside the crossing and stack work both modes share.
double HarvestNs(L5ReceiveMode mode, size_t batch) {
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  cionet::Fabric fabric(&clock, 8);
  cionet::DirectFabricPort port_a(&fabric, "a", kGuestMac);
  cionet::DirectFabricPort port_b(&fabric, "b", kPeerMac);
  cionet::NetStack::Config config_a;
  config_a.ip = cionet::Ipv4Address::FromOctets(10, 0, 0, 1);
  cionet::NetStack::Config config_b;
  config_b.ip = cionet::Ipv4Address::FromOctets(10, 0, 0, 2);
  config_b.seed = 2;
  config_b.tcp_tuning.receive_buffer_limit = 64 * 1024;
  cionet::NetStack sender(&port_a, &clock, config_a);
  cionet::NetStack receiver(&port_b, &clock, config_b);
  ciotee::CompartmentManager compartments(&costs);
  auto app = compartments.Create("app", 1 << 20);
  auto io = compartments.Create("io", 1 << 20);
  compartments.GrantAccess(app, io);
  L5Channel l5(&compartments, app, io, &receiver, &costs, mode,
               L5BoundaryKind::kCompartment);

  auto listener = l5.Listen(80);
  auto client = sender.TcpConnect(config_b.ip, 80);
  if (!listener.ok() || !client.ok()) {
    return 0;
  }
  ciobase::Result<Accepted> server = ciobase::Unavailable("connecting");
  for (int round = 0; round < 1000 && !server.ok(); ++round) {
    sender.Poll();
    l5.Poll();
    clock.Advance(2'000);
    server = l5.Accept(*listener);
  }
  if (!server.ok()) {
    return 0;
  }
  (void)l5.Flush();  // arms the receive credit
  ciobase::Buffer payload = ciobase::Rng(1).Bytes(batch);
  ciobase::Buffer received;
  uint64_t doorbell_ns = 0;
  int harvests = 0;
  for (int attempt = 0; attempt < 60 && harvests < 50; ++attempt) {
    size_t queued = 0;
    for (int round = 0; round < 64; ++round) {
      if (queued < batch) {
        auto sent = sender.TcpSend(
            *client, ciobase::ByteSpan(payload.data() + queued,
                                       batch - queued));
        queued += sent.ok() ? *sent : 0;
      }
      sender.Poll();
      receiver.Poll();
      clock.Advance(2'000);
    }
    const uint64_t before = clock.now_ns();
    (void)l5.Flush();
    const uint64_t after = clock.now_ns();
    auto got = l5.ReceiveBytes(server->socket, batch, received);
    if (got.ok() && *got == batch) {
      doorbell_ns += after - before;
      ++harvests;
    }
  }
  return harvests == 0 ? 0 : static_cast<double>(doorbell_ns) / harvests;
}

void RevocationL5(Report& report) {
  std::printf("\n== §3.2: batched L5 harvest (sim ns per doorbell) ==\n");
  std::printf("%8s %10s %10s\n", "batch", "copy ns", "revoke ns");
  bool measured = true;
  bool copy_wins_small = false;
  bool revoke_wins_large = true;
  for (size_t batch : {1024, 4096, 16384, 65536}) {
    const double copy_ns = HarvestNs(L5ReceiveMode::kCopy, batch);
    const double revoke_ns = HarvestNs(L5ReceiveMode::kRevoke, batch);
    measured &= copy_ns > 0 && revoke_ns > 0;
    std::printf("%8zu %10.0f %10.0f\n", batch, copy_ns, revoke_ns);
    report.Row(Format("\"arm\": \"revocation-l5\", \"msg_size\": %zu, "
                      "\"copy_ns\": %.1f, \"revoke_ns\": %.1f",
                      batch, copy_ns, revoke_ns));
    if (batch == 1024) {
      copy_wins_small = copy_ns < revoke_ns;
    } else {
      revoke_wins_large &= revoke_ns < copy_ns;
    }
  }
  report.Claim("L5 copy wins at 1 KiB, revoke at >= 4 KiB",
               measured && copy_wins_small && revoke_wins_large);
}

double L2OwnershipGbps(ReceiveOwnership ownership, size_t size) {
  StackConfig client = ciobench::MakeNode(StackProfile::kDualBoundary, 1);
  StackConfig server = ciobench::MakeNode(StackProfile::kDualBoundary, 2);
  for (StackConfig* config : {&client, &server}) {
    config->l2_positioning = DataPositioning::kSharedPool;
    config->l2_rx_ownership = ownership;
  }
  LinkedPair pair(client, server);
  if (!pair.Establish()) {
    return 0;
  }
  auto result = ciobench::BulkTransfer(pair, 150, size);
  return result.ok ? result.GbitPerSec() : 0;
}

void RevocationL2(Report& report) {
  std::printf("\n== §3.2: L2 receive ownership, dual-boundary bulk ==\n");
  std::printf("%8s %12s %12s\n", "msg size", "copy Gbit/s", "revoke Gbit/s");
  bool copy_holds = true;
  for (size_t size : {2048, 16384}) {
    const double copy = L2OwnershipGbps(ReceiveOwnership::kCopy, size);
    const double revoke = L2OwnershipGbps(ReceiveOwnership::kRevoke, size);
    copy_holds &= copy > 0 && revoke > 0 && copy >= revoke;
    std::printf("%8zu %12.3f %12.3f\n", size, copy, revoke);
    report.Row(Format("\"arm\": \"revocation-l2\", \"msg_size\": %zu, "
                      "\"copy_gbit_per_sec\": %.3f, "
                      "\"revoke_gbit_per_sec\": %.3f",
                      size, copy, revoke));
  }
  report.Claim("L2 copy at least as fast as L2 revoke", copy_holds);
}

// --- §3.1 boundary ---------------------------------------------------------

void Boundary(Report& report) {
  std::printf("\n== §3.1: L5 boundary kind (dual-boundary, 200 x 4 KiB) ==\n");
  double gbps[2] = {0, 0};
  const char* names[2] = {"compartment", "dual-tee"};
  int i = 0;
  for (L5BoundaryKind kind :
       {L5BoundaryKind::kCompartment, L5BoundaryKind::kDualTee}) {
    StackConfig client = ciobench::MakeNode(StackProfile::kDualBoundary, 1);
    StackConfig server = ciobench::MakeNode(StackProfile::kDualBoundary, 2);
    client.l5_boundary = kind;
    server.l5_boundary = kind;
    LinkedPair pair(client, server);
    if (pair.Establish()) {
      auto result = ciobench::BulkTransfer(pair, 200, 4096);
      gbps[i] = result.ok ? result.GbitPerSec() : 0;
    }
    std::printf("%-12s %8.3f Gbit/s(sim)\n", names[i], gbps[i]);
    report.Row(Format("\"arm\": \"boundary\", \"mode\": \"%s\", "
                      "\"msg_size\": 4096, \"gbit_per_sec\": %.3f",
                      names[i], gbps[i]));
    ++i;
  }
  report.Claim("compartment boundary >= 2x faster than dual-TEE",
               gbps[1] > 0 && gbps[0] >= 2.0 * gbps[1],
               Format("(%.1fx)", gbps[1] == 0 ? 0 : gbps[0] / gbps[1]));
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json FILE]\n", argv[0]);
      return 2;
    }
  }
  Report report;
  PrintStudy();
  DesignSpace(report);
  RetrofitTax(report);
  DataPositioningTable(report);
  RevocationModel(report);
  RevocationL5(report);
  RevocationL2(report);
  Boundary(report);
  if (json_path != nullptr && !report.Write(json_path)) {
    return 1;
  }
  if (report.failed() > 0) {
    std::printf("\npaper claims: %d check(s) printed NO\n", report.failed());
    return 1;
  }
  std::printf("\npaper claims: every check holds\n");
  return 0;
}
