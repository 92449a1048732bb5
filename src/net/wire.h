// Wire formats: Ethernet, ARP, IPv4, TCP headers, addresses, checksums.
//
// The TEE's own network stack (§2.4: "almost all high-performance approaches
// work at layer 2, exchanging raw Ethernet packets, processed by the TEE's
// own I/O stack") is built on these parsers. All parsing is
// bounds-checked and total: malformed input yields a Status, never UB —
// the stack sits directly behind the L2 trust boundary and every byte it
// parses is attacker-controlled.

#ifndef SRC_NET_WIRE_H_
#define SRC_NET_WIRE_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/base/bytes.h"
#include "src/base/status.h"

namespace cionet {

// --- Addresses --------------------------------------------------------------

struct MacAddress {
  std::array<uint8_t, 6> bytes{};

  bool operator==(const MacAddress&) const = default;
  bool IsBroadcast() const {
    return *this == Broadcast();
  }
  static MacAddress Broadcast() {
    return MacAddress{{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}};
  }
  // Locally administered unicast address derived from an id.
  static MacAddress FromId(uint32_t id);
  std::string ToString() const;
};

struct Ipv4Address {
  uint32_t value = 0;  // host byte order

  bool operator==(const Ipv4Address&) const = default;
  auto operator<=>(const Ipv4Address&) const = default;
  static Ipv4Address FromOctets(uint8_t a, uint8_t b, uint8_t c, uint8_t d) {
    return Ipv4Address{static_cast<uint32_t>(a) << 24 |
                       static_cast<uint32_t>(b) << 16 |
                       static_cast<uint32_t>(c) << 8 | d};
  }
  std::string ToString() const;
};

// --- Ethernet ---------------------------------------------------------------

inline constexpr size_t kEthernetHeaderSize = 14;
inline constexpr uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr uint16_t kEtherTypeArp = 0x0806;

struct EthernetHeader {
  MacAddress dst;
  MacAddress src;
  uint16_t ether_type = 0;

  void Serialize(ciobase::Buffer& out) const;
  static ciobase::Result<EthernetHeader> Parse(ciobase::ByteSpan frame);
};

// --- ARP (IPv4-over-Ethernet only) ------------------------------------------

inline constexpr size_t kArpPacketSize = 28;
inline constexpr uint16_t kArpOpRequest = 1;
inline constexpr uint16_t kArpOpReply = 2;

struct ArpPacket {
  uint16_t op = 0;
  MacAddress sender_mac;
  Ipv4Address sender_ip;
  MacAddress target_mac;
  Ipv4Address target_ip;

  void Serialize(ciobase::Buffer& out) const;
  static ciobase::Result<ArpPacket> Parse(ciobase::ByteSpan payload);
};

// --- IPv4 -------------------------------------------------------------------

inline constexpr size_t kIpv4HeaderSize = 20;  // no options
inline constexpr uint8_t kIpProtoTcp = 6;
inline constexpr uint16_t kIpv4FlagDontFragment = 0x4000;
inline constexpr uint16_t kIpv4FlagMoreFragments = 0x2000;

struct Ipv4Header {
  uint8_t tos = 0;
  uint16_t total_length = 0;
  uint16_t identification = 0;
  uint16_t flags_fragment = 0;  // flags in top 3 bits, offset (in 8B) below
  uint8_t ttl = 64;
  uint8_t protocol = 0;
  Ipv4Address src;
  Ipv4Address dst;

  uint16_t FragmentOffsetBytes() const {
    return static_cast<uint16_t>((flags_fragment & 0x1fff) * 8);
  }
  bool MoreFragments() const {
    return (flags_fragment & kIpv4FlagMoreFragments) != 0;
  }

  // Serializes with a correct header checksum.
  void Serialize(ciobase::Buffer& out) const;
  // Parses and verifies the header checksum.
  static ciobase::Result<Ipv4Header> Parse(ciobase::ByteSpan packet);
};

// --- TCP --------------------------------------------------------------------

inline constexpr size_t kTcpHeaderSize = 20;  // no options beyond MSS on SYN
inline constexpr uint8_t kTcpFlagFin = 0x01;
inline constexpr uint8_t kTcpFlagSyn = 0x02;
inline constexpr uint8_t kTcpFlagRst = 0x04;
inline constexpr uint8_t kTcpFlagPsh = 0x08;
inline constexpr uint8_t kTcpFlagAck = 0x10;

struct TcpHeader {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint32_t seq = 0;
  uint32_t ack = 0;
  uint8_t data_offset = 5;  // 32-bit words
  uint8_t flags = 0;
  uint16_t window = 0;
  uint16_t mss_option = 0;  // nonzero => include MSS option (SYN segments)

  size_t HeaderBytes() const { return static_cast<size_t>(data_offset) * 4; }

  void Serialize(ciobase::Buffer& out) const;
  static ciobase::Result<TcpHeader> Parse(ciobase::ByteSpan segment);
};

// --- Checksums --------------------------------------------------------------

// RFC 1071 internet checksum over `data` starting from `initial` (e.g. a
// pseudo-header partial sum).
uint16_t InternetChecksum(ciobase::ByteSpan data, uint32_t initial = 0);

// Partial (un-folded) sum of the IPv4 pseudo header for TCP checksums.
uint32_t PseudoHeaderSum(Ipv4Address src, Ipv4Address dst, uint8_t protocol,
                         uint16_t length);

// Computes the TCP checksum over header+payload with the pseudo header.
uint16_t TransportChecksum(Ipv4Address src, Ipv4Address dst, uint8_t protocol,
                           ciobase::ByteSpan segment);

// Sequence-number arithmetic (RFC 793 modular comparison).
inline bool SeqLt(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) < 0;
}
inline bool SeqLe(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) <= 0;
}
inline bool SeqGt(uint32_t a, uint32_t b) { return SeqLt(b, a); }
inline bool SeqGe(uint32_t a, uint32_t b) { return SeqLe(b, a); }

}  // namespace cionet

#endif  // SRC_NET_WIRE_H_
