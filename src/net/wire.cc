#include "src/net/wire.h"

#include <cstdio>
#include <cstring>

namespace cionet {

MacAddress MacAddress::FromId(uint32_t id) {
  MacAddress mac;
  mac.bytes = {0x02, 0x00, static_cast<uint8_t>(id >> 24),
               static_cast<uint8_t>(id >> 16), static_cast<uint8_t>(id >> 8),
               static_cast<uint8_t>(id)};
  return mac;
}

std::string MacAddress::ToString() const {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", bytes[0],
                bytes[1], bytes[2], bytes[3], bytes[4], bytes[5]);
  return buf;
}

std::string Ipv4Address::ToString() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", value >> 24,
                (value >> 16) & 0xff, (value >> 8) & 0xff, value & 0xff);
  return buf;
}

// --- Ethernet ---------------------------------------------------------------

void EthernetHeader::Serialize(ciobase::Buffer& out) const {
  ciobase::Append(out, dst.bytes);
  ciobase::Append(out, src.bytes);
  uint8_t type[2];
  ciobase::StoreBe16(type, ether_type);
  ciobase::Append(out, type);
}

ciobase::Result<EthernetHeader> EthernetHeader::Parse(ciobase::ByteSpan frame) {
  if (frame.size() < kEthernetHeaderSize) {
    return ciobase::InvalidArgument("ethernet frame too short");
  }
  EthernetHeader header;
  std::memcpy(header.dst.bytes.data(), frame.data(), 6);
  std::memcpy(header.src.bytes.data(), frame.data() + 6, 6);
  header.ether_type = ciobase::LoadBe16(frame.data() + 12);
  return header;
}

// --- ARP --------------------------------------------------------------------

void ArpPacket::Serialize(ciobase::Buffer& out) const {
  size_t base = out.size();
  out.resize(base + kArpPacketSize);
  uint8_t* p = out.data() + base;
  ciobase::StoreBe16(p, 1);       // HTYPE: Ethernet
  ciobase::StoreBe16(p + 2, kEtherTypeIpv4);
  p[4] = 6;                       // HLEN
  p[5] = 4;                       // PLEN
  ciobase::StoreBe16(p + 6, op);
  std::memcpy(p + 8, sender_mac.bytes.data(), 6);
  ciobase::StoreBe32(p + 14, sender_ip.value);
  std::memcpy(p + 18, target_mac.bytes.data(), 6);
  ciobase::StoreBe32(p + 24, target_ip.value);
}

ciobase::Result<ArpPacket> ArpPacket::Parse(ciobase::ByteSpan payload) {
  if (payload.size() < kArpPacketSize) {
    return ciobase::InvalidArgument("ARP packet too short");
  }
  const uint8_t* p = payload.data();
  if (ciobase::LoadBe16(p) != 1 || ciobase::LoadBe16(p + 2) != kEtherTypeIpv4 ||
      p[4] != 6 || p[5] != 4) {
    return ciobase::InvalidArgument("unsupported ARP header");
  }
  ArpPacket arp;
  arp.op = ciobase::LoadBe16(p + 6);
  std::memcpy(arp.sender_mac.bytes.data(), p + 8, 6);
  arp.sender_ip.value = ciobase::LoadBe32(p + 14);
  std::memcpy(arp.target_mac.bytes.data(), p + 18, 6);
  arp.target_ip.value = ciobase::LoadBe32(p + 24);
  return arp;
}

// --- IPv4 -------------------------------------------------------------------

void Ipv4Header::Serialize(ciobase::Buffer& out) const {
  size_t base = out.size();
  out.resize(base + kIpv4HeaderSize);
  uint8_t* p = out.data() + base;
  p[0] = 0x45;  // version 4, IHL 5
  p[1] = tos;
  ciobase::StoreBe16(p + 2, total_length);
  ciobase::StoreBe16(p + 4, identification);
  ciobase::StoreBe16(p + 6, flags_fragment);
  p[8] = ttl;
  p[9] = protocol;
  ciobase::StoreBe16(p + 10, 0);  // checksum placeholder
  ciobase::StoreBe32(p + 12, src.value);
  ciobase::StoreBe32(p + 16, dst.value);
  uint16_t checksum =
      InternetChecksum(ciobase::ByteSpan(p, kIpv4HeaderSize));
  ciobase::StoreBe16(p + 10, checksum);
}

ciobase::Result<Ipv4Header> Ipv4Header::Parse(ciobase::ByteSpan packet) {
  if (packet.size() < kIpv4HeaderSize) {
    return ciobase::InvalidArgument("IPv4 packet too short");
  }
  const uint8_t* p = packet.data();
  if ((p[0] >> 4) != 4) {
    return ciobase::InvalidArgument("not IPv4");
  }
  size_t ihl = static_cast<size_t>(p[0] & 0xf) * 4;
  if (ihl < kIpv4HeaderSize || packet.size() < ihl) {
    return ciobase::InvalidArgument("bad IHL");
  }
  if (InternetChecksum(packet.first(ihl)) != 0) {
    return ciobase::Tampered("IPv4 header checksum mismatch");
  }
  Ipv4Header header;
  header.tos = p[1];
  header.total_length = ciobase::LoadBe16(p + 2);
  header.identification = ciobase::LoadBe16(p + 4);
  header.flags_fragment = ciobase::LoadBe16(p + 6);
  header.ttl = p[8];
  header.protocol = p[9];
  header.src.value = ciobase::LoadBe32(p + 12);
  header.dst.value = ciobase::LoadBe32(p + 16);
  if (header.total_length < ihl || header.total_length > packet.size()) {
    return ciobase::InvalidArgument("IPv4 total length out of range");
  }
  // Options (ihl > 20) are accepted and skipped by reporting the real IHL
  // via total_length handling in the stack; we reject them here for a
  // minimal, analyzable parser.
  if (ihl != kIpv4HeaderSize) {
    return ciobase::Unimplemented("IPv4 options not supported");
  }
  return header;
}

// --- TCP --------------------------------------------------------------------

void TcpHeader::Serialize(ciobase::Buffer& out) const {
  size_t header_bytes = kTcpHeaderSize + (mss_option != 0 ? 4 : 0);
  size_t base = out.size();
  out.resize(base + header_bytes);
  uint8_t* p = out.data() + base;
  ciobase::StoreBe16(p, src_port);
  ciobase::StoreBe16(p + 2, dst_port);
  ciobase::StoreBe32(p + 4, seq);
  ciobase::StoreBe32(p + 8, ack);
  p[12] = static_cast<uint8_t>((header_bytes / 4) << 4);
  p[13] = flags;
  ciobase::StoreBe16(p + 14, window);
  ciobase::StoreBe16(p + 16, 0);  // checksum filled by the stack
  ciobase::StoreBe16(p + 18, 0);  // urgent pointer
  if (mss_option != 0) {
    p[20] = 2;  // kind: MSS
    p[21] = 4;  // length
    ciobase::StoreBe16(p + 22, mss_option);
  }
}

ciobase::Result<TcpHeader> TcpHeader::Parse(ciobase::ByteSpan segment) {
  if (segment.size() < kTcpHeaderSize) {
    return ciobase::InvalidArgument("TCP segment too short");
  }
  const uint8_t* p = segment.data();
  TcpHeader header;
  header.src_port = ciobase::LoadBe16(p);
  header.dst_port = ciobase::LoadBe16(p + 2);
  header.seq = ciobase::LoadBe32(p + 4);
  header.ack = ciobase::LoadBe32(p + 8);
  header.data_offset = p[12] >> 4;
  header.flags = p[13];
  header.window = ciobase::LoadBe16(p + 14);
  size_t header_bytes = header.HeaderBytes();
  if (header_bytes < kTcpHeaderSize || header_bytes > segment.size()) {
    return ciobase::InvalidArgument("TCP data offset out of range");
  }
  // Scan options for MSS (kind 2); ignore others, stop at end-of-options.
  size_t i = kTcpHeaderSize;
  while (i < header_bytes) {
    uint8_t kind = p[i];
    if (kind == 0) {
      break;  // end of options
    }
    if (kind == 1) {
      ++i;  // NOP
      continue;
    }
    if (i + 1 >= header_bytes) {
      return ciobase::InvalidArgument("truncated TCP option");
    }
    uint8_t len = p[i + 1];
    if (len < 2 || i + len > header_bytes) {
      return ciobase::InvalidArgument("bad TCP option length");
    }
    if (kind == 2 && len == 4) {
      header.mss_option = ciobase::LoadBe16(p + i + 2);
    }
    i += len;
  }
  return header;
}

// --- Checksums --------------------------------------------------------------

uint16_t InternetChecksum(ciobase::ByteSpan data, uint32_t initial) {
  uint64_t sum = initial;
  size_t i = 0;
  while (i + 1 < data.size()) {
    sum += ciobase::LoadBe16(data.data() + i);
    i += 2;
  }
  if (i < data.size()) {
    sum += static_cast<uint32_t>(data[i]) << 8;
  }
  while ((sum >> 16) != 0) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

uint32_t PseudoHeaderSum(Ipv4Address src, Ipv4Address dst, uint8_t protocol,
                         uint16_t length) {
  uint32_t sum = 0;
  sum += src.value >> 16;
  sum += src.value & 0xffff;
  sum += dst.value >> 16;
  sum += dst.value & 0xffff;
  sum += protocol;
  sum += length;
  return sum;
}

uint16_t TransportChecksum(Ipv4Address src, Ipv4Address dst, uint8_t protocol,
                           ciobase::ByteSpan segment) {
  uint32_t pseudo = PseudoHeaderSum(src, dst, protocol,
                                    static_cast<uint16_t>(segment.size()));
  return InternetChecksum(segment, pseudo);
}

}  // namespace cionet
