// L2Config: the complete, immutable configuration of the hardened L2
// transport (§3.2 "zero (re-)negotiation").
//
// Every parameter a paravirtual standard would negotiate at runtime — MAC,
// MTU, queue geometry, who computes checksums, data positioning — is fixed
// here at deployment time, serialized into the attestation measurement, and
// never read from shared memory again. There is no control plane: the
// config IS the protocol instance. (Live migration is handled by
// hot-swapping the device with a new fixed config, not by renegotiation.)

#ifndef SRC_CIO_L2_CONFIG_H_
#define SRC_CIO_L2_CONFIG_H_

#include <cstdint>

#include "src/base/bytes.h"
#include "src/net/wire.h"
#include "src/tee/attestation.h"

namespace cio {

// §3.2 "explore data positioning": where frame payloads live relative to
// the ring.
enum class DataPositioning : uint8_t {
  kInline = 0,      // payload inline in the ring slot with its header
  kSharedPool = 1,  // payload in a shared area via mask-protected offsets
  kIndirect = 2,    // mask-protected indirect descriptor table
};

std::string_view DataPositioningName(DataPositioning positioning);

// §3.2 "explore revocation": how the guest takes ownership of RX payloads.
enum class ReceiveOwnership : uint8_t {
  kCopy = 0,    // copy once into private memory (early, single fetch)
  kRevoke = 1,  // un-share the pages on the fly; no copy
};

struct L2Config {
  cionet::MacAddress mac;
  uint16_t mtu = 1500;
  // Ring geometry; both power-of-two by construction (§3.2 "alignment at a
  // power of two" makes masking total).
  uint16_t ring_slots = 256;
  uint32_t slot_size = 2048;  // includes the 8-byte slot header
  DataPositioning positioning = DataPositioning::kInline;
  ReceiveOwnership rx_ownership = ReceiveOwnership::kCopy;
  // No notifications: the host polls the rings; the guest never rings a
  // doorbell.
  // Checksum offload is fixed OFF: the guest computes its own checksums, so
  // there is nothing to negotiate and nothing for the host to lie about.

  // Canonical serialization, bound into the attestation measurement.
  ciobase::Buffer Serialize() const;
  ciotee::Measurement Measure() const;

  // Validates the power-of-two and size invariants.
  bool Valid() const;

  uint32_t SlotPayloadCapacity() const { return slot_size - 8; }
};

}  // namespace cio

#endif  // SRC_CIO_L2_CONFIG_H_
