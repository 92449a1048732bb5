// io_uring-style submission/completion queues for the L5 boundary.
//
// The synchronous per-message L5 calls paid one boundary crossing per
// operation. The async datapath replaces them with two rings in the
// registered queue region (one long-lived allocation in the I/O heap, next
// to the sealed-buffer pool, see src/cio/buffer_pool.h):
//
//   SQ: the app encodes submission entries (send / arm-receive / arm-
//       accept), each naming up to kSqMaxSegments scatter-gather segments
//       of registered pool slots, and publishes a tail counter. One
//       doorbell crossing per batch consumes everything. Send entries name
//       their socket; receive entries name none — they are shared receive
//       credit the I/O side fills from whichever socket has bytes. An
//       accept entry names a listener and is multishot: it stays armed and
//       completes once per new connection.
//   CQ: the I/O side posts completion entries; the app reaps them lazily,
//       WITHOUT crossing — completions are validated app-side against the
//       shadow of what was actually submitted. Every completion carries a
//       socket word (byte 20): the socket a receive was filled from, the
//       socket a send went out on, or the socket an accept opened (whose
//       remote address rides in the peer word, byte 56).
//
// Trust boundary: the app trusts nothing it reads back from the region.
// Every CQ field (user_data, epoch, result, per-segment lengths, status
// code) is host-writable in the threat model, so the reaper checks each
// against its private in-flight shadow and surfaces violations as typed
// kTampered errors; ring indices are clamped/masked so no counter value can
// direct an access outside the rings. The I/O side, per the ternary model,
// trusts app-written SQ entries (the app is the trusted component).
//
// Entries are fixed 64-byte, little-endian serialized — no pointers ever
// cross, only slot indices and lengths.

#ifndef SRC_CIO_SQCQ_H_
#define SRC_CIO_SQCQ_H_

#include <cstdint>

#include "src/base/bytes.h"

namespace cio {

inline constexpr size_t kSqcqControlBytes = 64;
inline constexpr size_t kSqeSize = 64;
inline constexpr size_t kCqeSize = 64;
inline constexpr size_t kSqMaxSegments = 8;

// Submission opcodes.
inline constexpr uint8_t kSqOpSend = 1;
inline constexpr uint8_t kSqOpRecv = 2;
inline constexpr uint8_t kSqOpAccept = 3;  // multishot, on a listener

// Completion status codes (host-writable: anything else is tampering).
inline constexpr uint16_t kCqOk = 0;
inline constexpr uint16_t kCqEof = 1;      // orderly EOF on an armed receive
inline constexpr uint16_t kCqReset = 2;    // connection died underneath

// Control block cell offsets (u32 little-endian each).
inline constexpr size_t kCtrlSqHead = 0;   // io-written: SQEs consumed
inline constexpr size_t kCtrlSqTail = 4;   // app-written: SQEs published
inline constexpr size_t kCtrlCqHead = 8;   // app-written: CQEs reaped
inline constexpr size_t kCtrlCqTail = 12;  // io-written: CQEs posted
inline constexpr size_t kCtrlEpoch = 16;   // app-written: ring generation

struct SqSegment {
  uint16_t slot = 0;
  uint32_t len = 0;
};

struct SqEntry {
  uint8_t op = 0;
  uint8_t seg_count = 0;
  uint32_t socket = 0;
  uint64_t user_data = 0;
  SqSegment segs[kSqMaxSegments];
};

struct CqEntry {
  uint8_t op = 0;
  uint8_t seg_count = 0;
  uint16_t code = kCqOk;
  uint32_t result = 0;  // total bytes moved; must equal the segment sum
  uint64_t user_data = 0;
  uint32_t epoch = 0;
  uint32_t socket = 0;  // the send's own socket, or an open one for a receive
  uint32_t seg_len[kSqMaxSegments] = {};
  uint32_t peer = 0;  // accept: the new connection's remote IPv4 address
};

// Geometry + validation of the queue region knobs. Also carried in
// cio::StackConfig as the dual-boundary queue configuration.
struct L5QueueConfig {
  uint32_t sq_entries = 64;    // power of two
  uint32_t cq_entries = 64;    // power of two
  // A quarter of the pool is the channel's shared receive credit (one slot
  // per receive entry); the rest always stays free for sends.
  uint32_t pool_slots = 160;
  uint32_t slot_size = 4096;

  bool Valid() const;
  size_t SqOffset() const { return kSqcqControlBytes; }
  size_t CqOffset() const { return SqOffset() + sq_entries * kSqeSize; }
  size_t PoolOffset() const { return CqOffset() + cq_entries * kCqeSize; }
  size_t TotalBytes() const {
    return PoolOffset() + static_cast<size_t>(pool_slots) * slot_size;
  }
};

// Entry codecs over the raw region. Encode writes exactly kSqeSize/kCqeSize
// bytes; Decode never reads past them and clamps seg_count into range (the
// caller still validates the decoded values against its shadow).
void EncodeSqe(const SqEntry& entry, ciobase::MutableByteSpan out);
SqEntry DecodeSqe(ciobase::ByteSpan in);
void EncodeCqe(const CqEntry& entry, ciobase::MutableByteSpan out);
CqEntry DecodeCqe(ciobase::ByteSpan in);

}  // namespace cio

#endif  // SRC_CIO_SQCQ_H_
